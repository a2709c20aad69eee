package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// NewLogger builds a daemon logger writing to w from the -log-level
// (debug|info|warn|error) and -log-format (text|json) flag values.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil || strings.ContainsAny(level, "+-") {
		return nil, fmt.Errorf("unknown -log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text|json)", format)
}

// Instrumentation bundles the observability plumbing the CLIs share: an
// optional JSONL trace file, an optional metrics collector, and optional
// CPU/heap profiles. Build one with StartInstrumentation from the flag
// values, attach Tracer() to the run, and Close it when the run is done.
type Instrumentation struct {
	tracer      Tracer
	collector   *Collector
	traceFile   *JSONLFile
	stopProfile func() error
	metricsMode string
	closed      bool
}

// StartInstrumentation opens the requested sinks. traceOut names a JSONL
// trace file ("" = none), metricsMode is "", "text", or "json", and
// cpuProfile/memProfile name pprof output files ("" = none). On error,
// anything already opened is closed.
func StartInstrumentation(traceOut, metricsMode, cpuProfile, memProfile string) (*Instrumentation, error) {
	switch metricsMode {
	case "", "text", "json":
	default:
		return nil, fmt.Errorf("obs: metrics mode %q (want text or json)", metricsMode)
	}
	in := &Instrumentation{metricsMode: metricsMode}
	if traceOut != "" {
		f, err := CreateJSONLFile(traceOut)
		if err != nil {
			return nil, err
		}
		in.traceFile = f
	}
	if metricsMode != "" {
		in.collector = NewCollector()
	}
	stop, err := StartProfiles(cpuProfile, memProfile)
	if err != nil {
		if in.traceFile != nil {
			in.traceFile.Close()
		}
		return nil, err
	}
	in.stopProfile = stop
	var sinks []Tracer
	if in.traceFile != nil {
		sinks = append(sinks, in.traceFile)
	}
	if in.collector != nil {
		sinks = append(sinks, in.collector)
	}
	in.tracer = Multi(sinks...)
	return in, nil
}

// Tracer returns the combined event sink, or nil when neither a trace file
// nor metrics were requested — so attaching it preserves the nil-tracer
// fast path.
func (in *Instrumentation) Tracer() Tracer { return in.tracer }

// Close flushes and closes every sink: the trace file is flushed, the
// metrics summary (if requested) is rendered to w, and the profiles are
// written. The first error wins, but every sink is still closed. Close is
// idempotent — only the first call does anything, so the metrics summary is
// rendered exactly once even when a CLI both defers Close and calls it on
// its happy path.
func (in *Instrumentation) Close(w io.Writer) error {
	if in.closed {
		return nil
	}
	in.closed = true
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if in.traceFile != nil {
		keep(in.traceFile.Close())
	}
	if in.collector != nil {
		m := in.collector.Snapshot()
		switch in.metricsMode {
		case "json":
			b, err := m.MarshalJSON()
			keep(err)
			if err == nil {
				_, err = fmt.Fprintf(w, "%s\n", b)
				keep(err)
			}
		case "text":
			_, err := io.WriteString(w, m.String())
			keep(err)
		}
	}
	if in.stopProfile != nil {
		keep(in.stopProfile())
	}
	return first
}
