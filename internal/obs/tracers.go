package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
)

// JSONL writes one JSON object per event to an io.Writer. It is safe for
// concurrent use (the experiment runner shares one across its worker pool);
// events from concurrent sessions interleave whole-line, never mid-line.
// Write errors are sticky: the first one stops further output and is
// reported by Err.
type JSONL struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	err error
}

// NewJSONL returns a JSONL tracer over w. The caller owns w's lifecycle
// (buffering, closing); CreateJSONLFile bundles both for the common
// trace-to-file case.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w}
}

// Trace encodes and writes one event.
func (t *JSONL) Trace(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.buf = ev.AppendJSON(t.buf[:0])
	t.buf = append(t.buf, '\n')
	if _, err := t.w.Write(t.buf); err != nil {
		t.err = err
	}
}

// Err returns the first write error, if any.
func (t *JSONL) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// JSONLFile is a JSONL tracer bound to a buffered file, for the CLIs'
// -trace-out flag.
type JSONLFile struct {
	*JSONL
	f  *os.File
	bw *bufio.Writer
}

// CreateJSONLFile creates (truncating) path and returns a tracer writing
// JSONL events to it. Close flushes and reports any deferred write error.
func CreateJSONLFile(path string) (*JSONLFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create trace file: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	return &JSONLFile{JSONL: NewJSONL(bw), f: f, bw: bw}, nil
}

// Close flushes and closes the trace file, surfacing the first error seen
// anywhere in the pipeline.
func (t *JSONLFile) Close() error {
	err := t.Err()
	if ferr := t.bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := t.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Memory accumulates events in a slice, for tests and programmatic
// inspection. Safe for concurrent use.
type Memory struct {
	mu     sync.Mutex
	events []Event
}

// NewMemory returns an empty in-memory tracer.
func NewMemory() *Memory { return &Memory{} }

// Trace records the event.
func (t *Memory) Trace(ev Event) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Events returns a copy of everything recorded so far.
func (t *Memory) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Kinds returns how many events of each kind were recorded.
func (t *Memory) Kinds() map[Kind]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[Kind]int)
	for _, ev := range t.events {
		out[ev.Kind]++
	}
	return out
}

// Narrator renders events as a human-readable convergence narrative — the
// replacement for ccmsim's old ad-hoc `-op bitmap -trace` printing, and it
// works for every operation because it consumes the shared event stream.
// Safe for concurrent use, though interleaved sessions read best with one
// narrator per stream.
type Narrator struct {
	mu       sync.Mutex
	w        io.Writer
	sessions int
}

// NewNarrator returns a narrator writing to w.
func NewNarrator(w io.Writer) *Narrator { return &Narrator{w: w} }

// Trace renders one event. Frame/indicator/check detail events are folded
// into the round row; phase and slot-batch events get one line each.
func (t *Narrator) Trace(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case KindSessionStart:
		t.sessions++
		fmt.Fprintf(t.w, "-- %s session %d (reader %d): f=%d, %d tags, %d tiers, seed %d\n",
			ev.Protocol, t.sessions, ev.Reader, ev.FrameSize, ev.Tags, ev.Tiers, ev.Seed)
		if ev.Protocol == ProtoCCM {
			fmt.Fprintf(t.w, "%6s  %12s  %10s  %9s  %10s  %11s\n",
				"round", "transmitters", "bits sent", "new busy", "known busy", "check slots")
		}
	case KindRound:
		fmt.Fprintf(t.w, "%6d  %12d  %10d  %9d  %10d  %11d\n",
			ev.Round, ev.Transmitters, ev.Bits, ev.NewBusy, ev.KnownBusy, ev.CheckSlots)
	case KindSessionEnd:
		fmt.Fprintf(t.w, "   end: %d rounds, %d busy slots, %d slots air time (%d short + %d long), truncated=%v\n",
			ev.Rounds, ev.KnownBusy, ev.ShortSlots+ev.LongSlots, ev.ShortSlots, ev.LongSlots, ev.Truncated)
	case KindReaderMerge:
		fmt.Fprintf(t.w, "   merge: reader %d contributed %d busy slots (combined %d, %d rounds)\n",
			ev.Reader, ev.Count, ev.KnownBusy, ev.Rounds)
	case KindPhase:
		fmt.Fprintf(t.w, "   %s/%s #%d: count=%d value=%g\n",
			ev.Protocol, ev.Phase, ev.Round, ev.Count, ev.Value)
	case KindSlotBatch:
		fmt.Fprintf(t.w, "   %s/%s #%d: %d transmitters, %d slots, count=%d\n",
			ev.Protocol, ev.Phase, ev.Round, ev.Transmitters, ev.Slots, ev.Count)
	}
}
