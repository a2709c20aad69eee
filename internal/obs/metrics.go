package obs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"

	"netags/internal/stats"
)

// histBuckets bounds Hist at values up to 2^22 (4M) per bucket top; larger
// observations land in the last bucket.
const histBuckets = 24

// Hist is a fixed-size power-of-two histogram: bucket 0 counts zeros,
// bucket b ≥ 1 counts values in [2^(b−1), 2^b). It is a flat value type
// (comparable-by-field, no allocations), which keeps Metrics cheap enough
// to copy on every snapshot.
type Hist struct {
	// Counts are the per-bucket observation counts.
	Counts [histBuckets]int64
	// N, Sum, Max summarize the raw observations.
	N   int64
	Sum int64
	Max int64
}

// Observe records one value. Negative values are clamped to zero.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.Counts[b]++
	h.N++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Mean returns the mean observation (0 when empty).
func (h *Hist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// BucketLow returns the inclusive lower bound of bucket b.
func BucketLow(b int) int64 {
	if b == 0 {
		return 0
	}
	return 1 << (b - 1)
}

// String renders the non-empty buckets compactly: "0:3 [1,2):5 [2,4):1".
func (h *Hist) String() string {
	var sb strings.Builder
	for b, c := range h.Counts {
		if c == 0 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		if b == 0 {
			fmt.Fprintf(&sb, "0:%d", c)
		} else {
			fmt.Fprintf(&sb, "[%d,%d):%d", BucketLow(b), int64(1)<<b, c)
		}
	}
	if sb.Len() == 0 {
		return "(empty)"
	}
	return sb.String()
}

// appendJSON renders the histogram as {"n":..,"sum":..,"max":..,"mean":..,
// "buckets":{"<low>":count,...}} with empty buckets omitted.
func (h *Hist) appendJSON(b []byte) []byte {
	b = append(b, fmt.Sprintf(`{"n":%d,"sum":%d,"max":%d,"mean":%g,"buckets":{`,
		h.N, h.Sum, h.Max, h.Mean())...)
	first := true
	for bk, c := range h.Counts {
		if c == 0 {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, fmt.Sprintf(`"%d":%d`, BucketLow(bk), c)...)
	}
	return append(b, '}', '}')
}

// Metrics is a snapshot of what one or more protocol runs cost and how
// they converged: counters for sessions/rounds/slots, histograms for the
// per-round busy-slot waves and checking frames, and bits-sent/received
// distributions. Its one builder is the event-driven Collector, which
// fills SentBits/RecvBits with per-session averages and SentHist/RecvHist
// with per-session maxima from session_end events.
type Metrics struct {
	// Sessions, Rounds, TruncatedSessions count completed protocol
	// sessions, their total rounds, and how many ended truncated.
	Sessions          int64
	Rounds            int64
	TruncatedSessions int64
	// ShortSlots / LongSlots total the air time by slot kind.
	ShortSlots int64
	LongSlots  int64
	// BusySlots totals the final busy-slot counts of the collected bitmaps.
	BusySlots int64
	// Waves is the distribution of per-round new-busy counts — the §III
	// information waves arriving tier by tier.
	Waves Hist
	// CheckSlots is the distribution of checking-frame lengths executed.
	CheckSlots Hist
	// SentBits / RecvBits are the distributions of each session's average
	// bits sent/received per tag.
	SentBits stats.Sample
	RecvBits stats.Sample
	// SentHist / RecvHist are power-of-two histograms of each session's
	// maximum bits sent/received by one tag, for tail inspection.
	SentHist Hist
	RecvHist Hist
}

// TotalSlots returns the total air time in slots.
func (m *Metrics) TotalSlots() int64 { return m.ShortSlots + m.LongSlots }

// String renders the snapshot as an indented text block (the CLIs'
// `-metrics text`).
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics: %d sessions, %d rounds, %d truncated\n",
		m.Sessions, m.Rounds, m.TruncatedSessions)
	fmt.Fprintf(&b, "  air time: %d slots (%d short + %d long), %d busy slots collected\n",
		m.TotalSlots(), m.ShortSlots, m.LongSlots, m.BusySlots)
	fmt.Fprintf(&b, "  busy-slot waves/round: mean %.1f max %d  %s\n",
		m.Waves.Mean(), m.Waves.Max, m.Waves.String())
	fmt.Fprintf(&b, "  check slots/round:     mean %.1f max %d  %s\n",
		m.CheckSlots.Mean(), m.CheckSlots.Max, m.CheckSlots.String())
	fmt.Fprintf(&b, "  bits sent:     %s (max %d)\n", m.SentBits.String(), m.SentHist.Max)
	fmt.Fprintf(&b, "  bits received: %s (max %d)\n", m.RecvBits.String(), m.RecvHist.Max)
	return b.String()
}

// MarshalJSON renders the snapshot for machine consumers (`-metrics json`).
// stats.Sample fields are expanded to {n, mean, stddev, min, max}.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 1024)
	b = append(b, fmt.Sprintf(
		`{"sessions":%d,"rounds":%d,"truncated_sessions":%d,"short_slots":%d,"long_slots":%d,"total_slots":%d,"busy_slots":%d`,
		m.Sessions, m.Rounds, m.TruncatedSessions, m.ShortSlots, m.LongSlots, m.TotalSlots(), m.BusySlots)...)
	b = append(b, `,"waves":`...)
	b = m.Waves.appendJSON(b)
	b = append(b, `,"check_slots":`...)
	b = m.CheckSlots.appendJSON(b)
	b = append(b, `,"sent_bits":`...)
	b = appendSampleJSON(b, &m.SentBits)
	b = append(b, `,"recv_bits":`...)
	b = appendSampleJSON(b, &m.RecvBits)
	b = append(b, `,"sent_hist":`...)
	b = m.SentHist.appendJSON(b)
	b = append(b, `,"recv_hist":`...)
	b = m.RecvHist.appendJSON(b)
	return append(b, '}'), nil
}

func appendSampleJSON(b []byte, s *stats.Sample) []byte {
	return append(b, fmt.Sprintf(`{"n":%d,"mean":%g,"stddev":%g,"min":%g,"max":%g}`,
		s.N(), s.Mean(), s.StdDev(), s.Min(), s.Max())...)
}

// Collector is a Tracer that reduces the event stream into a Metrics
// snapshot, for consumers that only see events (the CLIs' `-metrics` over
// sweeps). Safe for concurrent use.
type Collector struct {
	mu sync.Mutex
	m  Metrics
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Trace folds one event into the running snapshot.
func (c *Collector) Trace(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Kind {
	case KindFrame:
		c.m.Waves.Observe(int64(ev.NewBusy))
	case KindCheck:
		c.m.CheckSlots.Observe(ev.Slots)
	case KindSessionEnd:
		c.m.Sessions++
		c.m.Rounds += int64(ev.Rounds)
		c.m.ShortSlots += ev.ShortSlots
		c.m.LongSlots += ev.LongSlots
		c.m.BusySlots += int64(ev.KnownBusy)
		if ev.Truncated {
			c.m.TruncatedSessions++
		}
		c.m.SentBits.Add(ev.AvgSentBits)
		c.m.RecvBits.Add(ev.AvgRecvBits)
		c.m.SentHist.Observe(ev.MaxSentBits)
		c.m.RecvHist.Observe(ev.MaxRecvBits)
	}
}

// Snapshot returns a copy of the accumulated metrics.
func (c *Collector) Snapshot() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m
}

// Register adds the collector's families to reg: counters for the
// session/round/slot totals, histograms for the power-of-two
// distributions, and gauge expansions of the stats.Sample summaries (one
// family per statistic).
func (c *Collector) Register(reg *Registry) {
	read := func(fn func(m *Metrics) int64) func() int64 { return locked(c, fn) }
	hist := func(fn func(m *Metrics) Hist) func() Hist { return locked(c, fn) }
	reg.CounterFunc("netags_sessions_total", "Completed protocol sessions.", read(func(m *Metrics) int64 { return m.Sessions }))
	reg.CounterFunc("netags_truncated_sessions_total", "Sessions that ended with data still in flight.", read(func(m *Metrics) int64 { return m.TruncatedSessions }))
	reg.CounterFunc("netags_rounds_total", "Protocol rounds executed.", read(func(m *Metrics) int64 { return m.Rounds }))
	reg.CounterFunc("netags_short_slots_total", "Air time spent in short (1-bit) slots.", read(func(m *Metrics) int64 { return m.ShortSlots }))
	reg.CounterFunc("netags_long_slots_total", "Air time spent in long (96-bit) slots.", read(func(m *Metrics) int64 { return m.LongSlots }))
	reg.CounterFunc("netags_busy_slots_total", "Busy slots collected into final bitmaps.", read(func(m *Metrics) int64 { return m.BusySlots }))
	reg.HistogramFunc("netags_round_new_busy_slots", "Per-round new-busy counts (the information waves of the paper's Section III).", hist(func(m *Metrics) Hist { return m.Waves }))
	reg.HistogramFunc("netags_check_frame_slots", "Checking-frame lengths executed per round.", hist(func(m *Metrics) Hist { return m.CheckSlots }))
	reg.HistogramFunc("netags_tag_sent_bits", "Per-tag or per-session-max bits sent.", hist(func(m *Metrics) Hist { return m.SentHist }))
	reg.HistogramFunc("netags_tag_recv_bits", "Per-tag or per-session-max bits received.", hist(func(m *Metrics) Hist { return m.RecvHist }))
	for _, s := range []struct {
		name, help string
		get        func(m *Metrics) *stats.Sample
	}{
		{"netags_sent_bits", "Bits-sent distribution summary.", func(m *Metrics) *stats.Sample { return &m.SentBits }},
		{"netags_recv_bits", "Bits-received distribution summary.", func(m *Metrics) *stats.Sample { return &m.RecvBits }},
	} {
		for _, stat := range []struct {
			suffix string
			fn     func(*stats.Sample) float64
		}{
			{"count", func(x *stats.Sample) float64 { return float64(x.N()) }},
			{"mean", (*stats.Sample).Mean}, {"min", (*stats.Sample).Min},
			{"max", (*stats.Sample).Max}, {"stddev", (*stats.Sample).StdDev},
		} {
			help := s.help
			if stat.suffix != "count" {
				help += " (" + stat.suffix + ")"
			}
			get, fn := s.get, stat.fn
			reg.GaugeFunc(s.name+"_"+stat.suffix, help, locked(c, func(m *Metrics) float64 { return fn(get(m)) }))
		}
	}
}

// locked returns a reader of the collector's metrics under its lock.
func locked[T any](c *Collector, fn func(m *Metrics) T) func() T {
	return func() T {
		c.mu.Lock()
		defer c.mu.Unlock()
		return fn(&c.m)
	}
}
