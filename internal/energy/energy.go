// Package energy implements the cost accounting used throughout the paper's
// evaluation (§VI-A): execution time measured in slot counts, and per-tag
// energy measured indirectly as bits sent and bits received.
//
// The bits-received metric includes idle monitoring: a tag that stays awake
// to sense a slot pays for receiving that slot's one bit whether or not
// anything was transmitted, which is exactly why CCM's sleep rules (slots
// already relayed or silenced by the indicator vector) save energy.
package energy

import "fmt"

// IDBits is the length of a tag ID in bits, per the EPC Gen2 convention the
// paper adopts (96-bit IDs; the reader packs indicator-vector segments into
// 96-bit slots too).
const IDBits = 96

// Meter records per-tag sent and received bit counts for one protocol run.
type Meter struct {
	sent []int64
	recv []int64
}

// NewMeter returns a meter for n tags.
func NewMeter(n int) *Meter {
	return &Meter{sent: make([]int64, n), recv: make([]int64, n)}
}

// N returns the number of tags tracked.
func (m *Meter) N() int { return len(m.sent) }

// AddSent charges bits of transmission energy to tag i.
func (m *Meter) AddSent(i int, bits int64) { m.sent[i] += bits }

// AddReceived charges bits of reception/monitoring energy to tag i.
func (m *Meter) AddReceived(i int, bits int64) { m.recv[i] += bits }

// AddReceivedCounts charges counts[i] received bits to every tag i at once —
// the bulk form of the per-round monitoring charge, where tag i stays awake
// for exactly its unknown slots. counts must have one entry per tracked tag.
func (m *Meter) AddReceivedCounts(counts []int32) {
	if len(counts) != len(m.recv) {
		panic(fmt.Sprintf("energy: %d counts for meter of %d tags", len(counts), len(m.recv)))
	}
	for i, c := range counts {
		m.recv[i] += int64(c)
	}
}

// AddReceivedWhere charges bits received to every tag with include[i] true —
// the bulk form of a broadcast charge over a fixed subset (e.g. the
// indicator vector reaching every in-system tag). include must have one
// entry per tracked tag.
func (m *Meter) AddReceivedWhere(bits int64, include []bool) {
	if len(include) != len(m.recv) {
		panic(fmt.Sprintf("energy: %d mask entries for meter of %d tags", len(include), len(m.recv)))
	}
	for i, in := range include {
		if in {
			m.recv[i] += bits
		}
	}
}

// Reset zeroes every counter in place, so one meter allocation can be reused
// across protocol runs (arena-style pooling).
func (m *Meter) Reset() {
	clear(m.sent)
	clear(m.recv)
}

// ScatterFrom overwrites m with src renumbered: tag order[k] of m takes
// the counts of entry k of src. Kernels that meter by another numbering
// (the network's positions) call it once, at the end of a run. order must be
// a permutation of m's tags.
func (m *Meter) ScatterFrom(src *Meter, order []int32) {
	if len(order) != len(m.sent) || len(src.sent) != len(m.sent) {
		panic(fmt.Sprintf("energy: scatter of %d entries through %d-long order into meter of %d tags",
			len(src.sent), len(order), len(m.sent)))
	}
	for k, i := range order {
		m.sent[i] = src.sent[k]
		m.recv[i] = src.recv[k]
	}
}

// Sent returns the bits sent by tag i.
func (m *Meter) Sent(i int) int64 { return m.sent[i] }

// Received returns the bits received by tag i.
func (m *Meter) Received(i int) int64 { return m.recv[i] }

// Merge adds the counts of other into m (used to combine per-reader sessions
// in the multi-reader extension). The meters must track the same number of
// tags; merging meters of different sizes is a caller bug, reported as an
// error naming both sizes rather than a panic so protocol drivers can wrap
// it with context.
func (m *Meter) Merge(other *Meter) error {
	if len(m.sent) != len(other.sent) {
		return fmt.Errorf("energy: cannot merge meter of %d tags into meter of %d tags",
			len(other.sent), len(m.sent))
	}
	for i := range m.sent {
		m.sent[i] += other.sent[i]
		m.recv[i] += other.recv[i]
	}
	return nil
}

// Summary aggregates a meter over a subset of tags.
type Summary struct {
	// Count is the number of tags included.
	Count int
	// MaxSent / MaxReceived are the worst-case per-tag costs (Tables I, II).
	MaxSent     int64
	MaxReceived int64
	// AvgSent / AvgReceived are the mean per-tag costs (Tables III, IV).
	AvgSent     float64
	AvgReceived float64
	// TotalSent / TotalReceived are network-wide sums.
	TotalSent     int64
	TotalReceived int64
}

// Summarize aggregates over the tags for which include returns true. A nil
// include means all tags. The paper reports statistics over tags that are in
// the system, so callers typically pass a reachability filter.
func (m *Meter) Summarize(include func(i int) bool) Summary {
	var s Summary
	for i := range m.sent {
		if include != nil && !include(i) {
			continue
		}
		s.Count++
		s.TotalSent += m.sent[i]
		s.TotalReceived += m.recv[i]
		if m.sent[i] > s.MaxSent {
			s.MaxSent = m.sent[i]
		}
		if m.recv[i] > s.MaxReceived {
			s.MaxReceived = m.recv[i]
		}
	}
	if s.Count > 0 {
		s.AvgSent = float64(s.TotalSent) / float64(s.Count)
		s.AvgReceived = float64(s.TotalReceived) / float64(s.Count)
	}
	return s
}

// SummarizeByTier aggregates per tier: element k of the result summarizes
// the tags with tier[i] == k (element 0 collects the unreachable ones).
// This is the view behind the paper's load-balance observation (§VI-B2:
// CCM's max per-tag cost is close to its average, across all tiers).
func (m *Meter) SummarizeByTier(tier []int16, maxTier int) []Summary {
	if len(tier) != len(m.sent) {
		panic(fmt.Sprintf("energy: %d tier entries for meter of %d tags", len(tier), len(m.sent)))
	}
	out := make([]Summary, maxTier+1)
	for k := 0; k <= maxTier; k++ {
		k := int16(k)
		out[k] = m.Summarize(func(i int) bool { return tier[i] == k })
	}
	return out
}

// Clock counts the time slots a protocol consumes, split by slot kind: short
// slots in which a tag transmits one bit (t_s) and long slots in which the
// reader transmits a 96-bit message (t_id). Fig. 4 reports the plain total.
type Clock struct {
	// ShortSlots counts 1-bit slots (frame slots, checking-frame slots).
	ShortSlots int64
	// LongSlots counts 96-bit reader-broadcast slots (requests,
	// indicator-vector segments, polls in SICP).
	LongSlots int64
}

// Total returns the total number of slots of either kind — the unit of
// Fig. 4.
func (c Clock) Total() int64 { return c.ShortSlots + c.LongSlots }

// Add accumulates another clock (e.g. per-round or per-reader costs).
func (c *Clock) Add(other Clock) {
	c.ShortSlots += other.ShortSlots
	c.LongSlots += other.LongSlots
}
