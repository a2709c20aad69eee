// Package trp implements missing-tag detection (§V): the Trusted Reader
// Protocol of Tan et al. [8] layered on CCM sessions.
//
// The reader knows the full inventory of tag IDs. For a request (f, η) it
// can predict exactly which frame slots must be busy — every tag hashes its
// ID with η into one slot deterministically (p = 1). If a predicted-busy
// slot comes back idle, every tag that hashed into it must be absent.
// Theorem 1 guarantees the CCM-collected bitmap equals the traditional
// one-hop bitmap, so the prediction logic carries over unchanged to
// networked tags.
package trp

import (
	"fmt"
	"math"

	"netags/internal/bitmap"
	"netags/internal/prng"
)

// PaperFrameSize is the frame size the paper derives from [8] for n = 10,000,
// m = 50, δ = 95% (§VI-B).
const PaperFrameSize = 3228

// FrameSizeFor returns the smallest frame size such that a single execution
// detects the absence of more than m tags (out of an inventory of n) with
// probability at least delta — requirement (14).
//
// A missing tag is detected iff no present tag hashed into its slot, which
// happens with probability ≈ e^{-(n-m)/f}. With m independent missing tags,
// Prob{detect} ≈ 1 − (1 − e^{-(n-m)/f})^m ≥ delta solves to
// f ≥ (n−m) / −ln(1 − (1−delta)^{1/m}).
func FrameSizeFor(n, m int, delta float64) (int, error) {
	if n <= 0 || m <= 0 || m >= n {
		return 0, fmt.Errorf("trp: need 0 < m < n, got n=%d m=%d", n, m)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("trp: delta %v outside (0,1)", delta)
	}
	// 1 − (1−δ)^{1/m}, computed stably.
	q := -math.Expm1(math.Log1p(-delta) / float64(m))
	f := int(math.Ceil(float64(n-m) / -math.Log(q)))
	// The e^{-(n−m)/f} approximation slightly overstates the probability a
	// slot stays empty; nudge f up until the exact Bernoulli form meets
	// delta (at most a handful of steps).
	for DetectionProbability(n, m, f) < delta {
		f++
	}
	return f, nil
}

// DetectionProbability returns the analytical single-execution detection
// probability when exactly missing tags are absent from an inventory of n,
// using frame size f.
func DetectionProbability(n, missing, f int) float64 {
	if missing <= 0 || f <= 0 {
		return 0
	}
	present := n - missing
	if present < 0 {
		present = 0
	}
	pEmpty := math.Pow(1-1/float64(f), float64(present))
	return 1 - math.Pow(1-pEmpty, float64(missing))
}

// Plan is the reader's precomputed view of one detection request: which
// slots each inventory ID occupies and which slots must therefore be busy.
type Plan struct {
	// FrameSize and Seed identify the request (f, η).
	FrameSize int
	Seed      uint64
	// Expected is the predicted status bitmap: bit i set iff some inventory
	// tag hashes to slot i.
	Expected *bitmap.Bitmap

	// slotIDs maps each slot to the inventory IDs that hash into it, for
	// identifying suspects after detection.
	slotIDs map[int][]uint64
}

// NewPlan builds the reader-side prediction for the inventory ids under
// request (frameSize, seed).
func NewPlan(ids []uint64, frameSize int, seed uint64) (*Plan, error) {
	if frameSize <= 0 {
		return nil, fmt.Errorf("trp: frame size %d must be positive", frameSize)
	}
	p := &Plan{
		FrameSize: frameSize,
		Seed:      seed,
		Expected:  bitmap.New(frameSize),
		slotIDs:   make(map[int][]uint64, len(ids)),
	}
	for _, id := range ids {
		s := prng.SlotOf(id, seed, frameSize)
		p.Expected.Set(s)
		p.slotIDs[s] = append(p.slotIDs[s], id)
	}
	return p, nil
}

// Detection is the outcome of comparing a collected bitmap to a plan.
type Detection struct {
	// Missing reports whether at least one missing tag was detected.
	Missing bool
	// EmptySlots lists the predicted-busy slots that came back idle.
	EmptySlots []int
	// Suspects lists the inventory IDs that hashed into an empty slot —
	// every one of them is provably absent (under a reliable channel).
	Suspects []uint64
	// UnexpectedBusy lists slots that were busy without any inventory tag
	// hashing into them. Under CCM's exact delivery (Theorem 1) each one
	// proves a tag outside the inventory present: unknown-tag detection,
	// the dual of missing-tag detection (§VII, refs. [12], [13]).
	UnexpectedBusy []int
}

func errLengthMismatch(got, want int) error {
	return fmt.Errorf("trp: bitmap length %d does not match frame size %d", got, want)
}

// Detect compares the actual bitmap collected from the field against the
// plan's prediction.
func (p *Plan) Detect(actual *bitmap.Bitmap) (Detection, error) {
	var d Detection
	if actual.Len() != p.FrameSize {
		return d, errLengthMismatch(actual.Len(), p.FrameSize)
	}
	p.Expected.ForEach(func(slot int) {
		if !actual.Get(slot) {
			d.EmptySlots = append(d.EmptySlots, slot)
			d.Suspects = append(d.Suspects, p.slotIDs[slot]...)
		}
	})
	actual.ForEach(func(slot int) {
		if !p.Expected.Get(slot) {
			d.UnexpectedBusy = append(d.UnexpectedBusy, slot)
		}
	})
	d.Missing = len(d.EmptySlots) > 0
	return d, nil
}
