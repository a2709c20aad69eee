// Package search implements tag search over CCM — the third system-level
// function the paper's information model calls out (§III-B: "If each tag
// chooses multiple random slots in the time frame, we can perform tag search
// based on the bitmap", citing Zheng & Li [14] and Chen et al. [15]).
//
// The reader holds a wanted list of IDs and asks which of them are present
// in the field. Each present tag sets k hash-derived slots in the frame
// (a Bloom-filter encoding); the reader checks each wanted ID's k slots in
// the collected bitmap. An idle slot proves absence — a present tag always
// delivers its slots thanks to Theorem 1 — while an ID whose k slots are
// all busy is reported present, with a quantifiable false-positive rate
// from other tags covering its slots.
package search

import (
	"fmt"
	"math"

	"netags/internal/bitmap"
	"netags/internal/core"
	"netags/internal/obs"
	"netags/internal/prng"
)

// DefaultHashes is the Bloom encoding width k used when a search asks for
// none (and by Evaluate for a non-positive width).
const DefaultHashes = 3

// slotOf returns wanted/present tag id's j-th slot for the request seed.
func slotOf(id, seed uint64, j, frameSize int) int {
	return prng.SlotOf(id, seed+uint64(j)*0x9e3779b97f4a7c15, frameSize)
}

// Picker returns the multi-slot CCM picker for this application.
func Picker(seed uint64, hashes, frameSize int) core.SlotPicker {
	return func(_ int, id uint64) []int {
		slots := make([]int, hashes)
		for j := range slots {
			slots[j] = slotOf(id, seed, j, frameSize)
		}
		return slots
	}
}

// FalsePositiveRate estimates the probability that an absent wanted ID is
// reported present, with nPresent tags each setting hashes slots in an
// f-slot frame: (busy fraction)^hashes.
func FalsePositiveRate(nPresent, f, hashes int) float64 {
	if f <= 0 || hashes <= 0 {
		return 1
	}
	busy := 1 - math.Pow(1-1/float64(f), float64(nPresent*hashes))
	return math.Pow(busy, float64(hashes))
}

// FrameSizeFor returns a frame size that keeps the false-positive rate at or
// below target for a population of n tags with the given hash count.
func FrameSizeFor(n, hashes int, target float64) (int, error) {
	if n <= 0 || hashes <= 0 {
		return 0, fmt.Errorf("search: n %d and hashes %d must be positive", n, hashes)
	}
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("search: target false-positive rate %v outside (0,1)", target)
	}
	// Invert (1 − e^{−nk/f})^k ≤ target for f.
	busy := math.Pow(target, 1/float64(hashes))
	if busy >= 1 {
		return 0, fmt.Errorf("search: unreachable target %v", target)
	}
	f := float64(n*hashes) / -math.Log1p(-busy)
	fi := int(math.Ceil(f))
	for FalsePositiveRate(n, fi, hashes) > target {
		fi += fi / 16
	}
	return fi, nil
}

// Evaluate tests each wanted ID against a collected bitmap: all k slots busy
// means found, any idle slot means provably absent. It is exposed separately
// so that multi-reader callers can evaluate an OR-combined bitmap.
func Evaluate(bm *bitmap.Bitmap, wanted []uint64, seed uint64, hashes int) (found, absent []uint64) {
	if hashes <= 0 {
		hashes = DefaultHashes
	}
	f := bm.Len()
	for _, id := range wanted {
		present := true
		for j := 0; j < hashes; j++ {
			if !bm.Get(slotOf(id, seed, j, f)) {
				present = false
				break
			}
		}
		if present {
			found = append(found, id)
		} else {
			absent = append(absent, id)
		}
	}
	return found, absent
}

// EvaluateObserved is Evaluate plus one search phase event on t (nil t is
// exactly Evaluate): Count is the number of wanted IDs whose slots were all
// busy, Tags the size of the wanted list.
func EvaluateObserved(t obs.Tracer, bm *bitmap.Bitmap, wanted []uint64, seed uint64, hashes int) (found, absent []uint64) {
	found, absent = Evaluate(bm, wanted, seed, hashes)
	if t != nil {
		t.Trace(obs.Event{
			Kind:      obs.KindPhase,
			Protocol:  obs.ProtoSearch,
			Phase:     "evaluate",
			FrameSize: bm.Len(),
			Count:     len(found),
			Tags:      len(wanted),
			Seed:      seed,
		})
	}
	return found, absent
}
