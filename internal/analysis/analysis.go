// Package analysis implements the paper's closed-form performance model of
// CCM (§IV-C, equations (3)–(13)): execution time, per-tag monitored slots
// and per-tag transmission slots for a tag at tier k of a uniformly dense
// deployment.
//
// The geometry mirrors Fig. 2: Γ_i is the tag set within i tag-hops of a
// given tag (a disk of radius i·r clipped to the deployment), Γ'_i the tag
// set whose information the reader has silenced by round i (a disk of
// radius r' + (i−1)·r around the reader), and their union determines how
// many slots a tag still monitors and relays. All areas reduce to
// circle–circle intersections, which geom.LensArea computes in one tested
// place rather than transcribing the paper's per-case trigonometry.
package analysis

import (
	"fmt"
	"math"

	"netags/internal/energy"
	"netags/internal/geom"
	"netags/internal/topology"
)

// Model evaluates the closed forms for one parameter setting.
type Model struct {
	// Ranges holds R, r', r.
	Ranges topology.Ranges
	// Density is ρ, tags per square meter.
	Density float64
	// FrameSize is f.
	FrameSize int
	// Sampling is p (1 for TRP).
	Sampling float64
}

// Validate reports whether the model parameters are usable.
func (m Model) Validate() error {
	if err := m.Ranges.Validate(); err != nil {
		return err
	}
	if m.Density <= 0 {
		return fmt.Errorf("analysis: density %v must be positive", m.Density)
	}
	if m.FrameSize <= 0 {
		return fmt.Errorf("analysis: frame size %d must be positive", m.FrameSize)
	}
	if m.Sampling <= 0 || m.Sampling > 1 {
		return fmt.Errorf("analysis: sampling %v outside (0,1]", m.Sampling)
	}
	return nil
}

// Tiers returns the analytical tier count K = 1 + ⌈(R−r')/r⌉.
func (m Model) Tiers() int { return m.Ranges.EstimatedTiers() }

// Chi is eq. (4): the expected number of distinct slots picked by nTags
// tags, χ(n') = f(1 − (1 − 1/f)^n').
func (m Model) Chi(nTags float64) float64 {
	f := float64(m.FrameSize)
	return f * (1 - math.Pow(1-1/f, nTags))
}

// tagDist returns the model's canonical distance from the reader for a tag
// at tier k: the outer edge r0 = r' + (k−1)·r used throughout §IV-C.
func (m Model) tagDist(k int) float64 {
	return m.Ranges.TagToReader + float64(k-1)*m.Ranges.TagToTag
}

// GammaPrime is |Γ'_i| (eq. (5)): the tags within the reader-silenced disk
// after i rounds. Γ'_0 is empty.
func (m Model) GammaPrime(i int) float64 {
	if i <= 0 {
		return 0
	}
	radius := m.Ranges.TagToReader + float64(i-1)*m.Ranges.TagToTag
	return m.Density * geom.DiskArea(radius)
}

// Gamma is |Γ_i| (eqs. (6)–(8)) for a tag at tier k: the tags within i
// tag-hops, i.e. a disk of radius i·r around the tag clipped to the
// deployment disk of radius R. Γ_0 is the tag itself.
func (m Model) Gamma(k, i int) float64 {
	if i <= 0 {
		return 1
	}
	return m.Density * geom.LensArea(float64(i)*m.Ranges.TagToTag, m.Ranges.ReaderToTag, m.tagDist(k))
}

// GammaUnion is |Γ_i ∪ Γ'_i| (eq. (10)): Γ's disk and Γ”s disk overlap
// once i > k/2; the lens area of the two disks (eq. (9)) removes the double
// count. LensArea returns 0 for disjoint disks, which reproduces the
// i ≤ k/2 case split automatically.
func (m Model) GammaUnion(k, i int) float64 {
	if i <= 0 {
		return 1
	}
	overlap := m.Density * geom.LensArea(
		float64(i)*m.Ranges.TagToTag,
		m.Ranges.TagToReader+float64(i-1)*m.Ranges.TagToTag,
		m.tagDist(k),
	)
	u := m.Gamma(k, i) + m.GammaPrime(i) - overlap
	if u < 1 {
		u = 1
	}
	return u
}

// indicatorSegments is ⌈f/96⌉.
func (m Model) indicatorSegments() float64 {
	return math.Ceil(float64(m.FrameSize) / energy.IDBits)
}

// ReceivedBits is N_r (eq. (11)) in bits, charged the way the simulator
// charges them: the slots a tier-k tag spends receiving over a K-round
// session — frame monitoring and checking frames at one bit a slot, plus
// indicator-vector segments at 96 bits each.
//
// The per-round monitoring term follows the prose of §IV-C — the tag stays
// awake for f − χ(p·|Γ_i ∪ Γ'_i|) slots, i.e. f·(1−1/f)^(p·|Γ∪Γ'|) — with
// the sampling probability inside the exponent. Equation (11) as printed
// moves p outside (pf·(1−1/f)^|Γ∪Γ'|), which contradicts the text it
// summarizes and, for p < 1, the simulation: a tag cannot monitor fewer
// than f − (slots it knows about) slots. The two forms agree at p = 1.
func (m Model) ReceivedBits(k int) float64 {
	f := float64(m.FrameSize)
	kTiers := m.Tiers()
	sum := 0.0
	for i := 0; i < kTiers; i++ {
		sum += f * math.Pow(1-1/f, m.Sampling*m.GammaUnion(k, i))
	}
	lc := float64(m.Ranges.CheckingFrameLen())
	return sum + float64(kTiers)*m.indicatorSegments()*energy.IDBits + float64(kTiers)*lc
}

// SentSlotsRound is N_{s,i} (eq. (12)): the expected transmission slots of a
// tier-k tag in round i (1-based). Round 1 is the tag's own (sampled) reply;
// later rounds relay the slots of tags first heard in round i−1 that the
// reader has not silenced.
func (m Model) SentSlotsRound(k, i int) float64 {
	f := float64(m.FrameSize)
	if i <= 1 {
		return m.Sampling
	}
	// Newly heard, not yet silenced: Γ_{i−1} − Γ_{i−2} − Γ'_{i−1}, computed
	// as the union growth between hops i−2 and i−1 against the same
	// silenced set.
	prevUnion := m.unionWith(k, i-2, i-1)
	curUnion := m.GammaUnion(k, i-1)
	mu := m.Sampling * math.Max(0, curUnion-prevUnion)
	known := m.Chi(m.Sampling * m.GammaUnion(k, i-1))
	return m.Chi(mu) * (1 - known/f)
}

// unionWith is |Γ_j ∪ Γ'_m|: the Γ disk after j hops against the silenced
// disk after m rounds.
func (m Model) unionWith(k, j, mRound int) float64 {
	if j <= 0 {
		return 1 + m.GammaPrime(mRound)
	}
	overlap := m.Density * geom.LensArea(
		float64(j)*m.Ranges.TagToTag,
		m.Ranges.TagToReader+float64(mRound-1)*m.Ranges.TagToTag,
		m.tagDist(k),
	)
	u := m.Gamma(k, j) + m.GammaPrime(mRound) - overlap
	if u < 1 {
		u = 1
	}
	return u
}

// SentBits is N_s (eq. (13)) in bits: the frame transmissions over all K
// rounds plus the checking-frame responses. The paper's prose bounds the
// checking-frame transmissions by one per round (a tag responds at most
// once per checking frame), which is what we use.
func (m Model) SentBits(k int) float64 {
	kTiers := m.Tiers()
	sum := 0.0
	for i := 1; i <= kTiers; i++ {
		sum += m.SentSlotsRound(k, i)
	}
	return sum + float64(kTiers)
}

// ExecutionTimeSlots is eq. (3) in slot counts: K rounds of an f-slot frame,
// ⌈f/96⌉ indicator segments and an L_c-slot checking frame.
func (m Model) ExecutionTimeSlots() float64 {
	kTiers := float64(m.Tiers())
	return kTiers * (float64(m.FrameSize) + m.indicatorSegments() + float64(m.Ranges.CheckingFrameLen()))
}

// TierProbability returns the fraction of deployed tags that sit at tier k
// under the model's ring geometry (tier 1 is the disk of radius r', tier
// k ≥ 2 the ring out to r' + (k−1)·r, clipped to the deployment radius R).
func (m Model) TierProbability(k int) float64 {
	if k < 1 || k > m.Tiers() {
		return 0
	}
	outer := math.Min(m.Ranges.TagToReader+float64(k-1)*m.Ranges.TagToTag, m.Ranges.ReaderToTag)
	inner := 0.0
	if k > 1 {
		inner = math.Min(m.Ranges.TagToReader+float64(k-2)*m.Ranges.TagToTag, m.Ranges.ReaderToTag)
	}
	total := geom.DiskArea(m.Ranges.ReaderToTag)
	return (geom.DiskArea(outer) - geom.DiskArea(inner)) / total
}

// AvgSentBits and AvgReceivedBits average the per-tier predictions over the
// tier distribution — the quantities Tables III and IV report.
func (m Model) AvgSentBits() float64 {
	sum := 0.0
	for k := 1; k <= m.Tiers(); k++ {
		sum += m.TierProbability(k) * m.SentBits(k)
	}
	return sum
}

// AvgReceivedBits is the tier-weighted mean of ReceivedBits.
func (m Model) AvgReceivedBits() float64 {
	sum := 0.0
	for k := 1; k <= m.Tiers(); k++ {
		sum += m.TierProbability(k) * m.ReceivedBits(k)
	}
	return sum
}
