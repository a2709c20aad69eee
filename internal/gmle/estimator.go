// Package gmle implements RFID cardinality estimation (§IV): the
// generalized maximum likelihood estimator of Li et al. [28] — an enhanced
// variant of Kodialam & Nandagopal's zero-based estimator [5] — layered on
// CCM sessions so that it works over multi-hop networked tags.
//
// The estimator consumes status bitmaps. Each bitmap comes from a frame of
// f slots in which every tag independently participates with probability p
// and picks one slot uniformly; the count of idle (zero) slots is a
// sufficient statistic for the tag population n. Thanks to Theorem 1, a CCM
// session produces exactly the bitmap a traditional one-hop reader would
// see, so the math is unchanged by the multi-hop setting.
package gmle

import (
	"errors"
	"fmt"
	"math"
)

// OptimalLoad is the load factor ℓ = np/f the paper's evaluation uses when
// configuring the sampling probability (p = 1.59·f/n, §IV-A).
const OptimalLoad = 1.59

// PaperFrameSize is the accurate-phase frame size the paper derives from
// [28] for α = 95%, β = 5% with n = 10,000 (§VI-B).
const PaperFrameSize = 1671

// frame is one recorded observation.
type frame struct {
	f     int     // slots
	p     float64 // participation probability
	zeros int     // observed idle slots
}

// Estimator accumulates status-bitmap observations and produces maximum
// likelihood estimates over all of them jointly (the "G" in GMLE: frames may
// have different f and p).
type Estimator struct {
	frames []frame
}

// ErrSaturated is returned when every observed frame is fully busy, so the
// likelihood increases without bound and no finite estimate exists. Callers
// respond by probing with a smaller sampling probability.
var ErrSaturated = errors.New("gmle: all frames saturated (no idle slots)")

// ErrNoFrames is returned when Estimate is called before any observation.
var ErrNoFrames = errors.New("gmle: no frames observed")

// AddFrame records an observation: a frame of f slots run with participation
// probability p in which zeros slots stayed idle.
func (e *Estimator) AddFrame(f int, p float64, zeros int) error {
	if f <= 0 {
		return fmt.Errorf("gmle: frame size %d must be positive", f)
	}
	if p <= 0 || p > 1 {
		return fmt.Errorf("gmle: participation probability %v outside (0,1]", p)
	}
	if zeros < 0 || zeros > f {
		return fmt.Errorf("gmle: %d zeros in a %d-slot frame", zeros, f)
	}
	e.frames = append(e.frames, frame{f: f, p: p, zeros: zeros})
	return nil
}

// scoreAt returns the derivative of the log-likelihood at population size n.
// For each frame, a slot is idle with probability q(n) = (1 − p/f)^n; the
// derivative is Σ_j c_j·[z_j − (f_j − z_j)·q_j/(1 − q_j)] with
// c_j = ln(1 − p_j/f_j) < 0. It is strictly decreasing in n, so the MLE is
// the unique root.
func (e *Estimator) scoreAt(n float64) float64 {
	s := 0.0
	for _, fr := range e.frames {
		c := math.Log1p(-fr.p / float64(fr.f))
		q := math.Exp(float64(n) * c)
		if q >= 1 {
			q = 1 - 1e-15
		}
		s += c * (float64(fr.zeros) - float64(fr.f-fr.zeros)*q/(1-q))
	}
	return s
}

// Estimate returns the maximum likelihood population size given every frame
// recorded so far. It returns ErrSaturated if no frame had an idle slot and
// ErrNoFrames before the first observation. A fully idle history yields 0.
func (e *Estimator) Estimate() (float64, error) {
	if len(e.frames) == 0 {
		return 0, ErrNoFrames
	}
	anyZero, anyBusy := false, false
	for _, fr := range e.frames {
		if fr.zeros > 0 {
			anyZero = true
		}
		if fr.zeros < fr.f {
			anyBusy = true
		}
	}
	if !anyZero {
		return 0, ErrSaturated
	}
	if !anyBusy {
		return 0, nil
	}
	// Bracket the root, then bisect. The score is positive below the MLE
	// and negative above it.
	lo, hi := 0.0, 1.0
	for e.scoreAt(hi) > 0 {
		hi *= 2
		if hi > 1e15 {
			return 0, ErrSaturated
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-9*(1+hi); iter++ {
		mid := (lo + hi) / 2
		if e.scoreAt(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// FisherInfo returns the Fisher information about n carried by the recorded
// frames at population size n: I(n) = Σ_j f_j·c_j²·q_j/(1 − q_j). Its
// inverse square root is the asymptotic standard deviation of the MLE.
func (e *Estimator) FisherInfo(n float64) float64 {
	info := 0.0
	for _, fr := range e.frames {
		c := math.Log1p(-fr.p / float64(fr.f))
		q := math.Exp(n * c)
		if q >= 1 {
			q = 1 - 1e-15
		}
		info += float64(fr.f) * c * c * q / (1 - q)
	}
	return info
}

// RelHalfWidth returns the half-width of the two-sided confidence interval
// at confidence level alpha, relative to the estimate n (i.e. the β such
// that Prob{n̂(1−β) ≤ n ≤ n̂(1+β)} ≈ alpha under the asymptotic normal
// approximation). It returns +Inf when the information is degenerate.
func (e *Estimator) RelHalfWidth(n, alpha float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	info := e.FisherInfo(n)
	if info <= 0 {
		return math.Inf(1)
	}
	return zQuantile(alpha) / (n * math.Sqrt(info))
}

// zQuantile returns the two-sided standard normal quantile: the z with
// P(|N(0,1)| ≤ z) = alpha.
func zQuantile(alpha float64) float64 {
	return math.Sqrt2 * math.Erfinv(alpha)
}

// FrameSizeFor returns the single-frame size needed to meet the accuracy
// requirement Prob{n̂(1−β) ≤ n ≤ n̂(1+β)} ≥ α at the optimal load ℓ = 1.59,
// using the delta-method variance Var(n̂)/n² = (e^ℓ − ℓ − 1)/(f·ℓ²).
//
// For α = 95%, β = 5% this yields f ≈ 1406; the paper quotes 1671 from
// [28], whose variance bound is slightly more conservative. The experiment
// harness uses the paper's literal value (PaperFrameSize) when reproducing
// §VI so that the comparison is parameter-for-parameter.
func FrameSizeFor(beta, alpha float64) (int, error) {
	if beta <= 0 || beta >= 1 || alpha <= 0 || alpha >= 1 {
		return 0, fmt.Errorf("gmle: beta %v and alpha %v must lie in (0,1)", beta, alpha)
	}
	z := zQuantile(alpha)
	l := OptimalLoad
	varFactor := math.Exp(l) - l - 1
	f := z * z * varFactor / (beta * beta * l * l)
	return int(math.Ceil(f)), nil
}

// SamplingFor returns the participation probability that puts the frame at
// the optimal load for an (estimated) population of n tags, clamped to 1.
func SamplingFor(frameSize int, n float64) float64 {
	if n <= 0 {
		return 1
	}
	p := OptimalLoad * float64(frameSize) / n
	if p > 1 {
		return 1
	}
	return p
}
