package main

import (
	"math"
	"slices"
)

// mannWhitney runs the two-sided Mann–Whitney U test on samples x and y and
// returns U for x (the number of pairs with x > y, ties counting one half)
// and the p-value of the hypothesis that both come from one distribution.
// It is the rank test benchstat applies to -count samples: it assumes no
// shape, so one outlier run moves it far less than it moves a mean.
//
// Without ties the p-value is exact, from the distribution of U over every
// arrangement of the pooled ranks. With ties it uses the normal
// approximation with the tie-corrected variance and a continuity
// correction; when every value is tied the samples cannot be told apart
// and p = 1. Either sample empty gives NaN for both.
func mannWhitney(x, y []float64) (u, p float64) {
	n1, n2 := len(x), len(y)
	if n1 == 0 || n2 == 0 {
		return math.NaN(), math.NaN()
	}
	type obs struct {
		v   float64
		inX bool
	}
	pooled := make([]obs, 0, n1+n2)
	for _, v := range x {
		pooled = append(pooled, obs{v, true})
	}
	for _, v := range y {
		pooled = append(pooled, obs{v, false})
	}
	slices.SortFunc(pooled, func(a, b obs) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	// Rank sum of x with midranks for ties, and Σ(t³ − t) over tie groups.
	var rankSum, ties float64
	for i := 0; i < len(pooled); {
		j := i + 1
		for j < len(pooled) && pooled[j].v == pooled[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // ranks i+1 … j
		for _, o := range pooled[i:j] {
			if o.inX {
				rankSum += mid
			}
		}
		t := float64(j - i)
		ties += t*t*t - t
		i = j
	}
	u = rankSum - float64(n1*(n1+1))/2

	if ties == 0 {
		return u, exactUPValue(n1, n2, u)
	}
	n := float64(n1 + n2)
	mean := float64(n1*n2) / 2
	variance := float64(n1*n2) / 12 * (n + 1 - ties/(n*(n-1)))
	if variance == 0 {
		return u, 1
	}
	z := math.Max(math.Abs(u-mean)-0.5, 0) / math.Sqrt(variance)
	return u, math.Min(1, math.Erfc(z/math.Sqrt2))
}

// exactUPValue is the two-sided p-value of U = u for samples of n1 and n2
// distinct values: twice the smaller tail of U's null distribution, capped
// at 1. count[k] is the number of arrangements of the pooled ranks giving
// U = k; it follows the recurrence N(a, b, k) = N(a−1, b, k−b) + N(a, b−1, k)
// (the largest value comes from x, beating all b of y's, or from y), built
// up over a for b = 0 … n2.
func exactUPValue(n1, n2 int, u float64) float64 {
	maxU := n1 * n2
	// prev[a][k] is N(a, b−1, k) while row b is built in cur.
	prev := make([][]float64, n1+1)
	cur := make([][]float64, n1+1)
	for a := range prev {
		prev[a] = make([]float64, maxU+1)
		cur[a] = make([]float64, maxU+1)
		prev[a][0] = 1 // b = 0: one arrangement, U = 0
	}
	for b := 1; b <= n2; b++ {
		for a := 0; a <= n1; a++ {
			clear(cur[a])
			for k := 0; k <= a*b; k++ {
				v := prev[a][k]
				if a > 0 && k >= b {
					v += cur[a-1][k-b]
				}
				cur[a][k] = v
			}
		}
		prev, cur = cur, prev
	}
	count := prev[n1]
	var total, lower, upper float64
	for k, c := range count {
		total += c
		if float64(k) <= u {
			lower += c
		}
		if float64(k) >= u {
			upper += c
		}
	}
	return math.Min(1, 2*math.Min(lower, upper)/total)
}
