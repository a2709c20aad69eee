package topology_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"netags/internal/geom"
	"netags/internal/prng"
	"netags/internal/simtest"
	"netags/internal/topology"
)

// checkSymmetric fails unless every link i→j has its j→i twin.
func checkSymmetric(t *testing.T, nw *topology.Network) {
	t.Helper()
	for i := 0; i < nw.N(); i++ {
		for _, j := range nw.Neighbors(i) {
			if !slices.Contains(nw.Neighbors(int(j)), int32(i)) {
				t.Fatalf("link %d->%d not symmetric (obstacles %+v)", i, j, nw.Obstacles)
			}
		}
	}
}

// checkMatchesTwoPass fails unless both networks' mask CSRs are well formed
// and every neighbour list, order included, equals the two-pass builder's.
func checkMatchesTwoPass(t *testing.T, nw *topology.Network) {
	t.Helper()
	ref := topology.TwoPassAdjacency(nw)
	checkMasks(t, nw, true)
	checkMasks(t, ref, false)
	for i := 0; i < nw.N(); i++ {
		if got, want := nw.Neighbors(i), ref.Neighbors(i); !slices.Equal(got, want) {
			t.Fatalf("tag %d at %+v: neighbours %v, two-pass builder says %v (ranges %+v, obstacles %+v)",
				i, nw.Deployment.Tags[i], got, want, nw.Ranges, nw.Obstacles)
		}
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	d := geom.NewUniformDisk(2000, 30, 11)
	nw, err := topology.Build(d, 0, topology.PaperRanges(4))
	if err != nil {
		t.Fatal(err)
	}
	checkSymmetric(t, nw)
	// Under walls a link exists only if the path is clear both ways, which
	// geom.Blocked guarantees by being symmetric itself.
	for seed := uint64(1); seed <= 8; seed++ {
		walls := simtest.Walls(prng.New(seed), 30)
		nw, err := topology.BuildObstructed(d, 0, topology.PaperRanges(4), walls)
		if err != nil {
			t.Fatal(err)
		}
		checkSymmetric(t, nw)
	}
	// geom's direction regression: with Blocked evaluated from each end,
	// a→b was clear and b→a blocked, a one-way link.
	x := 0.1
	pair := &geom.Deployment{
		Tags:    []geom.Point{{X: 19 * x, Y: 12 * x}, {X: 9 * x, Y: 2 * x}},
		Readers: []geom.Point{{}},
		Radius:  30,
	}
	wall := []geom.Segment{{A: geom.Point{X: 11 * x, Y: 4 * x}, B: geom.Point{X: 16 * x, Y: 29 * x}}}
	nw, err = topology.BuildObstructed(pair, 0, topology.PaperRanges(4), wall)
	if err != nil {
		t.Fatal(err)
	}
	checkSymmetric(t, nw)
}

// TestAdjacencyMatchesTwoPass holds the half-stencil builder to the two-pass
// one over uniform disks at ranges from far below to far above the paper's,
// clustered layouts, and the simtest generator's scenarios (walls included).
func TestAdjacencyMatchesTwoPass(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, r := range []float64{0.7, 2, 4, 6, 10, 25} {
			t.Run(fmt.Sprintf("seed=%d/r=%g", seed, r), func(t *testing.T) {
				d := geom.NewUniformDisk(1500, 30, seed)
				if seed%2 == 0 {
					d = geom.NewClusteredDisk(1500, 30, int(seed), 2*r, seed)
				}
				var walls []geom.Segment
				if seed%3 == 0 {
					walls = simtest.Walls(prng.New(seed), 30)
				}
				nw, err := topology.BuildObstructed(d, 0, topology.PaperRanges(r), walls)
				if err != nil {
					t.Fatal(err)
				}
				checkMatchesTwoPass(t, nw)
			})
		}
	}
	for seed := uint64(0); seed < 300; seed++ {
		checkMatchesTwoPass(t, simtest.NewScenario(seed).Network)
	}
	// The paper's n = 10^4 at its ranges, where a row's windows run over
	// many 64-position blocks, and clusters dense enough that one cell
	// holds more than 128 tags, so a single cell's rows span three blocks
	// and their hits several tiles.
	for _, r := range []float64{2, 6, 10} {
		t.Run(fmt.Sprintf("paper/r=%g", r), func(t *testing.T) {
			nw, err := topology.Build(geom.NewUniformDisk(10000, 30, 1), 0, topology.PaperRanges(r))
			if err != nil {
				t.Fatal(err)
			}
			checkMatchesTwoPass(t, nw)
		})
	}
	t.Run("clustered", func(t *testing.T) {
		const r = 3
		d := geom.NewClusteredDisk(4000, 30, 4, 2, 3)
		if most := mostPerCell(d, r); most <= 128 {
			t.Fatalf("densest cell holds %d tags, want more than 128", most)
		}
		nw, err := topology.Build(d, 0, topology.PaperRanges(r))
		if err != nil {
			t.Fatal(err)
		}
		checkMatchesTwoPass(t, nw)
	})
}

// mostPerCell is the largest number of d's tags in one cell of the builder's
// grid at range r: r-wide cells from the tags' lower-left corner (r is well
// above the size where the builder would widen them).
func mostPerCell(d *geom.Deployment, r float64) int {
	minX, minY := math.Inf(1), math.Inf(1)
	for _, p := range d.Tags {
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
	}
	count := map[[2]int]int{}
	most := 0
	for _, p := range d.Tags {
		c := [2]int{int((p.X - minX) / r), int((p.Y - minY) / r)}
		count[c]++
		most = max(most, count[c])
	}
	return most
}

// BenchmarkBuildPaper times the topology build a paper trial performs:
// 10^4 tags in a 30 m disk at PaperRanges(r).
func BenchmarkBuildPaper(b *testing.B) {
	d := geom.NewUniformDisk(10000, 30, 1)
	for _, r := range []float64{2, 6, 10} {
		b.Run(fmt.Sprintf("r=%g", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := topology.Build(d, 0, topology.PaperRanges(r)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildN1e5 times the build of a scale-1e5 survey: 10^5 tags at the
// core scale benchmarks' density (radius 300·√0.1 m, R = radius,
// r′ = radius − 20, r = 2).
func BenchmarkBuildN1e5(b *testing.B) {
	radius := 300 * math.Sqrt(0.1)
	d := geom.NewUniformDisk(100000, radius, 1)
	rg := topology.Ranges{ReaderToTag: radius, TagToReader: radius - 20, TagToTag: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topology.Build(d, 0, rg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildGridBounded: the cell grid is sized from the deployment's extent
// over r, so a tiny r or a huge extent used to ask for billions of cells
// (r = 1e-7 over the paper's disk made makeslice panic). The grid is now
// bounded linearly in n; both extremes build in a few megabytes, with every
// neighbour list still matching brute force.
func TestBuildGridBounded(t *testing.T) {
	far := &geom.Deployment{Readers: []geom.Point{{}}, Radius: 1e12}
	rng := prng.New(7)
	for i := 0; i < 200; i++ {
		// Two clumps 10^12 m apart: linked within, never across.
		off := float64(i%2) * 1e12
		far.Tags = append(far.Tags, geom.Point{X: off + rng.Float64()*4, Y: rng.Float64() * 4})
	}
	for _, tc := range []struct {
		name string
		d    *geom.Deployment
		r    float64
	}{
		{"tiny r", geom.NewUniformDisk(300, 30, 1), 1e-7},
		{"huge extent", far, 1},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		nw, err := topology.Build(tc.d, 0, topology.PaperRanges(tc.r))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
			t.Errorf("%s: build allocated %d bytes", tc.name, alloc)
		}
		links := 0
		for i, p := range tc.d.Tags {
			var want []int32
			for j, q := range tc.d.Tags {
				if j != i && p.Dist2(q) <= tc.r*tc.r {
					want = append(want, int32(j))
				}
			}
			got := slices.Clone(nw.Neighbors(i))
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: tag %d neighbours %v, brute force %v", tc.name, i, got, want)
			}
			links += len(got)
		}
		if tc.name == "huge extent" && links == 0 {
			t.Errorf("%s: no links inside the clumps", tc.name)
		}
	}
}
