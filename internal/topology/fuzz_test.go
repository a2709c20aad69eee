package topology_test

import (
	"math/bits"
	"slices"
	"testing"

	"netags/internal/geom"
	"netags/internal/simtest"
	"netags/internal/topology"
)

// FuzzTopologyTiers feeds arbitrary byte-derived deployments to the
// grid-accelerated tier builder and checks it against simtest's O(n²)
// brute-force oracle. The grid index is the one piece of the topology layer
// with real room for cell-boundary bugs, and every protocol result rests on
// the tiers it produces.
func FuzzTopologyTiers(f *testing.F) {
	f.Add([]byte{128, 128, 200, 128, 60, 128, 128, 200}, uint64(0))
	f.Add([]byte{0, 0, 255, 255, 0, 255, 255, 0, 128, 128}, uint64(0x1234567))
	f.Add([]byte{140, 128, 152, 128, 164, 128, 176, 128, 188, 128}, uint64(31))
	// 140 tags in an 8 × 2 m strip running out from the reader, at r = 1.5,
	// r' = 2 and R = 10: rows that span two mask words and tiers whose
	// frontier spans several.
	var strip []byte
	for v := byte(1); len(strip) < 280; {
		v = v*73 + 41 // full-period LCG mod 256
		if len(strip)%2 == 0 {
			strip = append(strip, 128+v%33)
		} else {
			strip = append(strip, 124+v%9)
		}
	}
	f.Add(strip, uint64(0x1000c))
	f.Fuzz(func(t *testing.T, raw []byte, rangeBits uint64) {
		if len(raw) < 2 {
			return
		}
		if len(raw) > 288 {
			raw = raw[:288] // ≤ 144 tags: past two mask words, and the quadratic oracle stays cheap
		}
		// Each coordinate byte maps to [-32, 31.75]: dense enough around the
		// ranges below that every tier relation is exercised.
		coord := func(b byte) float64 { return (float64(b) - 128) / 4 }
		d := &geom.Deployment{
			Readers: []geom.Point{{}},
			Radius:  64,
		}
		for i := 0; i+1 < len(raw); i += 2 {
			d.Tags = append(d.Tags, geom.Point{X: coord(raw[i]), Y: coord(raw[i+1])})
		}
		rg := topology.Ranges{
			ReaderToTag: 2 + float64(rangeBits%29),
			TagToTag:    0.5 + float64((rangeBits>>16)%12),
		}
		rg.TagToReader = rg.ReaderToTag * (0.2 + float64((rangeBits>>8)%64)/80)
		if rg.Validate() != nil {
			return
		}

		nw, err := topology.Build(d, 0, rg)
		if err != nil {
			t.Fatalf("build rejected a validated input: %v", err)
		}
		want := simtest.BruteTiers(d, 0, rg, nil)
		maxTier, reach := 0, 0
		for i, tier := range want {
			if nw.Tier[i] != tier {
				t.Fatalf("tag %d at %+v: tier %d, brute force says %d (ranges %+v)",
					i, d.Tags[i], nw.Tier[i], tier, rg)
			}
			if int(tier) > maxTier {
				maxTier = int(tier)
			}
			if tier > 0 {
				reach++
			}
		}
		if nw.K != maxTier || nw.Reachable != reach {
			t.Fatalf("summary K=%d Reachable=%d, brute force says %d/%d", nw.K, nw.Reachable, maxTier, reach)
		}
	})
}

// FuzzTopologyAdjacency checks the position numbering (checkNumbering), the
// mask CSR's structure (checkMasks) and every tag's neighbour list, order included, against the two-pass builder
// (topology.TwoPassAdjacency) over byte-derived deployments with zero to
// two walls. Neighbour order sets the lossy channel's per-pair draw order
// and SICP's parent adoption, so a builder that finds the right neighbours
// in another order still changes results.
func FuzzTopologyAdjacency(f *testing.F) {
	// raw[0]%3 walls of four bytes each, then one (x, y) byte pair per tag;
	// bits 16–21 of rangeBits pick r = 0.25 … 16 m.
	f.Add([]byte{0, 128, 128, 148, 128, 108, 128, 128, 148}, uint64(0x80000))
	// The geom.Blocked direction regression: a = (19, 12)·0.1 and
	// b = (9, 2)·0.1 under the wall (11, 4)·0.1–(16, 29)·0.1.
	f.Add([]byte{1, 139, 132, 144, 157, 147, 140, 137, 130}, uint64(0x80000))
	// 40 tags packed into a 2 m square over 3×3 cells of r = 0.75 m, with
	// a wall across it: long lists that mix own-row and next-row windows.
	blob := []byte{1, 118, 120, 138, 136}
	for v := byte(1); len(blob) < 85; {
		v = v*73 + 41 // full-period LCG mod 256
		blob = append(blob, 118+v%21)
	}
	f.Add(blob, uint64(0x20000))
	// 140 tags in the same square with no wall: rows that span three mask
	// words.
	blob = []byte{0}
	for v := byte(1); len(blob) < 281; {
		v = v*73 + 41
		blob = append(blob, 118+v%21)
	}
	f.Add(blob, uint64(0x20000))
	f.Fuzz(func(t *testing.T, raw []byte, rangeBits uint64) {
		if len(raw) < 1 {
			return
		}
		if len(raw) > 297 {
			raw = raw[:297] // ≤ 148 tags: past two mask words, and the oracle stays cheap
		}
		// Coordinates step by 0.1 m over [-12.8, 12.7]: 0.1 is inexact in
		// binary, so cross products round and near-collinear walls can
		// expose a direction-dependent Blocked; ties in distance stay
		// common.
		step := 0.1
		coord := func(b byte) float64 { return float64(int(b)-128) * step }
		var walls []geom.Segment
		nwalls := int(raw[0] % 3)
		raw = raw[1:]
		for ; nwalls > 0 && len(raw) >= 4; nwalls-- {
			walls = append(walls, geom.Segment{
				A: geom.Point{X: coord(raw[0]), Y: coord(raw[1])},
				B: geom.Point{X: coord(raw[2]), Y: coord(raw[3])},
			})
			raw = raw[4:]
		}
		d := &geom.Deployment{Readers: []geom.Point{{}}, Radius: 64}
		for i := 0; i+1 < len(raw); i += 2 {
			d.Tags = append(d.Tags, geom.Point{X: coord(raw[i]), Y: coord(raw[i+1])})
		}
		rg := topology.PaperRanges(0.25 + float64((rangeBits>>16)%64)/4)
		nw, err := topology.BuildObstructed(d, 0, rg, walls)
		if err != nil {
			t.Fatalf("build rejected a valid input: %v", err)
		}
		checkNumbering(t, nw)
		checkMasks(t, nw, true)
		ref := topology.TwoPassAdjacency(nw)
		checkMasks(t, ref, false)
		for i := range d.Tags {
			if got, want := nw.Neighbors(i), ref.Neighbors(i); !slices.Equal(got, want) {
				t.Fatalf("tag %d at %+v: neighbours %v, two-pass builder says %v (r=%v, walls %+v)",
					i, d.Tags[i], got, want, rg.TagToTag, walls)
			}
		}
	})
}

// checkNumbering fails unless Order and Rank are inverse permutations of
// the tags, every row is strictly ascending, PosTier is Tier renumbered,
// and Neighbors is each tag's row mapped back through Order.
func checkNumbering(t *testing.T, nw *topology.Network) {
	t.Helper()
	order, rank := nw.Order(), nw.Rank()
	if len(order) != nw.N() || len(rank) != nw.N() || len(nw.PosTier()) != nw.N() {
		t.Fatalf("%d tags but order/rank/tier lengths %d/%d/%d", nw.N(), len(order), len(rank), len(nw.PosTier()))
	}
	for k, i := range order {
		if i < 0 || int(i) >= nw.N() || rank[i] != int32(k) {
			t.Fatalf("order[%d] = %d but its rank is not %d", k, i, k)
		}
		if nw.PosTier()[k] != nw.Tier[i] {
			t.Fatalf("position %d: tier %d, tag %d has tier %d", k, nw.PosTier()[k], i, nw.Tier[i])
		}
		row := nw.Row(k)
		for j := 1; j < len(row); j++ {
			if row[j-1] >= row[j] {
				t.Fatalf("row %d not strictly ascending: %v", k, row)
			}
		}
		mapped := make([]int32, len(row))
		for j, v := range row {
			mapped[j] = order[v]
		}
		if got := nw.Neighbors(int(i)); !slices.Equal(got, mapped) {
			t.Fatalf("tag %d: Neighbors %v, its row maps to %v", i, got, mapped)
		}
	}
}

// checkMasks fails unless nw's mask CSR is well formed: no mask is empty,
// holds a position past the last tag, or holds its own row's bit; every bit
// has its twin in the other row; and Degree counts Neighbors. With
// ascending set, as for built rows, each row's words must also strictly
// ascend: one mask per word.
func checkMasks(t *testing.T, nw *topology.Network, ascending bool) {
	t.Helper()
	// adj is the rows as one dense bit matrix, so that looking up a bit's
	// twin costs the same however many masks a row has.
	words := (nw.N() + 63) / 64
	adj := make([]uint64, nw.N()*words)
	for k := 0; k < nw.N(); k++ {
		for _, m := range nw.Masks(k) {
			if int(m.Word) < words {
				adj[k*words+int(m.Word)] |= m.Bits
			}
		}
	}
	has := func(k, v int) bool { return adj[k*words+v>>6]>>(uint(v)&63)&1 != 0 }
	for k := 0; k < nw.N(); k++ {
		row := nw.Masks(k)
		for j, m := range row {
			if m.Bits == 0 {
				t.Fatalf("row %d: empty mask %d of %+v", k, j, row)
			}
			if ascending && j > 0 && row[j-1].Word >= m.Word {
				t.Fatalf("row %d: words not strictly ascending: %+v", k, row)
			}
			for b := m.Bits; b != 0; b &= b - 1 {
				v := int(m.Word)<<6 + bits.TrailingZeros64(b)
				switch {
				case v >= nw.N():
					t.Fatalf("row %d: position %d past the last tag", k, v)
				case v == k:
					t.Fatalf("row %d: self bit", k)
				case !has(v, k):
					t.Fatalf("row %d holds %d, but row %d lacks %d", k, v, v, k)
				}
			}
		}
		if i := int(nw.Order()[k]); nw.Degree(i) != len(nw.Neighbors(i)) {
			t.Fatalf("tag %d: degree %d, %d neighbours", i, nw.Degree(i), len(nw.Neighbors(i)))
		}
	}
}
