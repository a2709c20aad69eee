// Package topology turns a deployment of state-free tags into the network
// structure the protocols run over: the tag↔tag neighbor graph, the per-tag
// tier (minimum hop distance to the reader, §III-C), and reachability.
//
// "State-free" means the tags themselves never hold this structure — it is
// purely a property of where they stand. The simulator computes it once per
// deployment so that it can deliver transmissions to the right listeners;
// the protocols under test never read it except through the air.
package topology

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"netags/internal/geom"
)

// Ranges bundles the three communication ranges of the asymmetric link model
// (§III-A): the reader reaches every tag in one hop, tags reach the reader
// only from nearby, and tag↔tag links are shortest of all.
type Ranges struct {
	// ReaderToTag (R) is how far the reader's broadcast carries.
	ReaderToTag float64
	// TagToReader (r') is how close a tag must be for the reader to sense
	// its transmission.
	TagToReader float64
	// TagToTag (r) is the peer-to-peer range between tags.
	TagToTag float64
}

// PaperRanges returns the §VI-A setting: R = 30 m, r' = 20 m, with the given
// inter-tag range r.
func PaperRanges(r float64) Ranges {
	return Ranges{ReaderToTag: 30, TagToReader: 20, TagToTag: r}
}

// Validate reports whether the ranges are physically meaningful under the
// paper's model (R ≥ r', all positive and finite). NaN fails every check.
func (rg Ranges) Validate() error {
	for _, x := range [...]float64{rg.ReaderToTag, rg.TagToReader, rg.TagToTag} {
		if !(x > 0 && x <= math.MaxFloat64) {
			return fmt.Errorf("topology: ranges must be positive and finite, got %+v", rg)
		}
	}
	if rg.ReaderToTag < rg.TagToReader {
		return fmt.Errorf("topology: reader-to-tag range %v below tag-to-reader range %v",
			rg.ReaderToTag, rg.TagToReader)
	}
	return nil
}

// EstimatedTiers is the reader's a-priori tier estimate 1 + ⌈(R−r')/r⌉ used
// to size the checking frame (§III-E).
func (rg Ranges) EstimatedTiers() int {
	return 1 + int(math.Ceil((rg.ReaderToTag-rg.TagToReader)/rg.TagToTag))
}

// CheckingFrameLen is L_c = 2 × (1 + ⌈(R−r')/r⌉) from §III-E.
func (rg Ranges) CheckingFrameLen() int {
	return 2 * rg.EstimatedTiers()
}

// Mask is one word of a row: bit j of Bits stands for the tag at position
// Word*64+j.
type Mask struct {
	Word int32
	Bits uint64
}

// Network is the derived structure for one reader over one deployment.
//
// Adjacency is stored once, as a compressed sparse row of masks over
// positions: the tags renumbered in the cell-sorted order the builder
// computes, so that tags near each other in space sit near each other in
// memory. Position k holds tag order[k] and tag i sits at position rank[i];
// row k, masks[moff[k]:moff[k+1]], holds the positions adjacent to k, one
// mask per word they occupy, in ascending word order. A row's bits taken in
// ascending order are its neighbours in ascending position: the row order
// every neighbour walk follows. The kernels (the CCM session, SICP, the tier
// BFS) OR or walk those masks and index their own per-tag state by position;
// everything a caller sees (Tier, Neighbors, results) keeps the original tag
// indices.
type Network struct {
	Deployment *geom.Deployment
	Ranges     Ranges
	// Reader is the position of the reader this network is rooted at.
	Reader geom.Point

	// Obstacles are wall segments that block the weak, tag-originated
	// links (tag↔tag and tag→reader). The reader's high-power broadcast
	// penetrates them (§III-A's asymmetric links), so the field of view is
	// unaffected.
	Obstacles []geom.Segment

	moff  []int32
	masks []Mask
	order []int32
	rank  []int32
	// posTier[k] is Tier[order[k]].
	posTier []int16

	// Tier[i] is tag i's tier: 1 for direct reader contact, k for k-hop
	// paths, 0 for tags that cannot reach the reader at all.
	Tier []int16
	// K is the maximum tier among reachable tags (the K of §IV-C).
	K int
	// Reachable is the number of tags with Tier > 0.
	Reachable int
}

// Build computes the network for the reader at d.Readers[readerIdx].
func Build(d *geom.Deployment, readerIdx int, rg Ranges) (*Network, error) {
	return BuildObstructed(d, readerIdx, rg, nil)
}

// BuildObstructed is Build with wall segments that block tag-originated
// links — the paper's motivating scenario of obstacles carving holes into a
// reader's direct coverage, which multi-hop relaying then routes around.
func BuildObstructed(d *geom.Deployment, readerIdx int, rg Ranges, obstacles []geom.Segment) (*Network, error) {
	if readerIdx < 0 || readerIdx >= len(d.Readers) {
		return nil, fmt.Errorf("topology: reader index %d out of range [0,%d)", readerIdx, len(d.Readers))
	}
	shared, err := buildShared(d, rg, obstacles)
	if err != nil {
		return nil, err
	}
	return shared.withReader(d.Readers[readerIdx]), nil
}

// BuildReaders computes the network of every reader in d.Readers, in that
// order, each the network BuildObstructed returns for it. The adjacency
// (the row masks and the position numbering) depends on the tags, the
// tag-to-tag range and the walls but not on the reader, so it is built
// once and the networks share it; each computes its own tiers.
func BuildReaders(d *geom.Deployment, rg Ranges, obstacles []geom.Segment) ([]*Network, error) {
	shared, err := buildShared(d, rg, obstacles)
	if err != nil {
		return nil, err
	}
	nets := make([]*Network, len(d.Readers))
	for ri, p := range d.Readers {
		nets[ri] = shared.withReader(p)
	}
	return nets, nil
}

// buildShared validates rg and builds the reader-independent part of a
// network: its adjacency. Reader and tiers are left unset.
func buildShared(d *geom.Deployment, rg Ranges, obstacles []geom.Segment) (Network, error) {
	if err := rg.Validate(); err != nil {
		return Network{}, err
	}
	nw := Network{Deployment: d, Ranges: rg, Obstacles: obstacles}
	nw.buildAdjacency()
	return nw, nil
}

// withReader returns a copy of nw, sharing its adjacency, rooted at the
// reader at p, with its tiers computed.
func (nw Network) withReader(p geom.Point) *Network {
	nw.Reader = p
	nw.computeTiers()
	return &nw
}

// Neighbors returns the indices of tags within TagToTag range of tag i, in
// ascending order of their positions — the order every neighbour walk
// visits them in. It decodes a fresh copy from the tag's row, for tests and
// cold paths; kernels walk Masks instead.
func (nw *Network) Neighbors(i int) []int32 {
	out := nw.Row(int(nw.rank[i]))
	for j, k := range out {
		out[j] = nw.order[k]
	}
	return out
}

// Degree returns the number of neighbors of tag i.
func (nw *Network) Degree(i int) int {
	d := 0
	for _, m := range nw.Masks(int(nw.rank[i])) {
		d += bits.OnesCount64(m.Bits)
	}
	return d
}

// Masks returns row k: the positions adjacent to position k, as masks in
// row order. The slice aliases internal storage and must not be modified.
func (nw *Network) Masks(k int) []Mask {
	return nw.masks[nw.moff[k]:nw.moff[k+1]]
}

// Row returns the positions adjacent to position k in row order, decoded
// into a fresh slice from its masks. It is for tests and cold paths.
func (nw *Network) Row(k int) []int32 {
	var row []int32
	for _, m := range nw.Masks(k) {
		for b := m.Bits; b != 0; b &= b - 1 {
			row = append(row, m.Word<<6+int32(bits.TrailingZeros64(b)))
		}
	}
	return row
}

// Order returns the position → tag index permutation: position k holds tag
// Order()[k]. The slice aliases internal storage and must not be modified.
func (nw *Network) Order() []int32 { return nw.order }

// Rank returns the tag index → position permutation, the inverse of Order.
// The slice aliases internal storage and must not be modified.
func (nw *Network) Rank() []int32 { return nw.rank }

// PosTier returns the tiers indexed by position: PosTier()[k] is
// Tier[Order()[k]]. The slice aliases internal storage and must not be
// modified.
func (nw *Network) PosTier() []int16 { return nw.posTier }

// N returns the number of tags (including unreachable ones).
func (nw *Network) N() int { return len(nw.Tier) }

// buildAdjacency fills the mask CSR in one half-stencil pass over a uniform
// grid whose cells are TagToTag wide (wider only where that grid would
// exceed max(4n, 2^16) cells), testing each candidate pair exactly once.
//
// Tags are counting-sorted into cells, row-major by cell id and by tag index
// within a cell; position k in that order holds tag order[k], with its
// coordinates at xs[k], ys[k], and numbers the CSR. Row k is k's neighbours
// ascending, so mapped through order a tag's neighbour list comes out
// sorted by position. The session's lossy draw order and SICP's parent
// adoption depend on that sequence, so it is part of the contract.
//
// The tag at k is tested against the rest of its own cell and the four
// forward cells c+1, c+cols−1, c+cols and c+cols+1, i.e. against later
// positions only; the backward half of the 3×3 stencil is covered when the
// earlier tag is visited. Because cells c and c+1 are adjacent in k, as are
// the three cells of the next row, those candidates form just two contiguous
// k windows. A link needs Dist2 ≤ r² and an unblocked path, both symmetric
// in their endpoints, so one test per pair decides the link both ways.
//
// Before any test each row gets room for one mask per word that its cell's
// bands (cells cx−1 … cx+1 of the previous, own and next cell rows) touch,
// which bounds its masks. The rows are then built a block of 64 positions
// (one mask word) at a time. Each window is cut at word boundaries and each
// piece tested by hits, which returns the piece's hits as one row mask: k's
// forward masks, ascending. Every forward mask (w, bits) of row k is also
// ORed into the block's tile for word w, at row k&63. Once the block's rows
// are tested, each tile is transposed as a 64×64 bit matrix, so that its
// row j&63 is row j's backward mask at the block's word, and written to the
// end of row j's room: one write per tile row, instead of one per hit. Every
// backward neighbour of a row sits in its block or an earlier one, so after
// the block's tiles the block's rows are complete: each row's backward
// masks, in block order, are ascending and end at or below its own word,
// where its forward masks start. They move down to close the gap the unused
// room left, followed by the forward masks, merged where both hold the own
// word. A row never reaches row k+1's room, which starts past k's.
func (nw *Network) buildAdjacency() {
	tags := nw.Deployment.Tags
	n := len(tags)
	nw.moff = make([]int32, n+1)
	if n == 0 {
		return
	}
	r := nw.Ranges.TagToTag
	r2 := r * r
	obstacles := nw.Obstacles
	walled := len(obstacles) > 0

	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range tags {
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	// Cells are TagToTag wide unless that grid would dwarf the population:
	// a tiny r or a huge extent asks for up to billions of cells, each of
	// which is allocated and visited. Past maxCells the edge widens until
	// the grid fits; cells wider than r keep the half-stencil exact, with
	// more candidates per cell.
	cell := r
	w, h := maxX-minX, maxY-minY
	if maxCells := float64(max(4*n, 1<<16)); (w/cell+1)*(h/cell+1) > maxCells {
		cell = max(w, h) / (math.Sqrt(maxCells) - 1)
	}
	cols := int(w/cell) + 1
	rows := int(h/cell) + 1

	// Counting sort: cellStart[c] is first the occupancy of cell c, then its
	// end, and after the descending placement its start (cellStart[c+1] is
	// its end). Placing tags from the highest index down keeps each cell's
	// members in ascending tag index.
	cellOf := make([]int32, n)
	cellStart := make([]int32, cols*rows+1)
	for i, p := range tags {
		cx := min(int((p.X-minX)/cell), cols-1) // min guards the topmost
		cy := min(int((p.Y-minY)/cell), rows-1) // boundary points
		c := int32(cy*cols + cx)
		cellOf[i] = c
		cellStart[c]++
	}
	for c := 1; c < len(cellStart); c++ {
		cellStart[c] += cellStart[c-1]
	}
	order := make([]int32, n)
	coords := make([]float64, 2*n)
	xs, ys := coords[:n], coords[n:]
	for i := n - 1; i >= 0; i-- {
		c := cellOf[i]
		cellStart[c]--
		k := cellStart[c]
		order[k] = int32(i)
		xs[k], ys[k] = tags[i].X, tags[i].Y
	}
	nw.order = order

	// band returns the positions of cells cx−1 … cx+1 in cell row cy,
	// clipped at the grid's edges, and nothing outside the grid. A tag at k
	// in cell (cx, cy) is tested against two windows: its own row's band
	// past k, and the next row's band.
	band := func(cx, cy int) (lo, hi int32) {
		if cy < 0 || cy >= rows {
			return 0, 0
		}
		c := cy*cols + cx
		lo, hi = cellStart[c], cellStart[c+1]
		if cx > 0 {
			lo = cellStart[c-1]
		}
		if cx+1 < cols {
			hi = cellStart[c+2]
		}
		return lo, hi
	}
	// spanned is the number of mask words the positions [lo, hi) touch.
	spanned := func(lo, hi int32) int32 {
		if lo == hi {
			return 0
		}
		return (hi-1)>>6 - lo>>6 + 1
	}
	// Give each row room for its masks: one per word that its cell's bands
	// in the previous, own and next cell rows touch. maxWords is the most
	// any row gets, and reach the most words any row's windows run past
	// its own.
	moff := nw.moff
	var room, maxWords, reach int32
	for cy := 0; cy < rows; cy++ {
		for cx := 0; cx < cols; cx++ {
			c := cy*cols + cx
			s, e := cellStart[c], cellStart[c+1]
			if s == e {
				continue
			}
			rowLo, rowEnd := band(cx, cy)
			nextLo, nextHi := band(cx, cy+1)
			words := spanned(band(cx, cy-1)) + spanned(rowLo, rowEnd) + spanned(nextLo, nextHi)
			maxWords = max(maxWords, words)
			reach = max(reach, (max(rowEnd, nextHi)-1)>>6-s>>6)
			for k := s; k < e; k++ {
				moff[k] = room
				room += words
			}
		}
	}
	moff[n] = room

	// moff[k] is row k's room until the row moves down to out, then its
	// final offset; next[k] is where row k's next backward mask goes.
	masks := make([]Mask, room)
	next := cellOf // dead since the counting sort
	copy(next, moff[:n])
	// tiles[w-kw] is the block's tile for word w: row k&63 of its bits
	// holds row k's forward mask at word w, and filled ORs those rows, so
	// its bits are the rows the transposed tile fills. touched lists the
	// tiles with any. fwd holds the block's forward masks, row after row,
	// row k's ending at fend[k&63].
	type tile struct {
		bits   [64]uint64
		filled uint64
	}
	tiles := make([]tile, reach+1)
	touched := make([]int32, 0, reach+1)
	fwd := make([]Mask, 0, 64*maxWords)
	var fend [64]int32
	out := int32(0)
	c, cellEnd := -1, int32(0)
	var rowEnd, nextLo, nextHi int32
	for b0 := int32(0); b0 < int32(n); b0 += 64 {
		b1 := min(b0+64, int32(n))
		kw := b0 >> 6
		fwd = fwd[:0]
		for k := b0; k < b1; k++ {
			if k == cellEnd { // k opens the next occupied cell
				for c++; cellStart[c+1] == k; c++ {
				}
				cellEnd = cellStart[c+1]
				_, rowEnd = band(c%cols, c/cols)
				nextLo, nextHi = band(c%cols, c/cols+1)
			}
			px, py := xs[k], ys[k]
			first := len(fwd)
			for _, win := range [2][2]int32{{k + 1, rowEnd}, {nextLo, nextHi}} {
				for j, e := win[0], win[1]; j < e; {
					w := j >> 6
					end := min(e, w<<6+64)
					b := hits(px, py, r2, xs[j:end], ys[j:end]) << (uint(j) & 63)
					j = end
					if walled {
						p := geom.Point{X: px, Y: py}
						for m := b; m != 0; m &= m - 1 {
							v := w<<6 + int32(bits.TrailingZeros64(m))
							if geom.Blocked(obstacles, p, geom.Point{X: xs[v], Y: ys[v]}) {
								b &^= m & -m
							}
						}
					}
					if b == 0 {
						continue
					}
					// The two windows can share a word.
					if l := len(fwd) - 1; l >= first && fwd[l].Word == w {
						fwd[l].Bits |= b
					} else {
						fwd = append(fwd, Mask{w, b})
					}
					t := &tiles[w-kw]
					if t.filled == 0 {
						touched = append(touched, w-kw)
					}
					t.bits[k&63] |= b
					t.filled |= b
				}
			}
			fend[k&63] = int32(len(fwd))
		}

		for _, dw := range touched {
			t := &tiles[dw]
			transpose64(&t.bits)
			for m, base := t.filled, (kw+dw)<<6; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				j := base + int32(i)
				masks[next[j]] = Mask{kw, t.bits[i]}
				next[j]++
			}
			*t = tile{}
		}
		touched = touched[:0]

		f := int32(0)
		for k := b0; k < b1; k++ {
			lo, end := moff[k], next[k]
			moff[k] = out
			out += int32(copy(masks[out:], masks[lo:end]))
			row := fwd[f:fend[k&63]]
			f = fend[k&63]
			if len(row) > 0 && end > lo && masks[out-1].Word == row[0].Word {
				masks[out-1].Bits |= row[0].Bits
				row = row[1:]
			}
			out += int32(copy(masks[out:], row))
		}
	}
	moff[n] = out
	// The room ran about a quarter over the rows (1.17–1.25 on the paper's
	// and scale-1e5's networks); keeping only the rows trims that from the
	// network's lifetime.
	nw.masks = slices.Clone(masks[:out])

	// next is spent; its storage becomes rank.
	rank := next
	for k, i := range order {
		rank[i] = int32(k)
	}
	nw.rank = rank
}

// hits returns the candidates xs[i], ys[i] within √r2 of (px, py) as a
// mask: bit i for candidate i, for up to 64 candidates. Its tests are
// Dist2's, in Dist2's operand order.
//
// hits stays its own function: inlined into buildAdjacency, its accumulator
// no longer fits a register (go build -gcflags=-S shows it at an SP offset)
// and every candidate pays a store to the stack and a load back.
//
//go:noinline
func hits(px, py, r2 float64, xs, ys []float64) uint64 {
	ys = ys[:len(xs)]
	var acc uint64
	for i, x := range xs {
		dx, dy := px-x, py-ys[i]
		// h is 0 or 1 and the mask takes it unconditionally: about a third
		// of candidates hit, too irregular for a branch to predict.
		var h uint64
		if dx*dx+dy*dy <= r2 {
			h = 1
		}
		acc |= h << (uint(i) & 63)
	}
	return acc
}

// transpose64 transposes a as a 64×64 bit matrix: afterwards bit i of a[j]
// is what bit j of a[i] was. Stage j (32, 16, …, 1) swaps, in each pair of
// rows k and k+j with bit j of k clear, the bits of k's columns c+j with
// those of k+j's columns c, for every c with bit j clear: 32 masked swaps.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000ffffffff)
	for j := uint(32); j != 0; j, m = j>>1, m^m<<(j>>1) {
		// The masks only spare the compiler its bounds and shift checks.
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>(j&63) ^ a[(k+j)&63]) & m
			a[(k+j)&63] ^= t
			a[k] ^= t << (j & 63)
		}
	}
}

// computeTiers runs a BFS from the tier-1 set (tags within TagToReader of
// the reader). A tag is in the system only if it is also inside the
// reader's broadcast range: CCM tags must hear the one-hop request and
// indicator-vector broadcasts (§III-A), so a tag beyond ReaderToTag cannot
// participate no matter how well it is relay-connected.
//
// The BFS runs over positions, a tier at a time, on bitsets: the frontier's
// row masks are ORed into next, and the words they touched, less the closed
// tags (already tiered, or out of the field of view), are the next
// frontier. Tiers are hop distances, so the numbering does not change them.
// One scatter then fills Tier.
func (nw *Network) computeTiers() {
	tags := nw.Deployment.Tags
	n := len(tags)
	tier := make([]int16, n)
	words := (n + 63) / 64
	closed := make([]uint64, words)
	next := make([]uint64, words) // all-zero between tiers
	// A tier holds each word at most once.
	frontier, grown := make([]Mask, 0, words), make([]Mask, 0, words)
	touched := make([]int32, 0, words)
	r1 := nw.Ranges.TagToReader
	rb := nw.Ranges.ReaderToTag
	for k, i := range nw.order {
		p := tags[i]
		d := p.Dist(nw.Reader)
		w, b := int32(k>>6), uint64(1)<<(uint(k)&63)
		// Tier 1 needs the weak tag→reader link, which obstacles block;
		// the field of view (reader's high-power broadcast) is unaffected.
		if d > rb {
			closed[w] |= b
		} else if d <= r1 && !geom.Blocked(nw.Obstacles, p, nw.Reader) {
			tier[k] = 1
			closed[w] |= b
			if l := len(frontier) - 1; l >= 0 && frontier[l].Word == w {
				frontier[l].Bits |= b
			} else {
				frontier = append(frontier, Mask{w, b})
			}
			nw.Reachable++
		}
	}
	t := int16(1)
	for ; len(frontier) > 0; t++ {
		touched = touched[:0]
		for _, f := range frontier {
			for b := f.Bits; b != 0; b &= b - 1 {
				for _, m := range nw.Masks(int(f.Word<<6) + bits.TrailingZeros64(b)) {
					if next[m.Word] == 0 {
						touched = append(touched, m.Word)
					}
					next[m.Word] |= m.Bits
				}
			}
		}
		grown = grown[:0]
		for _, w := range touched {
			b := next[w] &^ closed[w]
			next[w] = 0
			if b == 0 {
				continue
			}
			closed[w] |= b
			grown = append(grown, Mask{w, b})
			nw.Reachable += bits.OnesCount64(b)
			for ; b != 0; b &= b - 1 {
				tier[w<<6+int32(bits.TrailingZeros64(b))] = t + 1
			}
		}
		frontier, grown = grown, frontier
	}
	nw.K = int(t - 1)
	nw.posTier = tier
	nw.Tier = make([]int16, n)
	for k, i := range nw.order {
		nw.Tier[i] = tier[k]
	}
}
