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
	if err := rg.Validate(); err != nil {
		return nil, err
	}
	if readerIdx < 0 || readerIdx >= len(d.Readers) {
		return nil, fmt.Errorf("topology: reader index %d out of range [0,%d)", readerIdx, len(d.Readers))
	}
	nw := &Network{
		Deployment: d,
		Ranges:     rg,
		Reader:     d.Readers[readerIdx],
		Obstacles:  obstacles,
	}
	nw.buildAdjacency()
	nw.computeTiers()
	return nw, nil
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
// coordinates at pts[k], and numbers the CSR. Row k is k's neighbours
// ascending, so mapped through order a tag's neighbour list comes out
// sorted by position. The session's lossy draw order and SICP's parent
// adoption depend on that sequence, so it is part of the contract.
//
// The tag at k is tested against the rest of its own cell and the four
// forward cells c+1, c+cols−1, c+cols and c+cols+1, i.e. against later
// positions only; the backward half of the 3×3 stencil is covered when the
// earlier tag is visited. Because cells c and c+1 are adjacent in k, as are
// the three cells of the next row, those candidates form just two contiguous
// k windows, whose hits are recorded one bit per candidate (the forward
// list, sized exactly from the cell occupancy before any test). A
// link needs Dist2 ≤ r² and an unblocked path, both symmetric in their
// endpoints, so one test per pair decides the link both ways.
//
// Before the test pass each row gets room for one mask per word that its
// cell's bands (cells cx−1 … cx+1 of the previous, own and next cell rows)
// touch, which bounds its masks. The scatter then walks the forward lists
// in ascending k. A hit
// (k, b) ORs k's bit into row b's last mask, or opens the next one when k
// starts a new word; k's own forward hits are shifted into its row a fetched
// word at a time. Every earlier neighbour of k has ORed itself in by the
// time k writes its forward hits, so each row is its backward neighbours
// followed by its forward ones: ascending, one mask per word. Row k is then
// complete and moves down to close the gap its unused room left; it never
// reaches row k+1's room, which starts past k's.
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
	pts := make([]geom.Point, n)
	for i := n - 1; i >= 0; i-- {
		c := cellOf[i]
		cellStart[c]--
		order[cellStart[c]] = int32(i)
		pts[cellStart[c]] = tags[i]
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
	// Size the forward list, and give each row room for its masks: one per
	// word that its cell's bands in the previous, own and next cell rows
	// touch.
	moff := nw.moff
	nbits := 0
	var room int32
	for cy := 0; cy < rows; cy++ {
		for cx := 0; cx < cols; cx++ {
			c := cy*cols + cx
			s, e := cellStart[c], cellStart[c+1]
			if s == e {
				continue
			}
			rowLo, rowEnd := band(cx, cy)
			nextLo, nextHi := band(cx, cy+1)
			m := int(e - s)
			// Σ over the cell's members k of (rowEnd−k−1) + (nextHi−nextLo).
			nbits += m*int(rowEnd-s) - m*(m+1)/2 + m*int(nextHi-nextLo)
			words := spanned(band(cx, cy-1)) + spanned(rowLo, rowEnd) + spanned(nextLo, nextHi)
			for k := s; k < e; k++ {
				moff[k] = room
				room += words
			}
		}
	}
	moff[n] = room
	fwd := make([]uint64, (nbits+63)/64)

	// Test pass.
	bit, word := 0, uint64(0)
	for cy := 0; cy < rows; cy++ {
		for cx := 0; cx < cols; cx++ {
			c := cy*cols + cx
			_, rowEnd := band(cx, cy)
			nextLo, nextHi := band(cx, cy+1)
			for k := cellStart[c]; k < cellStart[c+1]; k++ {
				p := pts[k]
				for _, w := range [2][2]int32{{k + 1, rowEnd}, {nextLo, nextHi}} {
					for j := w[0]; j < w[1]; j++ {
						// h is 0 or 1 and the word takes it
						// unconditionally: about a third of candidates
						// hit, too irregular for a branch to predict.
						var h uint64
						if p.Dist2(pts[j]) <= r2 {
							h = 1
						}
						if walled && h == 1 && geom.Blocked(obstacles, p, pts[j]) {
							h = 0
						}
						word |= h << (bit & 63)
						if bit++; bit&63 == 0 {
							fwd[bit>>6-1] = word
							word = 0
						}
					}
				}
			}
		}
	}
	if bit&63 != 0 {
		fwd[bit>>6] = word
	}

	// Scatter pass: last[k] indexes row k's last mask, which is still empty
	// (all-zero) until the row's first hit. moff[k] is row k's room until
	// the row moves down to out, then its final offset.
	masks := make([]Mask, room)
	last := cellOf // dead since the counting sort
	copy(last, moff[:n])
	out := int32(0)
	bit = 0
	for cy := 0; cy < rows; cy++ {
		for cx := 0; cx < cols; cx++ {
			c := cy*cols + cx
			_, rowEnd := band(cx, cy)
			nextLo, nextHi := band(cx, cy+1)
			for k := cellStart[c]; k < cellStart[c+1]; k++ {
				kw, kb := k>>6, uint64(1)<<(uint(k)&63)
				for _, w := range [2][2]int32{{k + 1, rowEnd}, {nextLo, nextHi}} {
					// Walk the window's bits a word at a time.
					for j := w[0]; j < w[1]; {
						take := min(int32(64-bit&63), w[1]-j)
						word := (fwd[bit>>6] >> (bit & 63)) & (1<<take - 1)
						if word != 0 {
							sh := uint(j) & 63
							if lo := word << sh; lo != 0 {
								orMask(masks, last, k, j>>6, lo)
							}
							if hi := word >> (64 - sh); hi != 0 {
								orMask(masks, last, k, j>>6+1, hi)
							}
							for ; word != 0; word &= word - 1 {
								orMask(masks, last, j+int32(bits.TrailingZeros64(word)), kw, kb)
							}
						}
						j += take
						bit += int(take)
					}
				}
				end := last[k]
				if masks[end].Bits != 0 {
					end++
				}
				lo := moff[k]
				moff[k] = out
				out += int32(copy(masks[out:], masks[lo:end]))
			}
		}
	}
	moff[n] = out
	// The room ran about a quarter over the rows (1.17–1.25 on the paper's
	// and scale-1e5's networks); keeping only the rows trims that from the
	// network's lifetime.
	nw.masks = slices.Clone(masks[:out])

	// last is spent; its storage becomes rank.
	rank := last
	for k, i := range order {
		rank[i] = int32(k)
	}
	nw.rank = rank
}

// orMask ORs b, bits of word w, into row k, whose last mask is masks[last[k]]:
// into that mask when it is empty or holds word w, else into the next one.
func orMask(masks []Mask, last []int32, k, w int32, b uint64) {
	m := &masks[last[k]]
	if m.Word != w && m.Bits != 0 {
		last[k]++
		m = &masks[last[k]]
	}
	m.Word = w
	m.Bits |= b
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
