package topology

import (
	"math"

	"netags/internal/geom"
)

// TwoPassAdjacency rebuilds nw's adjacency with the builder the half-stencil
// pass replaced and returns it as a separate Network, tiers included. That
// builder scans the full 3×3 stencil from both ends of every pair, once to
// count degrees and once to fill, so it shares no pair bookkeeping with
// buildAdjacency; its neighbour lists, order included, are the oracle the
// fuzz and differential tests hold buildAdjacency to.
//
// The result is nw's identity-numbered twin: its positions are the original
// tag indices (Order and Rank are the identity), and row i lists tag i's
// neighbours in the order buildAdjacency's mapped rows must reproduce. A
// kernel run on the twin walks the same graph in the same neighbour order
// with no renumbering at all, so its output is the numbering-invariance
// oracle.
func TwoPassAdjacency(nw *Network) *Network {
	ref := &Network{
		Deployment: nw.Deployment,
		Ranges:     nw.Ranges,
		Reader:     nw.Reader,
		Obstacles:  nw.Obstacles,
	}
	ref.buildAdjacencyTwoPass()
	n := ref.Deployment.N()
	ref.order = make([]int32, n)
	ref.rank = make([]int32, n)
	for i := range ref.order {
		ref.order[i], ref.rank[i] = int32(i), int32(i)
	}
	ref.computeTiers()
	return ref
}

// buildAdjacencyTwoPass is the two-pass builder: it finds each tag's
// neighbours using a uniform grid with cell size equal to the tag-to-tag
// range, so each tag only tests the 3×3 surrounding cells, and lists them
// in int32 rows that it then emits as masks.
func (nw *Network) buildAdjacencyTwoPass() {
	tags := nw.Deployment.Tags
	n := len(tags)
	r := nw.Ranges.TagToTag
	r2 := r * r

	// Grid index: map each tag to a cell.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range tags {
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	if n == 0 {
		nw.moff = make([]int32, 1)
		return
	}
	cols := int((maxX-minX)/r) + 1
	rows := int((maxY-minY)/r) + 1
	cell := func(p geom.Point) (int, int) {
		cx := int((p.X - minX) / r)
		cy := int((p.Y - minY) / r)
		// Guard the topmost boundary points.
		if cx >= cols {
			cx = cols - 1
		}
		if cy >= rows {
			cy = rows - 1
		}
		return cx, cy
	}

	// Bucket tags per cell (counting sort into a flat slice).
	cellOf := make([]int32, n)
	cellCount := make([]int32, cols*rows+1)
	for i, p := range tags {
		cx, cy := cell(p)
		c := int32(cy*cols + cx)
		cellOf[i] = c
		cellCount[c+1]++
	}
	for c := 1; c < len(cellCount); c++ {
		cellCount[c] += cellCount[c-1]
	}
	cellStart := cellCount // renamed view: cellStart[c] .. cellStart[c+1]
	members := make([]int32, n)
	fill := make([]int32, cols*rows)
	for i := range tags {
		c := cellOf[i]
		members[cellStart[c]+fill[c]] = int32(i)
		fill[c]++
	}

	// Pass 1: degree count; pass 2: fill.
	deg := make([]int32, n)
	forEachCandidate := func(i int, fn func(j int32)) {
		p := tags[i]
		cx, cy := cell(p)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || nx >= cols || ny < 0 || ny >= rows {
					continue
				}
				c := int32(ny*cols + nx)
				for _, j := range members[cellStart[c]:cellStart[c+1]] {
					if int(j) == i {
						continue
					}
					if p.Dist2(tags[j]) <= r2 &&
						!geom.Blocked(nw.Obstacles, p, tags[j]) {
						fn(j)
					}
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		d := int32(0)
		forEachCandidate(i, func(int32) { d++ })
		deg[i] = d
	}
	offsets := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i]
	}
	adj := make([]int32, offsets[n])
	cursor := make([]int32, n)
	for i := 0; i < n; i++ {
		forEachCandidate(i, func(j int32) {
			adj[offsets[i]+cursor[i]] = j
			cursor[i]++
		})
	}

	// Emit the rows as masks, in row order: a row that goes backwards (a
	// neighbour not above every bit of the current mask) starts a new mask,
	// so a word can recur within a row and each mask's ascending bits stay
	// a run of the row.
	nw.moff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		for _, v := range adj[offsets[i]:offsets[i+1]] {
			w, b := v>>6, uint64(1)<<(uint(v)&63)
			if l := len(nw.masks) - 1; l >= int(nw.moff[i]) && nw.masks[l].Word == w && nw.masks[l].Bits < b {
				nw.masks[l].Bits |= b
			} else {
				nw.masks = append(nw.masks, Mask{w, b})
			}
		}
		nw.moff[i+1] = int32(len(nw.masks))
	}
}
