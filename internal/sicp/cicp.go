package sicp

import (
	"fmt"
	"math/bits"

	"netags/internal/energy"
	"netags/internal/obs"
	"netags/internal/topology"
)

// CollectCICP runs the Contention-based ID Collection Protocol, SICP's
// sibling from [16]. The tree phase is identical; the collection phase
// replaces parent tokens with sibling contention: all children of a parent
// that still hold data contend for the channel by drawing backoff slots in
// the contention window, and when two or more draw the same minimum slot
// their ID messages collide at the parent and must be retransmitted. The
// paper notes SICP outperforms CICP; the extra collided transmissions are
// exactly why, and the benchmark suite reproduces that gap.
func CollectCICP(nw *topology.Network, opts Options) (*Result, error) {
	opts.setDefaults()
	if opts.IDs != nil && len(opts.IDs) != nw.N() {
		return nil, fmt.Errorf("sicp: %d IDs for %d tags", len(opts.IDs), nw.N())
	}
	if opts.ContentionWindow < 2 {
		return nil, fmt.Errorf("sicp: CICP needs a contention window >= 2, got %d", opts.ContentionWindow)
	}
	c := newCollector(nw, opts, obs.ProtoCICP)
	c.sessionStart()
	c.buildTree()
	c.collectContention()
	c.charge()
	c.sessionEnd()
	return c.result(), nil
}

// collectContention drains the tree bottom-up. For each parent (processed in
// post-order so children always finish before their parent contends at the
// next level), the children race: every contention round each remaining
// child draws a slot in [0, W); the holders of the minimum draw transmit,
// and unless the minimum is unique the messages collide and are retried.
func (c *collector) collectContention() {
	c.initLists()
	n := c.nw.N()
	c.active = make([]uint64, (n+63)/64)
	start := c.clock
	// Iterative post-order over the whole forest. A tag is entered as u and
	// left as ^u: on entry its slot becomes ^u with its children pushed
	// above, so every child's group races before the tag's own group.
	var stack []int32
	for _, root := range c.children(n) {
		stack = append(stack, root)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			if u >= 0 {
				stack[len(stack)-1] = ^u
				stack = append(stack, c.children(int(u))...)
				continue
			}
			stack = stack[:len(stack)-1]
			// The children of ^u race for it; ^u itself uploads once its
			// own group's turn comes, tier-1 tags forming the reader's
			// group below.
			if group := c.children(int(^u)); len(group) > 0 {
				c.race(group)
			}
		}
	}
	c.race(c.children(n))
	c.batch("collect", 1, 0, len(c.collected), start)
}

// race resolves one sibling group: members repeatedly contend until each has
// uploaded its buffer to the shared parent. The window follows binary
// exponential backoff — it doubles after every collision — because with a
// fixed small window a large sibling group (the reader can have thousands of
// tier-1 children) would collide forever. It stays at its grown size for the
// rest of the group: halving after each success would re-pay the collision
// ladder for every single upload.
func (c *collector) race(group []int32) {
	remaining := append(c.remaining[:0], group...)
	winners := c.winners[:0]
	w := c.opts.ContentionWindow
	const maxWindow = 1 << 16
	for len(remaining) > 0 {
		// Each round every remaining child draws a backoff slot; the
		// minimal draw(s) transmit first.
		minSlot := w
		winners = winners[:0]
		for _, ch := range remaining {
			d := c.src.Intn(w)
			if d < minSlot {
				minSlot, winners = d, winners[:0]
			}
			if d == minSlot {
				winners = append(winners, ch)
			}
		}
		c.clock.ShortSlots += int64(minSlot)
		if len(winners) > 1 {
			// Collision: every winner burns one full ID message that no
			// one can decode, then the round repeats with a wider window.
			for _, ch := range winners {
				c.send(ch)
			}
			if w < maxWindow {
				w *= 2
			}
			continue
		}
		ch := winners[0]
		c.uploadContended(ch)
		for i, r := range remaining {
			if r == ch {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
	}
	c.remaining, c.winners = remaining, winners
}

// uploadContended sends a child's buffer to its parent and puts it to sleep.
// There is no token (contention replaces the parent's coordination), but
// every message must be acknowledged: without an ack a contender cannot know
// whether its transmission collided, which is precisely how collisions are
// detected here.
func (c *collector) uploadContended(u int32) {
	p := c.parent[u]
	for k := int32(0); k < c.size[u]; k++ {
		c.backoff()
		c.send(u)
		if p == parentReader {
			// The reader's ack: one long slot, decoded by the uploader.
			c.clock.LongSlots++
			c.cumLong++
			c.meter.AddReceived(int(u), energy.IDBits-1)
		} else {
			c.send(p)
		}
	}
	c.deliver(u, p)
	c.sleep(u, c.live(u))
}

// send is CICP's transmit: the sender is awake and has now sent more than
// its flood message, so it joins the active set until it sleeps.
func (c *collector) send(u int32) {
	c.transmit(int(u))
	c.active[u>>6] |= 1 << (uint(u) & 63)
}

// live takes tag u out of the active set and sums, over its active
// neighbours, the messages each sent beyond its flood message: the live
// term of sleep. Unlike SICP's, it has no closed form: the active tags
// include colliding siblings and uncles that have acked their own
// children.
func (c *collector) live(u int32) int64 {
	c.active[u>>6] &^= 1 << (uint(u) & 63)
	var live int64
	for _, m := range c.nw.Masks(int(u)) {
		for b := m.Bits & c.active[m.Word]; b != 0; b &= b - 1 {
			live += int64(c.msgs[m.Word<<6+int32(bits.TrailingZeros64(b))] - 1)
		}
	}
	return live
}
