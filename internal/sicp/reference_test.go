package sicp

import (
	"fmt"

	"netags/internal/energy"
	"netags/internal/obs"
	"netags/internal/prng"
	"netags/internal/topology"
)

// This file keeps the collector that the O(messages + edges) one replaced,
// unchanged apart from its names: refCollect and refCollectCICP run it. It
// charges reception per message by walking the sender's neighbour list,
// scans all tags once per tier, walks every tag's parent chain for the tree
// depth and buffers each tag's IDs in its own slice, so it shares none of
// the production bookkeeping. Its Collected order, Clock, TreeDepth and
// per-tag Meter are the oracle TestCollectMatchesReference and FuzzSICP hold
// Collect and CollectCICP to.

// refCollect runs SICP over the network and returns the IDs gathered by the
// reader, with full time and energy accounting.
func refCollect(nw *topology.Network, opts Options) (*Result, error) {
	opts.setDefaults()
	if opts.IDs != nil && len(opts.IDs) != nw.N() {
		return nil, fmt.Errorf("sicp: %d IDs for %d tags", len(opts.IDs), nw.N())
	}
	if opts.ContentionWindow < 1 {
		return nil, fmt.Errorf("sicp: contention window %d must be >= 1", opts.ContentionWindow)
	}
	c := &refCollector{
		nw:    nw,
		opts:  opts,
		proto: obs.ProtoSICP,
		src:   prng.New(opts.Seed),
		meter: energy.NewMeter(nw.N()),
	}
	c.sessionStart()
	c.buildTree()
	c.collect()
	c.sessionEnd()
	return &Result{
		Collected: c.collected,
		Clock:     c.clock,
		Meter:     c.meter,
		TreeDepth: c.depth,
	}, nil
}

type refCollector struct {
	nw    *topology.Network
	opts  Options
	proto string // obs.ProtoSICP or obs.ProtoCICP, for event labeling
	src   *prng.Source

	meter *energy.Meter
	clock energy.Clock

	parent   []int32 // parent tag of each tag; -1 = reader, -2 = none
	children [][]int32
	order    []int32 // tier-1 tags in flood order (reader's children)
	depth    int

	asleep    []bool
	collected []uint64

	// Cumulative air-time counters for the awake-sensing charge: cumShort
	// is the total short-slot bits elapsed, cumLong the number of long
	// slots. A tag's idle-sensing cost is the delta between its sleep time
	// and its wake time (all in-system tags wake at the request).
	cumShort int64
	cumLong  int64
}

// sessionStart emits the session_start event for the run.
func (c *refCollector) sessionStart() {
	if t := c.opts.Tracer; t != nil {
		t.Trace(obs.Event{
			Kind:     obs.KindSessionStart,
			Protocol: c.proto,
			Tags:     c.nw.N(),
			Tiers:    c.nw.K,
			Seed:     c.opts.Seed,
		})
	}
}

// sessionEnd emits the session_end event; Rounds carries the tree depth
// (the protocol's analog of CCM's round count) and Count the IDs collected.
func (c *refCollector) sessionEnd() {
	if t := c.opts.Tracer; t != nil {
		sum := c.meter.Summarize(nil)
		t.Trace(obs.Event{
			Kind:        obs.KindSessionEnd,
			Protocol:    c.proto,
			Rounds:      c.depth,
			Count:       len(c.collected),
			ShortSlots:  c.clock.ShortSlots,
			LongSlots:   c.clock.LongSlots,
			AvgSentBits: sum.AvgSent,
			AvgRecvBits: sum.AvgReceived,
			MaxSentBits: sum.MaxSent,
			MaxRecvBits: sum.MaxReceived,
		})
	}
}

// batch emits one slot_batch event covering the clock interval since
// startClock: Slots is the air time consumed, Transmitters the tags that
// sent in it, Count a phase-specific progress figure.
func (c *refCollector) batch(phase string, round, transmitters, count int, startClock energy.Clock) {
	if t := c.opts.Tracer; t != nil {
		t.Trace(obs.Event{
			Kind:         obs.KindSlotBatch,
			Protocol:     c.proto,
			Phase:        phase,
			Round:        round,
			Transmitters: transmitters,
			Slots:        c.clock.Total() - startClock.Total(),
			Count:        count,
		})
	}
}

func (c *refCollector) id(i int) uint64 {
	if c.opts.IDs != nil {
		return c.opts.IDs[i]
	}
	return uint64(i) + 1
}

// backoff draws a CSMA backoff and charges it to the clock as short slots.
func (c *refCollector) backoff() {
	b := int64(c.src.Intn(c.opts.ContentionWindow))
	c.clock.ShortSlots += b
	c.cumShort += b
}

// transmit models one 96-bit message from tag u: one long slot on the air
// and 96 bits of TX energy for u. Awake neighbors decode the message; their
// 96-bit reception is charged as 95 bits here plus the 1-bit carrier-sense
// charge every awake tag pays for the slot at sleep time.
func (c *refCollector) transmit(u int) {
	c.clock.LongSlots++
	c.cumLong++
	c.meter.AddSent(u, energy.IDBits)
	for _, v := range c.nw.Neighbors(u) {
		if !c.asleep[v] {
			c.meter.AddReceived(int(v), energy.IDBits-1)
		}
	}
}

// sleep retires tag u: it stops sensing and is charged for every slot it
// stayed awake (1 bit each), minus the long slots it spent transmitting
// itself (half duplex: no reception during its own transmissions).
func (c *refCollector) sleep(u int32) {
	idle := c.cumShort + c.cumLong - c.meter.Sent(int(u))/energy.IDBits
	if idle > 0 {
		c.meter.AddReceived(int(u), idle)
	}
	c.asleep[u] = true
}

// buildTree floods the collection request tier by tier and establishes
// parent pointers. Within a tier, rebroadcast order is randomized by the
// backoff draws (CSMA), and a tag adopts the first upstream transmitter it
// heard.
func (c *refCollector) buildTree() {
	n := c.nw.N()
	c.parent = make([]int32, n)
	c.children = make([][]int32, n)
	c.asleep = make([]bool, n)
	for i := range c.parent {
		c.parent[i] = parentNone
		// Tags that cannot reach the reader never hear the request (their
		// entire neighborhood is unreachable too) and stay asleep.
		c.asleep[i] = c.nw.Tier[i] == 0
	}

	// The reader's request: one long slot, received by tier-1 tags (the
	// 96th bit of their reception comes from the carrier-sense charge at
	// sleep time, as for every decoded message).
	c.clock.LongSlots++
	c.cumLong++
	for i := 0; i < n; i++ {
		if c.nw.Tier[i] == 1 {
			c.parent[i] = parentReader
			c.meter.AddReceived(i, energy.IDBits-1)
		}
	}

	// Tier-by-tier rebroadcast: every tag forwards the request exactly once
	// after a CSMA backoff. Intra-tier order is randomized (the backoff
	// race). Each deeper tag adopts one uniformly chosen upstream neighbor
	// as parent: reception jitter decides which rebroadcast a given
	// listener locks onto first, and modeling it as a uniform choice keeps
	// the tree's branching factor realistic instead of letting the
	// globally-first transmitter of a tier claim its whole range.
	maxTier := c.nw.K
	for tier := 1; tier <= maxTier; tier++ {
		start := c.clock
		members := make([]int32, 0, 64)
		for i := 0; i < n; i++ {
			if int(c.nw.Tier[i]) == tier {
				members = append(members, int32(i))
			}
		}
		// Fisher–Yates with the run's source.
		for i := len(members) - 1; i > 0; i-- {
			j := c.src.Intn(i + 1)
			members[i], members[j] = members[j], members[i]
		}
		for _, u := range members {
			c.backoff()
			c.transmit(int(u))
		}
		c.batch("flood", tier, len(members), len(members), start)
	}
	for i := 0; i < n; i++ {
		if c.nw.Tier[i] < 2 {
			continue
		}
		upstream := make([]int32, 0, 8)
		for _, v := range c.nw.Neighbors(i) {
			if c.nw.Tier[v] == c.nw.Tier[i]-1 {
				upstream = append(upstream, v)
			}
		}
		// Reachable tags at tier ≥ 2 always have an upstream neighbor (BFS
		// invariant).
		c.parent[i] = upstream[c.src.Intn(len(upstream))]
	}

	// Materialize children lists and the reader's child order; compute
	// depth.
	for i := 0; i < n; i++ {
		switch c.parent[i] {
		case parentReader:
			c.order = append(c.order, int32(i))
		case parentNone:
			// Unreachable tag: outside the system.
		default:
			p := c.parent[i]
			c.children[p] = append(c.children[p], int32(i))
		}
	}
	for i := 0; i < n; i++ {
		if c.parent[i] == parentNone {
			continue
		}
		d := 1
		for p := c.parent[i]; p != parentReader; p = c.parent[p] {
			d++
		}
		if d > c.depth {
			c.depth = d
		}
	}
}

// collect walks the tree in post-order. Each tag uploads its subtree's IDs
// to its parent in one serialized exchange and then sleeps.
func (c *refCollector) collect() {
	// buffered[u] holds the IDs tag u must upload: its own plus everything
	// its children delivered.
	n := c.nw.N()
	buffered := make([][]uint64, n)
	for i := 0; i < n; i++ {
		if c.parent[i] != parentNone {
			buffered[i] = append(buffered[i], c.id(i))
		}
	}

	// Iterative post-order DFS (the tree can be thousands deep at small r).
	walk := func(u int32) {
		type frame struct {
			u     int32
			child int
		}
		stack := []frame{{u: u}}
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.child < len(c.children[top.u]) {
				ch := c.children[top.u][top.child]
				top.child++
				// Token from parent to child: backoff + one message.
				c.backoff()
				c.transmit(int(top.u))
				stack = append(stack, frame{u: ch})
				continue
			}
			// All children done: upload to parent, then sleep.
			c.upload(top.u, buffered)
			stack = stack[:len(stack)-1]
		}
	}
	for si, t1 := range c.order {
		// Reader children self-serialize by carrier sense: one contention
		// backoff before each subtree starts.
		start := c.clock
		collectedBefore := len(c.collected)
		c.backoff()
		walk(t1)
		c.batch("subtree", si+1, 0, len(c.collected)-collectedBefore, start)
	}
}

// upload sends tag u's buffered IDs to its parent (or the reader) and puts
// u to sleep after the closing ack.
func (c *refCollector) upload(u int32, buffered [][]uint64) {
	p := c.parent[u]
	for _, id := range buffered[u] {
		c.backoff()
		c.transmit(int(u))
		if p == parentReader {
			c.collected = append(c.collected, id)
		} else {
			buffered[p] = append(buffered[p], id)
		}
	}
	buffered[u] = nil
	// Closing ack from the parent tells it the child's subtree is complete.
	// The reader needs no ack — it is the sink and observes the data
	// directly — so its children simply sleep after their last message.
	if p != parentReader {
		c.backoff()
		c.transmit(int(p))
	}
	c.sleep(u)
}

// refCollectCICP runs the Contention-based ID Collection Protocol, SICP's
// sibling from [16]. The tree phase is identical; the collection phase
// replaces parent tokens with sibling contention: all children of a parent
// that still hold data contend for the channel by drawing backoff slots in
// the contention window, and when two or more draw the same minimum slot
// their ID messages collide at the parent and must be retransmitted. The
// paper notes SICP outperforms CICP; the extra collided transmissions are
// exactly why, and the benchmark suite reproduces that gap.
func refCollectCICP(nw *topology.Network, opts Options) (*Result, error) {
	opts.setDefaults()
	if opts.IDs != nil && len(opts.IDs) != nw.N() {
		return nil, fmt.Errorf("sicp: %d IDs for %d tags", len(opts.IDs), nw.N())
	}
	if opts.ContentionWindow < 2 {
		return nil, fmt.Errorf("sicp: CICP needs a contention window >= 2, got %d", opts.ContentionWindow)
	}
	c := &refCollector{
		nw:    nw,
		opts:  opts,
		proto: obs.ProtoCICP,
		src:   prng.New(opts.Seed),
		meter: energy.NewMeter(nw.N()),
	}
	c.sessionStart()
	c.buildTree()
	c.collectContention()
	c.sessionEnd()
	return &Result{
		Collected: c.collected,
		Clock:     c.clock,
		Meter:     c.meter,
		TreeDepth: c.depth,
	}, nil
}

// collectContention drains the tree bottom-up. For each parent (processed in
// post-order so children always finish before their parent contends at the
// next level), the children race: every contention round each remaining
// child draws a slot in [0, W); the holders of the minimum draw transmit,
// and unless the minimum is unique the messages collide and are retried.
func (c *refCollector) collectContention() {
	n := c.nw.N()
	buffered := make([][]uint64, n)
	for i := 0; i < n; i++ {
		if c.parent[i] != parentNone {
			buffered[i] = append(buffered[i], c.id(i))
		}
	}

	// Post-order over the whole forest.
	var post []int32
	stack := make([]int32, 0, n)
	visited := make([]bool, n)
	for _, root := range c.order {
		stack = append(stack, root)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			if !visited[u] {
				visited[u] = true
				stack = append(stack, c.children[u]...)
				continue
			}
			stack = stack[:len(stack)-1]
			post = append(post, u)
		}
	}
	// The stack-based traversal above visits children after re-examining
	// the parent, producing a valid post-order (every child precedes its
	// parent because children are pushed above it).

	// Group the post-order by parent and run the contention race per
	// sibling group, in the order groups complete.
	start := c.clock
	for _, u := range post {
		if len(c.children[u]) > 0 {
			c.race(c.children[u], buffered)
		}
		// u itself uploads once its own group's turn comes; tier-1 tags
		// form the reader's group below.
	}
	c.race(c.order, buffered)
	c.batch("collect", 1, 0, len(c.collected), start)
}

// race resolves one sibling group: members repeatedly contend until each has
// uploaded its buffer to the shared parent. The window follows binary
// exponential backoff — it doubles after every collision — because with a
// fixed small window a large sibling group (the reader can have thousands of
// tier-1 children) would collide forever. It stays at its grown size for the
// rest of the group: halving after each success would re-pay the collision
// ladder for every single upload.
func (c *refCollector) race(group []int32, buffered [][]uint64) {
	remaining := append([]int32(nil), group...)
	w := c.opts.ContentionWindow
	const maxWindow = 1 << 16
	for len(remaining) > 0 {
		// Each round every remaining child draws a backoff slot; the
		// minimal draw(s) transmit first.
		minSlot := w
		var winners []int32
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
				c.transmit(int(ch))
			}
			if w < maxWindow {
				w *= 2
			}
			continue
		}
		ch := winners[0]
		c.uploadContended(ch, buffered)
		for i, r := range remaining {
			if r == ch {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
	}
}

// uploadContended sends a child's buffer to its parent and puts it to sleep.
// There is no token (contention replaces the parent's coordination), but
// every message must be acknowledged: without an ack a contender cannot know
// whether its transmission collided, which is precisely how collisions are
// detected here.
func (c *refCollector) uploadContended(u int32, buffered [][]uint64) {
	p := c.parent[u]
	for _, id := range buffered[u] {
		c.backoff()
		c.transmit(int(u))
		if p == parentReader {
			c.collected = append(c.collected, id)
			// The reader's ack: one long slot, decoded by the uploader.
			c.clock.LongSlots++
			c.cumLong++
			c.meter.AddReceived(int(u), energy.IDBits-1)
		} else {
			buffered[p] = append(buffered[p], id)
			c.transmit(int(p))
		}
	}
	buffered[u] = nil
	c.sleep(u)
}
