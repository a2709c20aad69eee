// Package sicp implements the baseline the paper compares against (§VI-A):
// the Serialized ID Collection Protocol for state-free networked tags from
// Chen et al. [16], plus its contention-based sibling CICP.
//
// The paper only sketches SICP ("a system-wide broadcast to establish a
// spanning tree for routing, then CSMA to relay IDs hop by hop to the
// reader"), so this package reconstructs it — see DESIGN.md "Substitutions"
// for the modeling choices. The reconstruction:
//
//  1. Tree phase. The reader's 96-bit collection request floods outward.
//     Each tag rebroadcasts it exactly once after a CSMA backoff; a tag's
//     parent is one of its upstream (one tier closer) neighbors, chosen
//     uniformly: reception jitter decides which rebroadcast it locks onto.
//     The reader's own broadcast reaches only tier-1 tags (per §VI-A,
//     SICP's reader↔tag range is r', unlike CCM's one-hop R coverage).
//  2. Collection phase. Strictly serialized post-order DFS over the tree:
//     a parent hands a 96-bit token to each child in turn; the child uploads
//     every ID buffered from its own subtree (96 bits each, preceded by a
//     CSMA backoff); the parent closes the exchange with a 96-bit ack and
//     the child goes to sleep. The reader's tier-1 children self-serialize
//     by carrier sense instead of receiving reader tokens.
//
// Energy model: a tag is awake from the reader's request until its own
// upload is complete — under CSMA it cannot sleep earlier because it does
// not know when its turn comes. While awake it carrier-senses every slot
// (1 bit per short backoff slot, 1 bit per long slot it cannot decode) and
// fully receives every 96-bit message transmitted by a neighbor. Time
// model: each message occupies one long (96-bit) slot; each backoff burns
// its drawn number of short slots.
//
// Cost: because every in-system tag listens from the request until it
// sleeps, it decodes every message a neighbour sends before it sleeps, so
// its reception is charged after the walk, in one pass over the tags in
// position order (charge); no message walks a neighbour list. A sleeping
// tag records only its sleep order, and is charged its idle sensing and
// its live term: the messages beyond their flood message that its
// still-awake neighbours have sent so far. Under SICP that term is
// closed-form, the parent's count less its flood message: an awake tag
// that has sent more than its flood message has sent a token, so it is on
// the DFS stack, an ancestor, and of the ancestors only the parent is
// within range (in-system neighbours' tiers differ by at most 1). SICP's
// walk therefore reads no neighbour row. CICP's term walks the sleeper's
// row against a bitset of such tags. The pass then adds, per neighbour,
// its flood message and, if it slept first, all its later ones.
// The flood is charged per tier, the tree is a CSR child array built by one
// counting sort, and IDs travel in intrusive linked lists spliced onto the
// parent's in O(1). One collection is O(messages + edges) with a constant
// number of allocations. All per-tag state is indexed by the network's
// positions (topology.Network.Masks), so the charge pass reads nearby
// memory; the PRNG draws and the child lists keep tag index order, which is
// what pins the results.
package sicp

import (
	"fmt"
	"math/bits"

	"netags/internal/energy"
	"netags/internal/obs"
	"netags/internal/prng"
	"netags/internal/topology"
)

// Options configures a collection run.
type Options struct {
	// Seed drives the CSMA backoff draws (and nothing else: the protocol is
	// otherwise deterministic given the topology).
	Seed uint64
	// ContentionWindow is the CSMA window W: each transmission is preceded
	// by a uniform backoff in [0, W) short slots. Default 8.
	ContentionWindow int
	// IDs assigns per-tag identifiers; nil means tag i carries uint64(i)+1.
	IDs []uint64
	// Tracer, if non-nil, receives session and slot-batch events (one batch
	// per flood tier and per collection unit). Observe-only.
	Tracer obs.Tracer
}

func (o *Options) setDefaults() {
	if o.ContentionWindow == 0 {
		o.ContentionWindow = 8
	}
}

// Result reports one collection run.
type Result struct {
	// Collected lists every tag ID delivered to the reader.
	Collected []uint64
	// Clock is the total air time.
	Clock energy.Clock
	// Meter is the per-tag energy.
	Meter *energy.Meter
	// TreeDepth is the depth of the spanning tree. Every parent is exactly
	// one tier up, so it equals the network's tier count K.
	TreeDepth int
}

// Collect runs SICP over the network and returns the IDs gathered by the
// reader, with full time and energy accounting.
func Collect(nw *topology.Network, opts Options) (*Result, error) {
	opts.setDefaults()
	if opts.IDs != nil && len(opts.IDs) != nw.N() {
		return nil, fmt.Errorf("sicp: %d IDs for %d tags", len(opts.IDs), nw.N())
	}
	if opts.ContentionWindow < 1 {
		return nil, fmt.Errorf("sicp: contention window %d must be >= 1", opts.ContentionWindow)
	}
	c := newCollector(nw, opts, obs.ProtoSICP)
	c.sessionStart()
	c.buildTree()
	c.collect()
	c.charge()
	c.sessionEnd()
	return c.result(), nil
}

func newCollector(nw *topology.Network, opts Options, proto string) *collector {
	return &collector{
		nw:    nw,
		order: nw.Order(),
		rank:  nw.Rank(),
		tier:  nw.PosTier(),
		opts:  opts,
		proto: proto,
		src:   prng.New(opts.Seed),
		meter: energy.NewMeter(nw.N()),
	}
}

// result assembles the Result, renumbering the meter to tag indices.
func (c *collector) result() *Result {
	meter := energy.NewMeter(c.nw.N())
	meter.ScatterFrom(c.meter, c.order)
	return &Result{
		Collected: c.collected,
		Clock:     c.clock,
		Meter:     meter,
		TreeDepth: c.nw.K,
	}
}

// collector runs one collection. Every tag is named by its position in nw
// (see topology.Network): the arrays below, the tree and the ID lists all
// hold and are indexed by positions; order maps one back to its tag.
type collector struct {
	nw    *topology.Network
	order []int32 // position → tag index
	rank  []int32 // tag index → position
	tier  []int16 // tier by position
	opts  Options
	proto string // obs.ProtoSICP or obs.ProtoCICP, for event labeling
	src   *prng.Source

	// meter is indexed by position; result renumbers it.
	meter *energy.Meter
	clock energy.Clock

	// parent[k] is the parent of the tag at k, parentReader at tier 1 and
	// parentNone outside the system.
	parent []int32
	// The tree in CSR form over n+1 parents, the reader being parent n:
	// the children of p are kids[kidStart[p]:kidStart[p+1]], ascending by
	// tag index.
	kidStart []int32
	kids     []int32

	// Intrusive ID lists. The IDs tag u still holds are those of tags u,
	// next[u], next[next[u]], …: size[u] of them, the last being tail[u].
	// A tag's own ID heads its list, and a finished child's list is
	// spliced onto the parent's tail, so the order is the order of
	// arrival.
	next []int32
	tail []int32
	size []int32

	// Scratch for race, reused across sibling groups.
	remaining []int32
	winners   []int32

	// msgs[u] counts the messages tag u has sent.
	msgs []int32
	// slept[u] packs tag u's sleep sequence number (high 32 bits) with the
	// messages it sent beyond its flood message (low 32 bits), so the
	// charge pass reads both with one load; seq numbers the next sleeper.
	slept []int64
	seq   int64
	// inSystem marks the tags with a tier, the ones that hear the request.
	inSystem []uint64
	// active marks, under CICP, the awake tags that have sent more than
	// their flood message; nil under SICP, whose walk needs no such set.
	active []uint64

	collected []uint64

	// Cumulative air-time counters for the awake-sensing charge: cumShort
	// is the total short-slot bits elapsed, cumLong the number of long
	// slots. A tag's idle-sensing cost is the delta between its sleep time
	// and its wake time (all in-system tags wake at the request).
	cumShort int64
	cumLong  int64
}

const (
	parentReader int32 = -1
	parentNone   int32 = -2
)

// sessionStart emits the session_start event for the run.
func (c *collector) sessionStart() {
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
func (c *collector) sessionEnd() {
	if t := c.opts.Tracer; t != nil {
		sum := c.meter.Summarize(nil)
		t.Trace(obs.Event{
			Kind:        obs.KindSessionEnd,
			Protocol:    c.proto,
			Rounds:      c.nw.K,
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
func (c *collector) batch(phase string, round, transmitters, count int, startClock energy.Clock) {
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

// id returns the ID of the tag at position k.
func (c *collector) id(k int32) uint64 {
	i := int(c.order[k])
	if c.opts.IDs != nil {
		return c.opts.IDs[i]
	}
	return uint64(i) + 1
}

// backoff draws a CSMA backoff and charges it to the clock as short slots.
func (c *collector) backoff() {
	b := int64(c.src.Intn(c.opts.ContentionWindow))
	c.clock.ShortSlots += b
	c.cumShort += b
}

// transmit models one 96-bit message from tag u: one long slot on the air.
// Its 96 bits of TX energy, and the reception of the awake neighbours that
// decode it, are charged after the walk (charge).
func (c *collector) transmit(u int) {
	c.clock.LongSlots++
	c.cumLong++
	c.msgs[u]++
}

// sleep retires tag u, whose neighbours that are still awake have sent live
// messages beyond their flood message so far. Every in-system tag listens
// from the request until it sleeps, so it decoded those; charge adds the
// rest of what it heard. Each decoded message costs 95 bits, the 96th being
// the 1-bit carrier-sense charge for the slot. That charge, made here,
// covers every slot u stayed awake, minus the long slots it spent
// transmitting itself (half duplex: no reception during its own
// transmissions). u sends nothing after it sleeps, so msgs[u] is final.
func (c *collector) sleep(u int32, live int64) {
	m := c.msgs[u]
	idle := c.cumShort + c.cumLong - int64(m)
	c.meter.AddReceived(int(u), (energy.IDBits-1)*live+max(idle, 0))
	c.slept[u] = c.seq<<32 | int64(m-1)
	c.seq++
}

// charge makes, in one pass over the in-system tags in position order, the
// reception charge sleep left: each neighbour's flood message, and every
// later message of each neighbour that slept first (one that slept later
// was still awake, and counted in the live term, when the tag slept). It
// also charges every tag 96 bits per message sent. Only the neighbours in
// the system (inSystem) sent anything; a tag beyond the reader's broadcast
// range stays out even next to one in it. The per-neighbour step is one
// load and no branch: the sign of the difference of the sleep sequence
// numbers, both below n, selects the neighbour's count.
func (c *collector) charge() {
	for k, t := range c.tier {
		if t == 0 {
			continue
		}
		heard := heardRow(c.nw.Masks(k), c.inSystem, c.slept, c.slept[k]&^(1<<32-1))
		c.meter.AddReceived(k, (energy.IDBits-1)*heard)
		c.meter.AddSent(k, energy.IDBits*int64(c.msgs[k]))
	}
}

// heardRow sums, over the in-system neighbours in masks, one flood message
// each plus the later messages of each that slept before the tag whose
// sleep sequence number, shifted into the high half, is atHi: slept[v] −
// atHi is negative exactly then. slept holds whole 64-position words, so
// each word's block needs no bounds check per bit.
func heardRow(masks []topology.Mask, inSystem []uint64, slept []int64, atHi int64) int64 {
	var heard int64
	for _, m := range masks {
		blk := slept[m.Word<<6:][:64:64]
		b := m.Bits & inSystem[m.Word]
		heard += int64(bits.OnesCount64(b))
		for ; b != 0; b &= b - 1 {
			x := blk[bits.TrailingZeros64(b)&63]
			heard += int64(uint32(x)) & ((x - atHi) >> 63)
		}
	}
	return heard
}

// buildTree floods the collection request tier by tier and establishes
// parent pointers. Within a tier, rebroadcast order is randomized by the
// backoff draws (CSMA), and each deeper tag then adopts one upstream
// neighbor chosen uniformly.
func (c *collector) buildTree() {
	nw := c.nw
	n := nw.N()

	// The reader's request: one long slot, received by tier-1 tags (the
	// 96th bit of their reception comes from the carrier-sense charge at
	// sleep time, as for every decoded message). Tags outside the system
	// never hear it and stay asleep.
	c.clock.LongSlots++
	c.cumLong++
	c.parent = make([]int32, n)
	c.msgs = make([]int32, n)
	tierSize := make([]int, nw.K+1)
	for k, t := range c.tier {
		c.parent[k] = parentNone
		if t == 0 {
			continue
		}
		tierSize[t]++
		// The tag's flood message, below.
		c.msgs[k] = 1
		if t == 1 {
			c.parent[k] = parentReader
			c.meter.AddReceived(k, energy.IDBits-1)
		}
	}

	// Tier-by-tier rebroadcast: every tag forwards the request exactly once
	// after a CSMA backoff, in an order the backoff race randomizes (a
	// Fisher–Yates shuffle of the tier, ascending by tag index, with the
	// run's source). Each member sends one message and draws its backoff
	// whatever its place, so the order itself is unobservable: each tier
	// replays the shuffle's draws, to keep the source in step, and charges
	// its air time, while the messages were metered above.
	for tier := 1; tier <= nw.K; tier++ {
		start := c.clock
		m := tierSize[tier]
		for i := m - 1; i > 0; i-- {
			c.src.Intn(i + 1)
		}
		for range m {
			c.backoff()
		}
		c.clock.LongSlots += int64(m)
		c.cumLong += int64(m)
		c.batch("flood", tier, m, m, start)
	}

	// Each deeper tag adopts one uniformly chosen upstream neighbor as
	// parent: reception jitter decides which rebroadcast a given listener
	// locks onto first, and modeling it as a uniform choice keeps the
	// tree's branching factor realistic instead of letting the
	// globally-first transmitter of a tier claim its whole range.
	// The draws go in tag index order, and the j-th candidate is the j-th
	// upstream neighbour in the tag's neighbour list, which is its row's
	// order: its masks' bits, ascending. A draw depends only on the
	// candidate count, so the rows are walked in position order: once to
	// count into parent[k], then, after the draws have replaced the counts,
	// once more to pick.
	//
	// up[r] marks the in-system tags whose tier is r mod 3. The in-system
	// neighbours of a tag at tier t sit at tiers t−1, t and t+1 (the BFS
	// layering), which differ mod 3, so its upstream neighbours are its
	// row's masks ANDed with up[(t−1)%3].
	words := (n + 63) / 64
	upBits := make([]uint64, 4*words)
	up := [3][]uint64{upBits[:words], upBits[words : 2*words], upBits[2*words : 3*words]}
	c.inSystem = upBits[3*words:]
	for k, t := range c.tier {
		if t > 0 {
			up[t%3][k>>6] |= 1 << (uint(k) & 63)
			c.inSystem[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	for k, t := range c.tier {
		if t < 2 {
			continue
		}
		upstream, cnt := up[(t-1)%3], 0
		for _, m := range nw.Masks(k) {
			cnt += bits.OnesCount64(m.Bits & upstream[m.Word])
		}
		c.parent[k] = int32(cnt)
	}
	for i, t := range nw.Tier {
		if t >= 2 {
			// Reachable tags at tier ≥ 2 always have an upstream neighbor
			// (BFS invariant), so the count is positive.
			k := c.rank[i]
			c.parent[k] = int32(c.src.Intn(int(c.parent[k])))
		}
	}
	for k, t := range c.tier {
		if t < 2 {
			continue
		}
		upstream, j := up[(t-1)%3], int(c.parent[k])
		for _, m := range nw.Masks(k) {
			b := m.Bits & upstream[m.Word]
			if cnt := bits.OnesCount64(b); j >= cnt {
				j -= cnt
				continue
			}
			for ; j > 0; j-- {
				b &= b - 1
			}
			c.parent[k] = m.Word<<6 + int32(bits.TrailingZeros64(b))
			break
		}
	}

	// Child lists, ascending by tag index within each parent (the order
	// children upload in, and CICP's race order); the reader's children,
	// the tier-1 tags, are bucket n.
	c.kidStart, c.kids = countingSort(c.rank, n+1, func(i int) int {
		switch p := c.parent[c.rank[i]]; p {
		case parentNone:
			return -1
		case parentReader:
			return n
		default:
			return int(p)
		}
	})
}

// countingSort buckets the tag indices i in [0, len(rank)) by key(i) in
// [0, keys), skipping those with a negative key, and stores each as its
// position rank[i]: bucket k is sorted[start[k]:start[k+1]], in ascending
// tag index order. It counts each key's indices into start[k], turns the
// counts into running totals (the end of each bucket), and fills from the
// last index down, decrementing start[k] as it goes, which leaves start[k]
// at the bucket's beginning.
func countingSort(rank []int32, keys int, key func(i int) int) (start, sorted []int32) {
	n := len(rank)
	start = make([]int32, keys+1)
	for i := 0; i < n; i++ {
		if k := key(i); k >= 0 {
			start[k]++
		}
	}
	for k := 1; k < keys; k++ {
		start[k] += start[k-1]
	}
	start[keys] = start[keys-1]
	sorted = make([]int32, start[keys])
	for i := n - 1; i >= 0; i-- {
		if k := key(i); k >= 0 {
			start[k]--
			sorted[start[k]] = rank[i]
		}
	}
	return start, sorted
}

// children returns the children of the tag at position p, or the reader's
// (the tier-1 tags) for p = n.
func (c *collector) children(p int) []int32 {
	return c.kids[c.kidStart[p]:c.kidStart[p+1]]
}

// initLists starts every tag's ID list with its own ID alone.
func (c *collector) initLists() {
	n := c.nw.N()
	c.next = make([]int32, n)
	c.tail = make([]int32, n)
	c.size = make([]int32, n)
	c.slept = make([]int64, (n+63)&^63)
	for i := range c.tail {
		c.tail[i] = int32(i)
		c.size[i] = 1
	}
	if c.nw.Reachable > 0 {
		c.collected = make([]uint64, 0, c.nw.Reachable)
	}
}

// deliver hands tag u's ID list to its parent p once u has sent it: the
// reader records the IDs in list order, and a tag splices the list onto
// its own tail.
func (c *collector) deliver(u, p int32) {
	if p == parentReader {
		for i, k := u, int32(0); k < c.size[u]; i, k = c.next[i], k+1 {
			c.collected = append(c.collected, c.id(i))
		}
		return
	}
	c.next[c.tail[p]] = u
	c.tail[p] = c.tail[u]
	c.size[p] += c.size[u]
}

// collect walks the tree in post-order. Each tag uploads its subtree's IDs
// to its parent in one serialized exchange and then sleeps.
func (c *collector) collect() {
	c.initLists()
	// Iterative post-order DFS (the tree can be thousands deep at small r);
	// a frame's next is the kids position of its next child.
	type frame struct{ u, next int32 }
	var stack []frame
	for si, t1 := range c.children(c.nw.N()) {
		// Reader children self-serialize by carrier sense: one contention
		// backoff before each subtree starts.
		start := c.clock
		collectedBefore := len(c.collected)
		c.backoff()
		stack = append(stack[:0], frame{t1, c.kidStart[t1]})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.next < c.kidStart[top.u+1] {
				ch := c.kids[top.next]
				top.next++
				// Token from parent to child: backoff + one message.
				c.backoff()
				c.transmit(int(top.u))
				stack = append(stack, frame{ch, c.kidStart[ch]})
				continue
			}
			// All children done: upload to parent, then sleep.
			c.upload(top.u)
			stack = stack[:len(stack)-1]
		}
		c.batch("subtree", si+1, 0, len(c.collected)-collectedBefore, start)
	}
}

// upload sends tag u's buffered IDs to its parent (or the reader) and puts
// u to sleep after the closing ack.
func (c *collector) upload(u int32) {
	p := c.parent[u]
	for k := int32(0); k < c.size[u]; k++ {
		c.backoff()
		c.transmit(int(u))
	}
	c.deliver(u, p)
	// Closing ack from the parent tells it the child's subtree is complete.
	// The reader needs no ack — it is the sink and observes the data
	// directly — so its children simply sleep after their last message.
	if p == parentReader {
		c.sleep(u, 0)
		return
	}
	c.backoff()
	c.transmit(int(p))
	// The awake tags that have sent more than their flood message are the
	// ones that sent a token: u's ancestors. Of them only the parent, one
	// tier up, is u's neighbour.
	c.sleep(u, int64(c.msgs[p]-1))
}
