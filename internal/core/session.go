package core

import (
	"math/bits"
	"slices"
	"sync"

	"netags/internal/bitmap"
	"netags/internal/energy"
	"netags/internal/obs"
	"netags/internal/prng"
	"netags/internal/topology"
)

// Result reports everything a CCM session produced. A Result is fully owned
// by the caller: it shares no storage with the session that produced it, so
// pooled Runners can be reused immediately.
type Result struct {
	// Bitmap is the final information bitmap B (Algorithm 1's output).
	Bitmap *bitmap.Bitmap
	// Rounds is the number of full rounds executed.
	Rounds int
	// Clock is the session's execution time in slots.
	Clock energy.Clock
	// Meter holds per-tag energy (bits sent / received).
	Meter *energy.Meter
	// Truncated reports that the session ended with data still pending —
	// either the round bound was hit or the checking frame was too short
	// for the network's true tier count.
	Truncated bool
	// NewBusyPerRound[i] is the number of slots first reported busy to the
	// reader in round i+1 (diagnostic: the per-tier information waves).
	NewBusyPerRound []int
	// CheckSlotsPerRound[i] is the number of checking-frame slots executed
	// after round i+1.
	CheckSlotsPerRound []int
}

// pendWord is one entry of the pending set: the tags at positions
// word*64+j, for each set bit j of bits, picked or heard slot since the last
// frame. An entry holds the bits one row mask turned on in one word of a
// heard strip (a pick is one bit), merged into the entry before it when
// slot and word match (see hear).
type pendWord struct {
	slot, word int32
	bits       uint64
}

// session carries the mutable state of one run. All of it is arena-style
// scratch owned by a Runner: every slice is sized on first use, retained
// across sessions, and re-initialized in O(n) (plus one clear of the
// f·⌈n/64⌉-word heard bitset) by init — the per-round hot paths allocate
// nothing once the arena is warm (TestSessionRoundAllocs pins this at
// exactly zero).
//
// Every per-tag array is indexed by position, the network's cell-sorted
// numbering (topology.Network.Masks), so one transmitter's neighbours sit
// in a few words of a heard strip. Tag indices appear only where they are
// observable: the picker and IDs see them, the lossy channel draws in their
// order, and the position-indexed meter is scattered back to them at
// session end.
//
// A tag's view of a slot is the pair (heard bit, reader's known bitmap):
// with the heard bit clear and the slot not silenced the tag listens there;
// a set bit means it picked or heard the slot, so it transmits it once (the
// next round, while the pair is pending) and then sleeps; a silenced slot —
// one in known while the indicator vector is on — is asleep for every tag
// at once, because the indicator vector is a single broadcast (§III-D).
type session struct {
	nw  *topology.Network
	cfg Config
	f   int
	n   int
	// order and rank are nw's position → tag and tag → position maps.
	order []int32
	rank  []int32

	// heard is the per-tag slot bitset, slot-major: f strips of ⌈n/64⌉
	// words, where bit k&63 of heard[slot*words+k>>6] belongs to the
	// tag at position k. A bit is set once the tag has picked the slot or
	// heard it busy. Slot-major turns one transmitter's delivery of a slot
	// into a few word operations: its row, as masks over positions, is ORed
	// into the slot's strip, and position indexing keeps a row's neighbours
	// in a handful of words. Out-of-system tags' bits stay clear: delivery
	// ANDs the row masks with inSystemBits.
	heard []uint64
	words int // ⌈n/64⌉, the length of one slot's strip

	// pend is the pending set: the (tag, slot) pairs picked or heard since
	// the last frame, as pendWord entries in discovery order. Each round
	// consumes it into one of the transmit views below and refills it
	// during delivery. A pair enters at most once per session (its heard bit
	// is set on entry), so the buffer reaches a session-wide high-water mark
	// and stops growing. A pending pair whose slot has since been silenced
	// is dead: it is never transmitted and does not count as data still to
	// deliver. Only the lossy channel queues dead pairs; on the reliable
	// channel deliverBySlot never delivers into a slot the reader silences
	// at the end of the same frame, so every entry is live.
	pend []pendWord
	// acc is a ⌈n/64⌉-word scratch set over positions, all-zero between
	// uses: the live entries are ORed into it to read the tags they hold
	// once each (this round's transmitters, the checking frame's C[1]).
	acc []uint64

	// CSR transmit view of the current round on the lossy channel, rebuilt
	// from the pending pairs each round in O(touched): tag t's
	// transmissions are txSlots[txOff[t] : txOff[t]+txLen[t]]. txOff and
	// txLen are n-sized but only entries of tags in touched are live; txLen
	// doubles as the first-touch detector and is restored to all-zero after
	// every round.
	txSlots []int32
	txOff   []int32
	txLen   []int32
	// touched lists the tags with pending entries this round, visited by
	// tag index: the order that pins the channel's PRNG draws (see
	// sortMarked).
	touched []int32

	// Slot-grouped transmit view of the current round on the reliable
	// channel: one counting sort over the frame leaves slot's live pending
	// words, as (word, bits) pairs over positions, at
	// slotTx[slotEnd[slot-1]:slotEnd[slot]] (from 0 for slot 0). slotEnd
	// has f+1 entries and is all-zero between rounds.
	slotTx  []topology.Mask
	slotEnd []int32

	// unknownCount[i] is the number of slots tag i still listens in — heard
	// bit clear and not silenced — i.e. how many slots it monitors per
	// frame. Zero for out-of-system tags.
	unknownCount []int32
	// tier1Bits marks the tags the reader hears directly, as a bitset over
	// positions; inSystem marks tags with Tier > 0 (§II: the rest are
	// outside the system entirely), and inSystemBits holds the same marks as
	// a bitset over positions, to AND with a row mask.
	tier1Bits    []uint64
	inSystem     []bool
	inSystemBits []uint64

	// meter is the Result's, indexed by tag; posMeter accumulates the
	// session by position and is scattered into meter at session end.
	meter    *energy.Meter
	posMeter *energy.Meter
	clock    energy.Clock

	// reader-side bitmaps
	known     *bitmap.Bitmap // V: all slots the reader knows are busy
	roundBusy *bitmap.Bitmap // busy slots heard by the reader this round
	newBusy   *bitmap.Bitmap // scratch: roundBusy &^ known, reused per round

	// Checking-frame scratch: responded flags are cleared in O(marked) via
	// respondedList after every frame; wave/waveNext double-buffer the
	// one-hop response wave.
	responded     []bool
	respondedList []int32
	wave          []int32
	waveNext      []int32

	// Per-round diagnostics, accumulated here and copied into the Result
	// once at session end so the round path never grows caller-visible
	// slices.
	newBusyPerRound    []int
	checkSlotsPerRound []int

	loss      *prng.Source // nil when the channel is reliable
	lossState prng.Source
}

// runnerPool holds the warm arenas RunSession draws from. Which Runner
// serves which session never affects results — a Runner behaves exactly as
// fresh state (simtest's TestRunnerNoStateBleed pins this) and its Results
// are caller-owned — so pooling is invisible to callers.
var runnerPool = sync.Pool{New: func() any { return NewRunner() }}

// RunSession executes one CCM session (Algorithm 1) over the network on a
// Runner taken from a package-wide pool, so repeated sessions reuse warm
// scratch instead of allocating a fresh arena each call. It is safe for
// concurrent use; a caller that wants its own arena holds a Runner.
func RunSession(nw *topology.Network, cfg Config) (*Result, error) {
	r := runnerPool.Get().(*Runner)
	res, err := r.Run(nw, cfg)
	runnerPool.Put(r) // not deferred: a Runner that panicked is dropped
	return res, err
}

// grow returns s resized to n elements, reusing its backing array when the
// capacity allows. Recycled prefixes keep their old contents; callers that
// need zeroed memory clear explicitly.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// reserve returns s with room for at least n more elements. It grows the
// capacity at least twofold rather than by append's 1.25×, so an arena that
// meets a slightly larger high-water mark on its next network still has
// room, and a fresh arena copies less on the way up.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
}

// sortMarked orders ids, which lists without repeats exactly the positions
// whose flag is non-zero, by ascending tag index: the order the lossy
// channel's PRNG draws are pinned to. Reliable sessions are order-free and
// take the same order; a position-ordered checking-frame wave measured no
// faster (DESIGN.md "Delivery-order contract"). A dense set is rebuilt by
// one scan of the flags in tag order instead of sorted, which is cheaper
// once it holds more than about 1/32 of the positions. The sort maps the
// ids to tags and back rather than sorting with a comparator, so it needs
// no closure over the arena.
func sortMarked[T comparable](s *session, ids []int32, flags []T) []int32 {
	if len(ids) <= len(flags)/32 {
		for j, k := range ids {
			ids[j] = s.order[k]
		}
		slices.Sort(ids)
		for j, i := range ids {
			ids[j] = s.rank[i]
		}
		return ids
	}
	var zero T
	ids = ids[:0]
	for _, k := range s.rank {
		if flags[k] != zero {
			ids = append(ids, k)
		}
	}
	return ids
}

// init sizes and resets the arena for one session over nw. The config must
// already be validated. meter becomes the eventual Result's energy meter;
// run overwrites all of it from the position meter at session end. Once the
// arena has seen a deployment of this size and frame, init performs no
// allocations.
func (s *session) init(nw *topology.Network, cfg Config, meter *energy.Meter) {
	n, f := nw.N(), cfg.FrameSize
	s.nw, s.cfg, s.f, s.n = nw, cfg, f, n
	s.order, s.rank = nw.Order(), nw.Rank()
	s.meter = meter
	if s.posMeter == nil || s.posMeter.N() != n {
		s.posMeter = energy.NewMeter(n)
	} else {
		s.posMeter.Reset()
	}
	s.clock = energy.Clock{}

	// txLen and responded must be all-zero/false between rounds. The round
	// and frame code restores them in O(touched), but a session that hit
	// its round bound leaves residue, so replay those clears first — before
	// any resizing below, while the indices still fit the previous
	// deployment's slice lengths. This keeps both backing arrays all-zero
	// across size changes.
	for _, t := range s.touched {
		s.txLen[t] = 0
	}
	s.touched = s.touched[:0]
	for _, i := range s.respondedList {
		s.responded[i] = false
	}
	s.respondedList = s.respondedList[:0]

	s.words = (n + 63) / 64
	s.heard = grow(s.heard, f*s.words)
	clear(s.heard)
	s.slotEnd = grow(s.slotEnd, f+1)
	s.unknownCount = grow(s.unknownCount, n)
	s.inSystem = grow(s.inSystem, n)
	s.tier1Bits = grow(s.tier1Bits, s.words)
	clear(s.tier1Bits)
	s.inSystemBits = grow(s.inSystemBits, s.words)
	clear(s.inSystemBits)
	s.acc = grow(s.acc, s.words)
	clear(s.acc)
	s.txOff = grow(s.txOff, n)
	s.txLen = grow(s.txLen, n)
	s.responded = grow(s.responded, n)

	// A truncated session also leaves never-transmitted pairs pending.
	s.pend = s.pend[:0]
	s.wave = s.wave[:0]
	s.waveNext = s.waveNext[:0]
	s.newBusyPerRound = s.newBusyPerRound[:0]
	s.checkSlotsPerRound = s.checkSlotsPerRound[:0]

	if s.known == nil || s.known.Len() != f {
		s.known = bitmap.New(f)
		s.roundBusy = bitmap.New(f)
		s.newBusy = bitmap.New(f)
	} else {
		s.known.Reset()
		s.roundBusy.Reset()
		s.newBusy.Reset()
	}

	s.loss = nil
	if cfg.LossProb > 0 {
		s.lossState = *prng.New(cfg.LossSeed)
		s.loss = &s.lossState
	}

	for k, tier := range nw.PosTier() {
		// Tags that cannot reach the reader are outside the system (§II) —
		// out of the field of view they never hear the request, and either
		// way their data can never arrive. They never listen or relay and
		// consume no energy (the same boundary sicp draws with its asleep
		// set).
		s.inSystem[k] = tier != 0
		s.unknownCount[k] = 0
		if tier != 0 {
			s.unknownCount[k] = int32(f)
			s.inSystemBits[k>>6] |= 1 << (uint(k) & 63)
		}
		if tier == 1 {
			s.tier1Bits[k>>6] |= 1 << (uint(k) & 63)
		}
	}
}

// tier1 reports whether the reader hears the tag at position k directly.
func (s *session) tier1(k int32) bool {
	return s.tier1Bits[k>>6]&(1<<(uint(k)&63)) != 0
}

// silenced reports whether the indicator vector has put slot to sleep for
// every tag: the reader announced it busy and the vector is enabled.
func (s *session) silenced(slot int32) bool {
	return !s.cfg.DisableIndicatorVector && s.known.Get(int(slot))
}

// dropped reports whether a reception event is lost on the unreliable
// channel.
func (s *session) dropped() bool {
	return s.loss != nil && s.loss.Float64() < s.cfg.LossProb
}

// defaultPicker is the single-slot sampled choice of §IV/§V: participate
// with probability p, then hash ID and seed into one slot.
func defaultPicker(cfg Config) SlotPicker {
	seed, p, f := cfg.Seed, cfg.Sampling, cfg.FrameSize
	return func(_ int, id uint64) []int {
		if !prng.Participates(id, seed, p) {
			return nil
		}
		return []int{prng.SlotOf(id, seed, f)}
	}
}

// seedInitialPicks applies the slot picker: round 1 is the only round in
// which tags originate information (§III-C line 7). Tags pick in tag index
// order, which is the pending order the lossy channel's draws rely on. The
// default picker is inlined so full-participation million-tag sessions do
// not pay one slice allocation per tag; custom pickers keep the
// slice-returning API.
func (s *session) seedInitialPicks() {
	tiers := s.nw.Tier
	if s.cfg.Picker == nil {
		seed, p := s.cfg.Seed, s.cfg.Sampling
		for i, tier := range tiers {
			if tier == 0 {
				// Out-of-system tags (§II) stay silent.
				continue
			}
			id := s.cfg.id(i)
			if !prng.Participates(id, seed, p) {
				continue
			}
			s.schedule(s.rank[i], prng.SlotOf(id, seed, s.f))
		}
		return
	}
	for i, tier := range tiers {
		if tier == 0 {
			continue
		}
		for _, slot := range s.cfg.Picker(i, s.cfg.id(i)) {
			if slot < 0 || slot >= s.f {
				continue
			}
			s.schedule(s.rank[i], slot)
		}
	}
}

// schedule records that the tag at position k picked slot, unless it
// already did. Picks happen before the first frame, so no slot is silenced
// yet.
func (s *session) schedule(k int32, slot int) {
	strip := s.heard[slot*s.words : (slot+1)*s.words]
	if bit := uint64(1) << (uint(k) & 63); strip[k>>6]&bit == 0 {
		s.hear(strip, int32(slot), k>>6, bit)
	}
}

// hear records that the tags at the set bits of one word picked or heard
// slot, whose heard strip is strip: their heard bits are set, they stop
// listening there, and they join the pending set. Bits join the last
// entry when it holds the same slot and word, so every tag's entries stay
// in discovery order: the order the lossy channel's transmit view keeps
// each tag's slots in.
func (s *session) hear(strip []uint64, slot, word int32, tags uint64) {
	strip[word] |= tags
	for b, base := tags, word<<6; b != 0; b &= b - 1 {
		s.unknownCount[base+int32(bits.TrailingZeros64(b))]--
	}
	if last := len(s.pend) - 1; last >= 0 && s.pend[last].slot == slot && s.pend[last].word == word {
		s.pend[last].bits |= tags
		return
	}
	s.pend = append(s.pend, pendWord{slot, word, tags})
}

func (s *session) run() *Result {
	res := &Result{Meter: s.meter}
	if t := s.cfg.Tracer; t != nil {
		t.Trace(obs.Event{
			Kind:      obs.KindSessionStart,
			Protocol:  obs.ProtoCCM,
			Reader:    s.cfg.Reader,
			FrameSize: s.f,
			Tags:      s.n,
			Tiers:     s.nw.K,
			Seed:      s.cfg.Seed,
		})
	}
	maxRounds := s.cfg.maxRounds(s.nw)
	for round := 1; round <= maxRounds; round++ {
		txTags, txBits := s.runRound(round)
		res.Rounds = round
		more := s.runCheckingFrame(round)
		if t := s.cfg.Tracer; t != nil {
			t.Trace(obs.Event{
				Kind:         obs.KindRound,
				Protocol:     obs.ProtoCCM,
				Reader:       s.cfg.Reader,
				Round:        round,
				Transmitters: txTags,
				Bits:         int64(txBits),
				NewBusy:      s.newBusyPerRound[round-1],
				KnownBusy:    s.known.Count(),
				CheckSlots:   s.checkSlotsPerRound[round-1],
				Pending:      more,
			})
		}
		if !more {
			break // nothing pending anywhere the reader could hear
		}
	}
	res.Clock = s.clock
	s.meter.ScatterFrom(s.posMeter, s.order)
	res.Bitmap = s.known.Clone()
	res.NewBusyPerRound = append([]int(nil), s.newBusyPerRound...)
	res.CheckSlotsPerRound = append([]int(nil), s.checkSlotsPerRound...)
	for _, e := range s.pend {
		if !s.silenced(e.slot) {
			res.Truncated = true
			break
		}
	}
	if t := s.cfg.Tracer; t != nil {
		sum := s.meter.Summarize(nil)
		t.Trace(obs.Event{
			Kind:        obs.KindSessionEnd,
			Protocol:    obs.ProtoCCM,
			Reader:      s.cfg.Reader,
			Rounds:      res.Rounds,
			KnownBusy:   res.Bitmap.Count(),
			ShortSlots:  res.Clock.ShortSlots,
			LongSlots:   res.Clock.LongSlots,
			Truncated:   res.Truncated,
			AvgSentBits: sum.AvgSent,
			AvgRecvBits: sum.AvgReceived,
			MaxSentBits: sum.MaxSent,
			MaxRecvBits: sum.MaxReceived,
		})
	}
	return res
}

// runRound executes the request broadcast, the f-slot frame, and the
// indicator-vector broadcast of one round. It returns the number of
// transmitting tags and the frame bits they sent (for tracing).
func (s *session) runRound(round int) (txTags, txBits int) {
	// Reader request broadcast: one 96-bit reader slot. (The paper's energy
	// model, eq. (11), does not charge tags for receiving it; we follow
	// suit, but it does occupy air time.)
	s.clock.LongSlots++

	// Monitoring charge: a tag stays awake for exactly the slots it still
	// listens in (§III-D: it sleeps in silenced slots and in slots it
	// already transmitted, and is busy transmitting in pending ones).
	s.posMeter.AddReceivedCounts(s.unknownCount)

	// Deliver transmissions. Every live pending pair is transmitted now;
	// pairs whose slot was silenced since the tag picked or heard it are
	// dropped without cost. A listener senses a busy slot iff it is in the
	// system and monitoring that slot (half duplex: a tag transmitting in
	// the slot has its heard bit set). Collisions are benign: the first
	// delivery sets the heard bit, later deliveries find it set. Newly
	// heard slots land back in the pending list for the next round, except
	// on the reliable channel in slots the reader hears (see deliverBySlot).
	s.roundBusy.Reset()
	if s.loss == nil {
		txTags, txBits = s.deliverBySlot()
	} else {
		txTags, txBits = s.deliverByTag()
	}
	s.clock.ShortSlots += int64(s.f)

	// Record what the reader learned this round.
	s.newBusy.CopyFrom(s.roundBusy)
	s.newBusy.AndNot(s.known)
	s.newBusyPerRound = append(s.newBusyPerRound, s.newBusy.Count())
	s.known.Or(s.roundBusy)

	if t := s.cfg.Tracer; t != nil {
		t.Trace(obs.Event{
			Kind:         obs.KindFrame,
			Protocol:     obs.ProtoCCM,
			Reader:       s.cfg.Reader,
			Round:        round,
			FrameSize:    s.f,
			Slots:        int64(s.f),
			Transmitters: txTags,
			Bits:         int64(txBits),
			NewBusy:      s.newBusy.Count(),
			KnownBusy:    s.known.Count(),
		})
	}

	if s.cfg.DisableIndicatorVector {
		return txTags, txBits
	}

	// Indicator-vector broadcast: ⌈f/96⌉ reader slots; every tag in the
	// reader's one-hop coverage receives the full vector (eq. (11)'s
	// K⌈f/96⌉ term).
	segments := int64((s.f + energy.IDBits - 1) / energy.IDBits)
	s.clock.LongSlots += segments
	s.posMeter.AddReceivedWhere(segments*energy.IDBits, s.inSystem)
	// Tags silence the newly announced slots: monitoring stops, and any
	// pending relay of them is cancelled (repetitive replies would only
	// re-produce a busy slot the reader already has). Silencing itself is
	// the known bitmap; what changes per tag is its listening count.
	s.settleSilenced(s.newBusyPerRound[len(s.newBusyPerRound)-1])
	if t := s.cfg.Tracer; t != nil {
		t.Trace(obs.Event{
			Kind:     obs.KindIndicator,
			Protocol: obs.ProtoCCM,
			Reader:   s.cfg.Reader,
			Round:    round,
			Slots:    segments,
			Bits:     segments * energy.IDBits,
			Count:    s.newBusy.Count(),
		})
	}
	return txTags, txBits
}

// deliverBySlot runs the frame on the reliable channel, slot by slot. One
// counting sort over the frame groups the pending words by slot, and a
// slot's transmitters are the set bits of its words. The reader hears the
// slot if any of them is tier 1. With the indicator vector on, such a slot
// is silenced for every tag at the end of this frame, so its transmitters
// pay their bit and nothing is delivered: a fresh hearer's pair would be
// dead before it could transmit, and the listening count it would lose is
// the one settleSilenced takes from every tag that had not heard the slot
// before. In every other slot the transmitters OR their row masks, less
// the out-of-system tags, into the slot's heard strip, and every word with
// bits that turn on is a new pending word, in a slot the reader has not
// silenced. No PRNG draws happen here, and heard bits, counts and the
// pending set do not depend on delivery order, so words are appended slot
// by slot, transmitter by transmitter, mask by mask. It returns the number
// of transmitters and the bits they sent.
func (s *session) deliverBySlot() (txTags, txBits int) {
	// Count the pending words per slot (at slotEnd[slot+1]) and collect
	// their tags in acc. All of them are live: no word is ever queued in a
	// slot the reader has heard.
	end := s.slotEnd
	for _, e := range s.pend {
		end[e.slot+1]++
		s.acc[e.word] |= e.bits
		txBits += bits.OnesCount64(e.bits)
	}
	for slot := 1; slot <= s.f; slot++ {
		end[slot] += end[slot-1]
	}
	// Scatter with end[slot] as slot's cursor: it starts at the slot's
	// first entry and finishes on the next slot's first entry.
	live := len(s.pend)
	s.slotTx = reserve(s.slotTx[:0], live)[:live]
	for _, e := range s.pend {
		s.slotTx[end[e.slot]] = topology.Mask{Word: e.word, Bits: e.bits}
		end[e.slot]++
	}
	s.pend = s.pend[:0]

	for w, b := range s.acc {
		if b != 0 {
			s.acc[w] = 0
			txTags += bits.OnesCount64(b)
		}
	}

	busy := s.roundBusy.Words()
	indicator := !s.cfg.DisableIndicatorVector
	lo := int32(0)
	for slot := range s.f {
		hi := end[slot]
		end[slot] = 0
		if lo == hi {
			continue
		}
		tx := s.slotTx[lo:hi]
		lo = hi
		reader := false
		for _, e := range tx {
			if e.Bits&s.tier1Bits[e.Word] != 0 {
				reader = true
				break
			}
		}
		if reader {
			busy[slot>>6] |= 1 << (uint(slot) & 63)
		}
		// The indicator vector silences a slot the reader hears at the end
		// of this frame, so its transmitters deliver nothing.
		skip := reader && indicator
		strip := s.heard[slot*s.words : (slot+1)*s.words]
		for _, e := range tx {
			for b := e.Bits; b != 0; b &= b - 1 {
				t := e.Word<<6 + int32(bits.TrailingZeros64(b))
				s.posMeter.AddSent(int(t), 1)
				if skip {
					continue
				}
				row := s.nw.Masks(int(t))
				s.pend = reserve(s.pend, len(row))
				for _, m := range row {
					fresh := m.Bits &^ strip[m.Word] & s.inSystemBits[m.Word]
					if fresh != 0 {
						s.hear(strip, int32(slot), m.Word, fresh)
					}
				}
			}
		}
	}
	end[s.f] = 0
	return txTags, txBits
}

// deliverByTag runs the frame on the lossy channel, transmitter by
// transmitter in ascending tag index. It folds the pending pairs into the
// CSR transmit view and returns the number of transmitters and the bits
// they sent.
func (s *session) deliverByTag() (txTags, txBits int) {
	// Pass 1 counts pairs per tag (silenced ones included for sizing; the
	// scatter pass drops them) and collects the touched set.
	pairs := 0
	for _, e := range s.pend {
		for b := e.bits; b != 0; b &= b - 1 {
			t := e.word<<6 + int32(bits.TrailingZeros64(b))
			if s.txLen[t] == 0 {
				s.touched = append(s.touched, t)
			}
			s.txLen[t]++
			pairs++
		}
	}
	s.touched = sortMarked(s, s.touched, s.txLen)
	s.txSlots = grow(s.txSlots, pairs)
	var off int32
	for _, t := range s.touched {
		s.txOff[t] = off
		off += s.txLen[t]
		s.txLen[t] = 0 // becomes the kept-entry cursor for pass 2
	}
	// Pass 2 captures this round's live transmissions. Scatter order
	// preserves each tag's discovery order.
	for _, e := range s.pend {
		if s.silenced(e.slot) {
			continue
		}
		for b := e.bits; b != 0; b &= b - 1 {
			t := e.word<<6 + int32(bits.TrailingZeros64(b))
			s.txSlots[s.txOff[t]+s.txLen[t]] = e.slot
			s.txLen[t]++
		}
	}
	s.pend = s.pend[:0]

	for _, k := range s.touched {
		cnt := s.txLen[k]
		if cnt == 0 {
			continue
		}
		slots := s.txSlots[s.txOff[k] : s.txOff[k]+cnt]
		txTags++
		txBits += len(slots)
		s.posMeter.AddSent(int(k), int64(len(slots)))
		s.deliverLossy(k, slots)
	}
	// Release the CSR view: txLen back to all-zero, O(touched).
	for _, t := range s.touched {
		s.txLen[t] = 0
	}
	s.touched = s.touched[:0]
	return txTags, txBits
}

// deliverLossy delivers the frame of the tag at position k on the lossy
// channel pair by pair, slot outer and neighbour inner, with the reader
// sensing each slot after its neighbours. This order is the channel's PRNG
// draw order, which the golden lossy fingerprints pin. It walks the tag's
// row masks: a mask's listeners, its in-system bits not yet heard in the
// slot, come in row order (see topology.Network), so each draws once, in
// the order a walk of the row would, and neighbours that heard the slot
// cost no load each.
func (s *session) deliverLossy(k int32, slots []int32) {
	row, reader := s.nw.Masks(int(k)), s.tier1(k)
	for _, slot := range slots {
		strip := s.heard[int(slot)*s.words : int(slot+1)*s.words]
		for _, m := range row {
			listen := m.Bits &^ strip[m.Word] & s.inSystemBits[m.Word]
			var heard uint64
			for ; listen != 0; listen &= listen - 1 {
				if !s.dropped() {
					heard |= listen & -listen
				}
			}
			if heard != 0 {
				s.hear(strip, slot, m.Word, heard)
			}
		}
		if reader && !s.roundBusy.Get(int(slot)) && !s.dropped() {
			s.roundBusy.Set(int(slot))
		}
	}
}

// settleSilenced charges the indicator broadcast's newBusy slots (count of
// them) against every in-system tag's listening count: a tag stops
// listening in each new busy slot it had not already picked or heard. One
// pass over the tags, then one refund per set bit of each new busy slot's
// strip. On the reliable channel every such bit was set before this frame
// (deliverBySlot delivers nothing into a slot the reader hears), so a tag
// that would have heard the slot in this frame pays here the one count it
// would have lost by hearing it.
func (s *session) settleSilenced(count int) {
	if count == 0 {
		return
	}
	for v, in := range s.inSystem {
		if in {
			s.unknownCount[v] -= int32(count)
		}
	}
	// Out-of-system tags have no heard bits, so the refund skips them.
	for wi, busy := range s.newBusy.Words() {
		for ; busy != 0; busy &= busy - 1 {
			slot := wi<<6 + bits.TrailingZeros64(busy)
			for w, heard := range s.heard[slot*s.words : (slot+1)*s.words] {
				for ; heard != 0; heard &= heard - 1 {
					s.unknownCount[w<<6+bits.TrailingZeros64(heard)]++
				}
			}
		}
	}
}

// runCheckingFrame executes §III-E's termination probe and reports whether
// another round is needed. Tags with pending transmissions respond in C[1];
// a tag that hears a response in C[j] relays it once in C[j+1]; the reader
// stops the frame at the first busy slot it senses.
//
// Monitoring energy is settled per tag instead of per slot — a tag that
// joins the wave in C[j] listened through C[1..j] and then sleeps, a tag
// that never responds listens through every executed slot — which charges
// the exact totals of a slot-by-slot sweep in one O(n) pass. Out-of-system
// tags (§II) neither monitor the checking frame nor relay its wave; the
// inSystem mask keeps them silent and uncharged for the whole frame.
func (s *session) runCheckingFrame(round int) bool {
	lc := s.cfg.checkingFrameLen(s.nw)

	// C[1]'s responders are the tags holding a live pending pair, in
	// ascending tag order: the lossy channel draws in wave order. The live
	// entries are ORed into acc, whose set bits are the responders once
	// each.
	for _, e := range s.pend {
		if !s.silenced(e.slot) {
			s.acc[e.word] |= e.bits
		}
	}
	s.wave = s.wave[:0]
	for w, b := range s.acc {
		if b == 0 {
			continue
		}
		s.acc[w] = 0
		for ; b != 0; b &= b - 1 {
			k := int32(w<<6 + bits.TrailingZeros64(b))
			s.responded[k] = true
			s.respondedList = append(s.respondedList, k)
			s.wave = append(s.wave, k)
		}
	}
	s.wave = sortMarked(s, s.wave, s.responded)

	heard := false
	slotsUsed := 0
	for j := 1; j <= lc; j++ {
		slotsUsed++
		// Transmitters pay one bit each; the reader then senses the slot.
		// (Current transmitters all carry responded=true, so the listener
		// accounting below never double-charges them — half duplex.)
		for _, u := range s.wave {
			s.posMeter.AddSent(int(u), 1)
		}
		for _, u := range s.wave {
			if s.tier1(u) && !s.dropped() {
				heard = true
			}
		}
		if heard {
			break
		}
		// Propagate the wave one hop: in-system listeners adjacent to a
		// transmitter respond in the next slot, taken in row order. A joiner
		// monitored C[1..j] before responding, so its whole listening bill
		// lands here.
		s.waveNext = s.waveNext[:0]
		for _, u := range s.wave {
			for _, m := range s.nw.Masks(int(u)) {
				listen := m.Bits & s.inSystemBits[m.Word]
				for ; listen != 0; listen &= listen - 1 {
					v := m.Word<<6 + int32(bits.TrailingZeros64(listen))
					if s.responded[v] || s.dropped() {
						continue
					}
					s.responded[v] = true
					s.respondedList = append(s.respondedList, v)
					s.posMeter.AddReceived(int(v), int64(j))
					s.waveNext = append(s.waveNext, v)
				}
			}
		}
		s.wave, s.waveNext = s.waveNext, s.wave
		if len(s.wave) == 0 {
			// The wave died out (or there never was one): the rest of the
			// frame is guaranteed silent, but the reader cannot know that,
			// so it still sits through the remaining slots. Tags keep
			// monitoring too.
			slotsUsed = lc
			break
		}
	}
	// Keep the larger backing array in wave: the swap above leaves the
	// buffers' capacities on whichever side the frame ended with, and the
	// big allocation (the initial all-pending wave) always builds in wave —
	// without this, a fresh arena re-grows the small side one frame (and
	// one session) later instead of reaching its high-water mark on the
	// first run.
	if cap(s.waveNext) > cap(s.wave) {
		s.wave, s.waveNext = s.waveNext, s.wave
	}

	// Settle the listeners that never responded: they monitored every
	// executed slot.
	for k := 0; k < s.n; k++ {
		if s.inSystem[k] && !s.responded[k] {
			s.posMeter.AddReceived(k, int64(slotsUsed))
		}
	}
	// Clear the frame marks in O(marked).
	for _, i := range s.respondedList {
		s.responded[i] = false
	}
	s.respondedList = s.respondedList[:0]

	s.clock.ShortSlots += int64(slotsUsed)
	s.checkSlotsPerRound = append(s.checkSlotsPerRound, slotsUsed)
	if t := s.cfg.Tracer; t != nil {
		t.Trace(obs.Event{
			Kind:     obs.KindCheck,
			Protocol: obs.ProtoCCM,
			Reader:   s.cfg.Reader,
			Round:    round,
			Slots:    int64(slotsUsed),
			Pending:  heard,
		})
	}
	return heard
}
