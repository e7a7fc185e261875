package sim

import (
	"math/bits"
	"math/rand"
)

// Event is a unit of work scheduled at a point in simulated time.
type Event interface {
	// Run executes the event. It may schedule further events on s.
	Run(s *Simulator)
}

// EventFunc adapts a function to the Event interface.
type EventFunc func(s *Simulator)

// Run implements Event.
func (f EventFunc) Run(s *Simulator) { f(s) }

// slot is one entry of the simulator's event slab: the payload and cancel
// state of a scheduled event, addressed by index from its heap node and its
// Handle. Fired and cancelled slots are recycled through the free list; gen
// distinguishes the slot's current occupant from earlier ones so stale
// Handles cannot touch it.
type slot struct {
	ev        Event
	gen       uint32
	cancelled bool
	queued    bool
}

// Handle refers to a scheduled event and can cancel it before it fires.
type Handle struct {
	s   *Simulator
	idx uint32
	gen uint32
}

// Cancel prevents the event from running. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancel reports whether the event was
// still pending.
func (h Handle) Cancel() bool {
	if !h.Pending() {
		return false
	}
	h.s.slots[h.idx].cancelled = true
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (h Handle) Pending() bool {
	if h.s == nil {
		return false
	}
	sl := &h.s.slots[h.idx]
	return sl.gen == h.gen && sl.queued && !sl.cancelled
}

// node is one heap entry: the sort key and the index of the event's slot,
// or in the waiting heap the source's id. It holds no pointer, so a sift
// moves 24-byte values inside one backing array that the garbage collector
// never scans, and writes nothing else.
type node struct {
	at   Time
	key  uint64
	slot uint32
}

// ordinary is set in the key of an event scheduled by At or After, above
// its sequence number, so it runs after every source of its instant, whose
// key is below it.
const ordinary = 1 << 62

// before reports, as 0 or 1, whether x sorts before y in (at, key) order.
// It is one 128-bit subtraction whose borrow is the answer, not a compare
// and a jump: heap keys are close to random, so a branch on them
// mispredicts about half the time. The unsigned compare of at is exact
// because at is never negative (At rejects t < now and now starts at 0).
func before(x, y *node) int {
	_, b := bits.Sub64(x.key, y.key, 0)
	_, b = bits.Sub64(uint64(x.at), uint64(y.at), b)
	return int(b)
}

// heapPad is the number of sentinel nodes kept after the live ones, so a
// node with at least one child can always read four.
const heapPad = 3

// sentinel sorts after every live node: at never exceeds MaxTime.
var sentinel = node{at: -1, key: ^uint64(0)}

// eventHeap is a 4-ary min-heap ordered by (at, key): a[:len(a)-heapPad]
// are the live nodes, node i's children are 4i+1..4i+4, and the last
// heapPad entries are sentinels. (at, key) is unique, so it is a total
// order and the pop order is that of any other correct priority queue: the
// layout changes host time and nothing simulated.
type eventHeap []node

func newEventHeap() eventHeap {
	return append(make(eventHeap, 0, 256+heapPad), sentinel, sentinel, sentinel)
}

func (h eventHeap) live() int { return len(h) - heapPad }

// push inserts nd by moving a hole up from the end: parents that sort after
// nd move down into it, and nd is written once.
func (h *eventHeap) push(nd node) {
	a := append(*h, sentinel)
	*h = a
	i := len(a) - heapPad - 1
	for i > 0 {
		p := (i - 1) / 4
		if before(&nd, &a[p]) == 0 {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = nd
}

// pop removes and returns the minimum node. The sift is bottom-up: the hole
// left by the root walks to a leaf, taking the smallest of four children at
// each level without comparing against the displaced last node, which then
// rises from the leaf (it came from the bottom level: zero or one steps).
// The walk's trip count depends only on the heap's size, and which child is
// smallest is computed from borrows, not branched on.
func (h *eventHeap) pop() node {
	a := *h
	n := len(a) - heapPad - 1
	top, last := a[0], a[n]
	a[n] = sentinel
	*h = a[:len(a)-1]
	i := 0
	for c := 1; c < n; c = 4*i + 1 {
		q := a[c : c+4 : c+4]
		lo := before(&q[1], &q[0])
		hi := 2 + before(&q[3], &q[2])
		m := c + lo + (hi-lo)*before(&q[hi&3], &q[lo&1])
		a[i] = a[m]
		i = m
	}
	for i > 0 {
		p := (i - 1) / 4
		if before(&last, &a[p]) == 0 {
			break
		}
		a[i] = a[p]
		i = p
	}
	if n > 0 {
		a[i] = last
	}
	return top
}

// Source is something that keeps its own next firing time, such as a
// link whose deliveries are FIFO: the kernel holds one entry per waiting
// source, not one per event. A registered source fires at the time it last
// woke at; its Fire must call Wake or Idle for its own id, or it stays
// queued at that time and fires again.
type Source interface {
	Fire(s *Simulator)
}

// source is a registered Source: key is rank<<32 | id, and pos is where
// its node is in the waiting heap, or -1 while it is idle.
type source struct {
	Source
	key uint64
	pos int32
}

// Simulator is a single-threaded discrete-event simulation. The zero value
// is not usable; construct one with New.
type Simulator struct {
	now    Time
	seq    uint64
	events eventHeap
	// sources are the registered sources by id, and waiting is a binary
	// min-heap by (at, key) of the nodes of those that are not idle, each
	// node's slot its source's id, followed by one sentinel.
	sources []source
	waiting []node
	rng     *rand.Rand
	// slots is the event slab and free the indices of its fired and
	// cancelled entries, bounding steady-state allocation to the peak
	// number of simultaneously pending events.
	slots []slot
	free  []uint32
	// Processed counts events that have run, for diagnostics and test
	// assertions about simulation effort.
	Processed uint64
}

// New returns a Simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed)), events: newEventHeap(), waiting: []node{sentinel}}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// At schedules ev to run at absolute time t. Scheduling in the past (t <
// Now) panics: it would silently reorder causality.
func (s *Simulator) At(t Time, ev Event) Handle {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	var idx uint32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		idx = uint32(len(s.slots))
		s.slots = append(s.slots, slot{})
	}
	sl := &s.slots[idx]
	sl.ev, sl.cancelled, sl.queued = ev, false, true
	s.events.push(node{t, ordinary | s.seq, idx})
	s.seq++
	return Handle{s, idx, sl.gen}
}

// Register adds src, idle, and returns its id. Sources fire before the
// ordinary events of their instant, by rank and then in order of
// registration; rank must be below 1<<30.
func (s *Simulator) Register(src Source, rank uint32) uint32 {
	id := uint32(len(s.sources))
	s.sources = append(s.sources, source{src, uint64(rank)<<32 | uint64(id), -1})
	return id
}

// Wake queues source id to fire at t, in place of any time it was queued
// at. Waking in the past panics, as At does.
func (s *Simulator) Wake(id uint32, t Time) {
	if t < s.now {
		panic("sim: source woken in the past")
	}
	i := int(s.sources[id].pos)
	if i < 0 {
		i = len(s.waiting) - 1
		s.waiting = append(s.waiting, sentinel)
	}
	s.place(i, node{t, s.sources[id].key, id})
}

// Idle takes source id out of the queue until it is next woken.
func (s *Simulator) Idle(id uint32) {
	i := int(s.sources[id].pos)
	if i < 0 {
		return
	}
	s.sources[id].pos = -1
	n := len(s.waiting) - 2
	last := s.waiting[n]
	s.waiting[n] = sentinel
	if s.waiting = s.waiting[:n+1]; i < n {
		s.place(i, last)
	}
}

// place writes nd into the waiting heap at hole i, first moving the hole
// up past parents that sort after nd, then down past children that sort
// before it. The sentinel after the live nodes gives the last one a
// sibling, so the smaller child is computed, not branched on.
func (s *Simulator) place(i int, nd node) {
	a, n := s.waiting, len(s.waiting)-1
	for i > 0 {
		p := (i - 1) / 2
		if before(&nd, &a[p]) == 0 {
			break
		}
		a[i] = a[p]
		s.sources[a[i].slot].pos = int32(i)
		i = p
	}
	for c := 2*i + 1; c < n; c = 2*i + 1 {
		c += before(&a[c+1], &a[c])
		if before(&a[c], &nd) == 0 {
			break
		}
		a[i] = a[c]
		s.sources[a[i].slot].pos = int32(i)
		i = c
	}
	a[i] = nd
	s.sources[nd.slot].pos = int32(i)
}

// next returns the earliest pending node and whether it is a source's.
// With nothing pending it returns the heap's sentinel, whose at is
// negative.
func (s *Simulator) next() (*node, bool) {
	if before(&s.waiting[0], &s.events[0]) != 0 {
		return &s.waiting[0], true
	}
	return &s.events[0], false
}

// fireSource fires the earliest waiting source, which stays queued until
// it wakes again or goes idle.
func (s *Simulator) fireSource() {
	nd := s.waiting[0]
	s.now = nd.at
	s.Processed++
	s.sources[nd.slot].Fire(s)
}

// fire consumes a popped node: it recycles the slot, which invalidates
// every Handle that still names it, and runs the event unless it was
// cancelled. A slot whose gen would wrap is retired instead of reused, so a
// Handle can never match a later occupant.
func (s *Simulator) fire(nd node) bool {
	sl := &s.slots[nd.slot]
	ev, cancelled := sl.ev, sl.cancelled
	sl.ev, sl.queued = nil, false
	if sl.gen++; sl.gen != 0 {
		s.free = append(s.free, nd.slot)
	}
	if cancelled {
		return false
	}
	s.now = nd.at
	s.Processed++
	ev.Run(s)
	return true
}

// After schedules ev to run d after the current time, saturating at
// MaxTime (Rate(0).TxTime returns MaxTime for "never").
func (s *Simulator) After(d Duration, ev Event) Handle { return s.At(s.now.Add(max(d, 0)), ev) }

// AtFunc and AfterFunc are convenience wrappers for function events.
func (s *Simulator) AtFunc(t Time, f func(*Simulator)) Handle { return s.At(t, EventFunc(f)) }
func (s *Simulator) AfterFunc(d Duration, f func(*Simulator)) Handle {
	return s.After(d, EventFunc(f))
}

// Pending reports the number of events in the queue, including cancelled
// events that have not yet been discarded, and of sources waiting to fire.
func (s *Simulator) Pending() int { return s.events.live() + len(s.waiting) - 1 }

// Step runs the single earliest pending event or source. It reports false
// when the queue is empty.
func (s *Simulator) Step() bool {
	for nd, src := s.next(); nd.at >= 0; nd, src = s.next() {
		if src {
			s.fireSource()
			return true
		}
		if s.fire(s.events.pop()) {
			return true
		}
	}
	return false
}

// Run processes events until the queue drains.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil processes events and sources with timestamps ≤ end, then
// advances the clock to end. Those after end remain queued, except that a
// cancelled event at the head of the queue is discarded whatever its
// timestamp.
func (s *Simulator) RunUntil(end Time) {
	for nd, src := s.next(); nd.at >= 0 && (nd.at <= end || !src && s.slots[nd.slot].cancelled); nd, src = s.next() {
		if src {
			s.fireSource()
		} else {
			s.fire(s.events.pop())
		}
	}
	if s.now < end {
		s.now = end
	}
}
