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

// node is one heap entry: the sort key and the index of the event's slot.
// It holds no pointer, so a sift moves 24-byte values inside one backing
// array that the garbage collector never scans, and writes nothing else.
type node struct {
	at   Time
	key  uint64
	slot uint32
}

// ordinary is set in the key of an event scheduled by At or After, above
// its sequence number, so it runs after every AfterFirst event of its
// instant, whose key is its id.
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

// numLanes is how many recurring delays get a FIFO of their own, and
// numMissed how many recently missed delays are remembered to tell a
// recurring delay from a one-off.
const numLanes, numMissed = 8, 4

// lane is a FIFO ring of the events scheduled one fixed delay ahead of the
// clock. The clock never runs backwards and seq only grows, so successive
// At(now+delay) calls arrive in (at, key) order: for one delay the arrival
// order is the priority order, and the ring's head is its minimum (see the
// package comment for what a packet run gains by it).
type lane struct {
	first node   // copy of the ring's head while n > 0: finding the minimum follows no pointer
	q     []node // ring; len(q) is zero or a power of two
	head  uint32 // index of the first node, taken modulo len(q)
	n     uint32
}

func (l *lane) at(i uint32) *node { return &l.q[(l.head+i)&uint32(len(l.q)-1)] }

// push appends nd, doubling the ring when it is full.
func (l *lane) push(nd node) {
	if int(l.n) == len(l.q) {
		q := make([]node, max(64, 2*len(l.q)))
		for i := uint32(0); i < l.n; i++ {
			q[i] = *l.at(i)
		}
		l.q, l.head = q, 0
	}
	*l.at(l.n) = nd
	l.n++
}

// Simulator is a single-threaded discrete-event simulation. The zero value
// is not usable; construct one with New.
type Simulator struct {
	now    Time
	seq    uint64
	events eventHeap
	// lanes hold the events of recurring delays beside the heap, bit i of
	// occupied set while lanes[i] is non-empty. missed is the last delays
	// that matched no lane: one seen there again takes over an empty lane.
	lanes    [numLanes]lane
	delays   [numLanes]Duration // the lanes' keys; -1 until claimed
	occupied uint32
	missed   [numMissed]Duration
	nmissed  uint32
	rng      *rand.Rand
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
	s := &Simulator{rng: rand.New(rand.NewSource(seed)), events: newEventHeap()}
	for i := range s.delays {
		s.delays[i] = -1
	}
	return s
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
	key := ordinary | s.seq
	s.seq++
	return s.schedule(t, key, ev)
}

// AfterFirst schedules ev d after now, saturating like After, to run before
// every ordinary event of its instant. Such events of one instant run in
// order of id, whatever order they were scheduled in: ids must differ.
func (s *Simulator) AfterFirst(d Duration, id uint32, ev Event) Handle {
	return s.schedule(s.now.Add(max(d, 0)), uint64(id), ev)
}

// schedule queues ev at t under key.
func (s *Simulator) schedule(t Time, key uint64, ev Event) Handle {
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
	s.enqueue(node{t, key, idx})
	return Handle{s, idx, sl.gen}
}

// enqueue puts nd in the lane of its delay if it has one, else in the heap.
// Where a node waits changes no order: earliest compares lane heads and the
// heap top by (at, key). The tail check compares the whole key: an
// AfterFirst node can sort before its delay's lane tail of the same
// instant, and then it waits in the heap.
func (s *Simulator) enqueue(nd node) {
	d := nd.at - s.now
	i := 0
	for i < numLanes && s.delays[i] != d {
		i++
	}
	if i == numLanes {
		free := ^s.occupied & (1<<numLanes - 1)
		if !s.missedBefore(d) || free == 0 {
			s.events.push(nd)
			return
		}
		i = bits.TrailingZeros32(free)
		s.delays[i] = d
	}
	l := &s.lanes[i]
	if l.n == 0 {
		l.first = nd
		s.occupied |= 1 << i
	} else if before(&nd, l.at(l.n-1)) != 0 {
		s.events.push(nd)
		return
	}
	l.push(nd)
}

// missedBefore reports whether d is among the last numMissed delays that
// found no lane, and remembers it if not.
func (s *Simulator) missedBefore(d Duration) bool {
	for _, m := range s.missed[:min(s.nmissed, numMissed)] {
		if m == d {
			return true
		}
	}
	s.missed[s.nmissed%numMissed] = d
	s.nmissed++
	return false
}

// earliest returns the next node in (at, key) order and where it waits: a
// lane index, or -1 for the heap top. With nothing pending it returns the
// heap's sentinel, whose at is negative. With no lane occupied it costs one
// test, so the all-one-off case pays the heap and nothing else.
func (s *Simulator) earliest() (*node, int) {
	top := &s.events[0]
	if s.occupied == 0 {
		return top, -1
	}
	w := bits.TrailingZeros32(s.occupied) & (numLanes - 1)
	for m := s.occupied & (s.occupied - 1); m != 0; m &= m - 1 {
		if i := bits.TrailingZeros32(m) & (numLanes - 1); before(&s.lanes[i].first, &s.lanes[w].first) != 0 {
			w = i
		}
	}
	if before(top, &s.lanes[w].first) != 0 {
		return top, -1
	}
	return &s.lanes[w].first, w
}

// take removes the node earliest found at from.
func (s *Simulator) take(from int) node {
	if from < 0 {
		return s.events.pop()
	}
	l := &s.lanes[from]
	nd := l.first
	l.head++
	if l.n--; l.n == 0 {
		s.occupied &^= 1 << from
	} else {
		l.first = *l.at(0)
	}
	return nd
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
// events that have not yet been discarded.
func (s *Simulator) Pending() int {
	n := s.events.live()
	for i := range s.lanes {
		n += int(s.lanes[i].n)
	}
	return n
}

// Step runs the single earliest pending event. It reports false when the
// queue is empty.
func (s *Simulator) Step() bool {
	for head, from := s.earliest(); head.at >= 0; head, from = s.earliest() {
		if s.fire(s.take(from)) {
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

// RunUntil processes events with timestamps ≤ end, then advances the clock
// to end. Events scheduled after end remain queued, except that a cancelled
// event at the head of the queue is discarded whatever its timestamp.
func (s *Simulator) RunUntil(end Time) {
	for head, from := s.earliest(); head.at >= 0; head, from = s.earliest() {
		if head.at > end && !s.slots[head.slot].cancelled {
			break
		}
		s.fire(s.take(from))
	}
	if s.now < end {
		s.now = end
	}
}
