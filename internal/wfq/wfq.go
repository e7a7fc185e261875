// Package wfq implements the packet scheduling disciplines used at switch
// egress ports: weighted fair queuing (self-clocked virtual-time WFQ),
// strict priority queuing (SPQ), FIFO, and the urgency-ordered priority
// queue used by pFabric- and Homa-style baselines.
//
// The paper treats WFQ as the general scheduling mechanism with
// Virtual-Time/PGPS and DWRR as implementations (§2.3, footnote 1); this
// package provides the virtual-time one.
package wfq

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"

	"aequitas/internal/fifo"
)

// validateWeights panics unless every class weight is a positive finite
// number. A zero or negative weight would make WFQ's finish-tag division
// produce +Inf/NaN virtual times, which silently corrupts scheduling
// order; failing loudly at construction mirrors the qos.Weights
// validation the public simulation config applies.
func validateWeights(weights []float64) {
	if len(weights) == 0 {
		panic("wfq: no class weights")
	}
	for i, w := range weights {
		if !(w > 0) || math.IsInf(w, 1) {
			panic(fmt.Sprintf("wfq: weight[%d] = %v, must be positive and finite", i, w))
		}
	}
}

// Item is anything schedulable: a packet with a size, a QoS class, and an
// urgency metric used only by priority-based disciplines (lower urgency is
// served first, e.g. remaining flow size for pFabric's SRPT).
type Item interface {
	SizeBytes() int
	QoS() int
	Urgency() int64
}

// Scheduler is one egress port's queuing discipline. Enqueue returns the
// items dropped to make room, which may include the offered item itself
// (drop-tail) or previously queued items (pFabric drops the least urgent).
// Dequeue returns the next item to transmit, or nil when empty.
type Scheduler interface {
	Enqueue(it Item) (dropped []Item)
	Dequeue() Item
	QueuedBytes() int
	QueuedItems() int
	// BytesFor reports queued bytes for one QoS class, for occupancy
	// instrumentation.
	BytesFor(class int) int
}

// WFQ is a self-clocked fair queueing (SCFQ) scheduler: each arriving
// packet receives a virtual finish tag F = max(F_prev(class), V) + L/φ and
// the packet with the smallest finish tag is served next, where V is the
// finish tag of the packet most recently dequeued. SCFQ approximates PGPS
// within one packet per queue, which is the fidelity the Figure 10
// validation relies on.
type WFQ struct {
	weights  []float64
	capBytes int // per-class byte capacity (0 = unlimited)

	virt   float64
	lastF  []float64
	queues []fifo.Queue[taggedItem]
	bytes  []int // queued bytes per class
	qBytes int
	qItems int
	// active is a bitmask of backlogged class queues (bit c set when
	// queues[c] is non-empty), so Dequeue visits only classes with work
	// instead of scanning every configured class. Maintained only when the
	// class count fits a word; wider configurations fall back to a scan.
	active uint64
}

type taggedItem struct {
	it     Item
	finish float64
	size   int // it.SizeBytes(), read once at Enqueue
}

// NewWFQ returns a WFQ over len(weights) classes. perClassBytes bounds
// each class queue (0 means unlimited, used for theory-validation runs).
// NewWFQ panics if any weight is zero, negative, or non-finite.
func NewWFQ(weights []float64, perClassBytes int) *WFQ {
	validateWeights(weights)
	w := &WFQ{
		weights:  append([]float64(nil), weights...),
		capBytes: perClassBytes,
		lastF:    make([]float64, len(weights)),
		queues:   make([]fifo.Queue[taggedItem], len(weights)),
		bytes:    make([]int, len(weights)),
	}
	return w
}

// Enqueue implements Scheduler.
func (w *WFQ) Enqueue(it Item) []Item {
	c := it.QoS()
	if c < 0 || c >= len(w.queues) {
		c = len(w.queues) - 1
	}
	size := it.SizeBytes()
	if w.capBytes > 0 && w.bytes[c]+size > w.capBytes {
		return []Item{it}
	}
	start := w.lastF[c]
	if w.virt > start {
		start = w.virt
	}
	finish := start + float64(size)/w.weights[c]
	w.lastF[c] = finish
	w.queues[c].Push(taggedItem{it, finish, size})
	w.bytes[c] += size
	if c < 64 {
		w.active |= 1 << uint(c)
	}
	w.qBytes += size
	w.qItems++
	return nil
}

// Dequeue implements Scheduler: serve the head-of-line packet with the
// smallest virtual finish tag.
func (w *WFQ) Dequeue() Item {
	best := -1
	var bestF float64
	if len(w.queues) <= 64 {
		// Visit only backlogged classes via the active mask.
		for m := w.active; m != 0; m &= m - 1 {
			c := bits.TrailingZeros64(m)
			if f := w.queues[c].Front().finish; best < 0 || f < bestF {
				best, bestF = c, f
			}
		}
	} else {
		for c := range w.queues {
			q := &w.queues[c]
			if q.Len() == 0 {
				continue
			}
			if f := q.Front().finish; best < 0 || f < bestF {
				best, bestF = c, f
			}
		}
	}
	if best < 0 {
		// All queues empty: reset virtual time so long idle periods do
		// not inflate future tags.
		w.virt = 0
		for i := range w.lastF {
			w.lastF[i] = 0
		}
		return nil
	}
	q := &w.queues[best]
	ti := q.Pop()
	if q.Len() == 0 && best < 64 {
		w.active &^= 1 << uint(best)
	}
	w.bytes[best] -= ti.size
	w.qBytes -= ti.size
	w.qItems--
	w.virt = ti.finish
	return ti.it
}

func (w *WFQ) QueuedBytes() int { return w.qBytes }
func (w *WFQ) QueuedItems() int { return w.qItems }
func (w *WFQ) BytesFor(c int) int {
	if c < 0 || c >= len(w.bytes) {
		return 0
	}
	return w.bytes[c]
}

// SPQ is strict priority queuing: class 0 is always served before class 1,
// and so on. The paper evaluates SPQ as the discipline that fails the race
// to the top (§6.7).
type SPQ struct {
	capBytes int
	queues   []fifo.Queue[Item]
	bytes    []int // queued bytes per class
	qBytes   int
	qItems   int
}

// NewSPQ returns a strict-priority scheduler over levels classes.
func NewSPQ(levels, perClassBytes int) *SPQ {
	return &SPQ{
		capBytes: perClassBytes,
		queues:   make([]fifo.Queue[Item], levels),
		bytes:    make([]int, levels),
	}
}

// Enqueue implements Scheduler.
func (s *SPQ) Enqueue(it Item) []Item {
	c := it.QoS()
	if c < 0 || c >= len(s.queues) {
		c = len(s.queues) - 1
	}
	size := it.SizeBytes()
	if s.capBytes > 0 && s.bytes[c]+size > s.capBytes {
		return []Item{it}
	}
	s.queues[c].Push(it)
	s.bytes[c] += size
	s.qBytes += size
	s.qItems++
	return nil
}

// Dequeue implements Scheduler.
func (s *SPQ) Dequeue() Item {
	for c := range s.queues {
		if s.queues[c].Len() > 0 {
			it := s.queues[c].Pop()
			size := it.SizeBytes()
			s.bytes[c] -= size
			s.qBytes -= size
			s.qItems--
			return it
		}
	}
	return nil
}

func (s *SPQ) QueuedBytes() int { return s.qBytes }
func (s *SPQ) QueuedItems() int { return s.qItems }
func (s *SPQ) BytesFor(c int) int {
	if c < 0 || c >= len(s.bytes) {
		return 0
	}
	return s.bytes[c]
}

// FIFO is a single first-in-first-out queue ignoring QoS classes, the
// degenerate single-QoS discipline.
type FIFO struct {
	capBytes int
	q        fifo.Queue[Item]
	bytes    int
}

// NewFIFO returns a FIFO with the given byte capacity (0 = unlimited).
func NewFIFO(capBytes int) *FIFO { return &FIFO{capBytes: capBytes} }

// Enqueue implements Scheduler.
func (f *FIFO) Enqueue(it Item) []Item {
	if f.capBytes > 0 && f.bytes+it.SizeBytes() > f.capBytes {
		return []Item{it}
	}
	f.q.Push(it)
	f.bytes += it.SizeBytes()
	return nil
}

// Dequeue implements Scheduler.
func (f *FIFO) Dequeue() Item {
	if f.q.Len() == 0 {
		return nil
	}
	it := f.q.Pop()
	f.bytes -= it.SizeBytes()
	return it
}

func (f *FIFO) QueuedBytes() int { return f.bytes }
func (f *FIFO) QueuedItems() int { return f.q.Len() }
func (f *FIFO) BytesFor(int) int { return f.bytes }

// PriorityQueue serves the most urgent item first (smallest Urgency), with
// FIFO order among equal urgencies, and when full makes room by discarding
// the least urgent queued item if the arrival is more urgent (pFabric's
// enqueue/drop policy).
type PriorityQueue struct {
	capBytes int
	h        urgencyHeap
	bytes    int
}

// NewPriorityQueue returns a priority queue with the given byte capacity
// (0 = unlimited).
func NewPriorityQueue(capBytes int) *PriorityQueue {
	return &PriorityQueue{capBytes: capBytes}
}

type pqEntry struct {
	it  Item
	seq uint64
}

type urgencyHeap struct {
	entries []pqEntry
	seq     uint64
}

func (h urgencyHeap) Len() int { return len(h.entries) }
func (h urgencyHeap) Less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.it.Urgency() != b.it.Urgency() {
		return a.it.Urgency() < b.it.Urgency()
	}
	return a.seq < b.seq
}
func (h urgencyHeap) Swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *urgencyHeap) Push(x any)   { h.entries = append(h.entries, x.(pqEntry)) }
func (h *urgencyHeap) Pop() any {
	old := h.entries
	n := len(old)
	e := old[n-1]
	old[n-1] = pqEntry{}
	h.entries = old[:n-1]
	return e
}

// Enqueue implements Scheduler.
func (p *PriorityQueue) Enqueue(it Item) []Item {
	var dropped []Item
	for p.capBytes > 0 && p.bytes+it.SizeBytes() > p.capBytes {
		worst := p.leastUrgentIndex()
		if worst < 0 {
			return append(dropped, it)
		}
		w := p.h.entries[worst].it
		if w.Urgency() <= it.Urgency() {
			// Arrival is no more urgent than everything queued: drop it.
			return append(dropped, it)
		}
		heap.Remove(&p.h, worst)
		p.bytes -= w.SizeBytes()
		dropped = append(dropped, w)
	}
	p.h.seq++
	heap.Push(&p.h, pqEntry{it, p.h.seq})
	p.bytes += it.SizeBytes()
	return dropped
}

func (p *PriorityQueue) leastUrgentIndex() int {
	worst := -1
	for i, e := range p.h.entries {
		if worst < 0 {
			worst = i
			continue
		}
		w := p.h.entries[worst]
		if e.it.Urgency() > w.it.Urgency() ||
			(e.it.Urgency() == w.it.Urgency() && e.seq > w.seq) {
			worst = i
		}
	}
	return worst
}

// Dequeue implements Scheduler.
func (p *PriorityQueue) Dequeue() Item {
	if p.h.Len() == 0 {
		return nil
	}
	e := heap.Pop(&p.h).(pqEntry)
	p.bytes -= e.it.SizeBytes()
	return e.it
}

func (p *PriorityQueue) QueuedBytes() int { return p.bytes }
func (p *PriorityQueue) QueuedItems() int { return p.h.Len() }
func (p *PriorityQueue) BytesFor(c int) int {
	total := 0
	for _, e := range p.h.entries {
		if e.it.QoS() == c {
			total += e.it.SizeBytes()
		}
	}
	return total
}
