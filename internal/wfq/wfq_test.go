package wfq

import (
	"math"
	"testing"
	"testing/quick"
)

// testItem implements Item.
type testItem struct {
	size    int
	class   int
	urgency int64
	id      int
}

func (t *testItem) SizeBytes() int { return t.size }
func (t *testItem) QoS() int       { return t.class }
func (t *testItem) Urgency() int64 { return t.urgency }

func drainShares(s Scheduler, classes int, n int) []float64 {
	served := make([]float64, classes)
	var total float64
	for i := 0; i < n; i++ {
		it := s.Dequeue()
		if it == nil {
			break
		}
		served[it.QoS()] += float64(it.SizeBytes())
		total += float64(it.SizeBytes())
	}
	for i := range served {
		served[i] /= total
	}
	return served
}

// fill enqueues count packets per class of the given size.
func fill(s Scheduler, classes, count, size int) (dropped int) {
	for i := 0; i < count; i++ {
		for c := 0; c < classes; c++ {
			dropped += len(s.Enqueue(&testItem{size: size, class: c}))
		}
	}
	return dropped
}

func TestWFQWeightedShares(t *testing.T) {
	// With all classes persistently backlogged, the long-run service
	// shares must match the weights 4:1.
	w := NewWFQ([]float64{4, 1}, 0)
	fill(w, 2, 1000, 1500)
	shares := drainShares(w, 2, 500)
	if math.Abs(shares[0]-0.8) > 0.02 || math.Abs(shares[1]-0.2) > 0.02 {
		t.Errorf("WFQ shares = %v, want ~[0.8 0.2]", shares)
	}
}

func TestWFQThreeClassShares(t *testing.T) {
	w := NewWFQ([]float64{8, 4, 1}, 0)
	fill(w, 3, 1000, 1500)
	shares := drainShares(w, 3, 1300)
	want := []float64{8.0 / 13, 4.0 / 13, 1.0 / 13}
	for i := range want {
		if math.Abs(shares[i]-want[i]) > 0.02 {
			t.Errorf("class %d share = %v, want %v", i, shares[i], want[i])
		}
	}
}

func TestWFQWorkConserving(t *testing.T) {
	// A lone backlogged class gets the full link even with tiny weight.
	w := NewWFQ([]float64{8, 4, 1}, 0)
	for i := 0; i < 10; i++ {
		w.Enqueue(&testItem{size: 100, class: 2})
	}
	for i := 0; i < 10; i++ {
		it := w.Dequeue()
		if it == nil || it.QoS() != 2 {
			t.Fatalf("dequeue %d = %v", i, it)
		}
	}
	if w.Dequeue() != nil {
		t.Error("expected empty")
	}
}

func TestWFQFIFOWithinClass(t *testing.T) {
	w := NewWFQ([]float64{1}, 0)
	for i := 0; i < 5; i++ {
		w.Enqueue(&testItem{size: 100, class: 0, id: i})
	}
	for i := 0; i < 5; i++ {
		it := w.Dequeue().(*testItem)
		if it.id != i {
			t.Fatalf("out of order: got %d at %d", it.id, i)
		}
	}
}

func TestWFQDropTail(t *testing.T) {
	w := NewWFQ([]float64{4, 1}, 1000)
	var dropped int
	for i := 0; i < 20; i++ {
		dropped += len(w.Enqueue(&testItem{size: 300, class: 0}))
	}
	if dropped != 17 { // 3 × 300 = 900 fit; the rest drop
		t.Errorf("dropped %d, want 17", dropped)
	}
	if w.BytesFor(0) != 900 {
		t.Errorf("BytesFor(0) = %d", w.BytesFor(0))
	}
	// The other class has its own capacity.
	if got := w.Enqueue(&testItem{size: 300, class: 1}); len(got) != 0 {
		t.Error("independent class capacity violated")
	}
}

func TestWFQVirtualTimeResetWhenIdle(t *testing.T) {
	w := NewWFQ([]float64{4, 1}, 0)
	fill(w, 2, 10, 1500)
	for w.Dequeue() != nil {
	}
	// After going idle, a fresh burst must behave like a fresh system:
	// 4:1 shares again (tags reset rather than carrying stale credit).
	fill(w, 2, 1000, 1500)
	shares := drainShares(w, 2, 500)
	if math.Abs(shares[0]-0.8) > 0.02 {
		t.Errorf("post-idle shares = %v", shares)
	}
}

func TestWFQOutOfRangeClassGoesLowest(t *testing.T) {
	w := NewWFQ([]float64{4, 1}, 0)
	w.Enqueue(&testItem{size: 100, class: 7})
	if got := w.BytesFor(1); got != 100 {
		t.Errorf("out-of-range class bytes = %d, want 100 in lowest", got)
	}
}

func TestSPQStrictOrdering(t *testing.T) {
	s := NewSPQ(3, 0)
	s.Enqueue(&testItem{size: 100, class: 2, id: 1})
	s.Enqueue(&testItem{size: 100, class: 0, id: 2})
	s.Enqueue(&testItem{size: 100, class: 1, id: 3})
	s.Enqueue(&testItem{size: 100, class: 0, id: 4})
	order := []int{2, 4, 3, 1}
	for i, want := range order {
		it := s.Dequeue().(*testItem)
		if it.id != want {
			t.Fatalf("dequeue %d = id %d, want %d", i, it.id, want)
		}
	}
}

func TestSPQStarvation(t *testing.T) {
	// SPQ's defining pathology: a persistent high class starves the low
	// class entirely.
	s := NewSPQ(2, 0)
	for i := 0; i < 100; i++ {
		s.Enqueue(&testItem{size: 100, class: 0})
		s.Enqueue(&testItem{size: 100, class: 1})
	}
	for i := 0; i < 100; i++ {
		if it := s.Dequeue(); it.QoS() != 0 {
			t.Fatalf("low class served at %d while high backlogged", i)
		}
	}
}

func TestFIFOOrderAndCap(t *testing.T) {
	f := NewFIFO(250)
	f.Enqueue(&testItem{size: 100, class: 0, id: 1})
	f.Enqueue(&testItem{size: 100, class: 1, id: 2})
	if got := f.Enqueue(&testItem{size: 100, class: 0, id: 3}); len(got) != 1 {
		t.Fatal("FIFO overflow not dropped")
	}
	if f.QueuedBytes() != 200 || f.QueuedItems() != 2 {
		t.Errorf("bytes/items = %d/%d", f.QueuedBytes(), f.QueuedItems())
	}
	if f.Dequeue().(*testItem).id != 1 || f.Dequeue().(*testItem).id != 2 {
		t.Error("FIFO order violated")
	}
}

func TestPriorityQueueUrgencyOrder(t *testing.T) {
	p := NewPriorityQueue(0)
	p.Enqueue(&testItem{size: 100, urgency: 30, id: 1})
	p.Enqueue(&testItem{size: 100, urgency: 10, id: 2})
	p.Enqueue(&testItem{size: 100, urgency: 20, id: 3})
	p.Enqueue(&testItem{size: 100, urgency: 10, id: 4}) // FIFO among equals
	order := []int{2, 4, 3, 1}
	for i, want := range order {
		it := p.Dequeue().(*testItem)
		if it.id != want {
			t.Fatalf("dequeue %d = id %d, want %d", i, it.id, want)
		}
	}
}

func TestPriorityQueueDropsLeastUrgent(t *testing.T) {
	p := NewPriorityQueue(300)
	p.Enqueue(&testItem{size: 100, urgency: 1, id: 1})
	p.Enqueue(&testItem{size: 100, urgency: 50, id: 2})
	p.Enqueue(&testItem{size: 100, urgency: 20, id: 3})
	// Full. A more urgent arrival evicts the least urgent (id 2).
	dropped := p.Enqueue(&testItem{size: 100, urgency: 5, id: 4})
	if len(dropped) != 1 || dropped[0].(*testItem).id != 2 {
		t.Fatalf("dropped = %v, want id 2", dropped)
	}
	// A less urgent arrival than everything queued is itself dropped.
	dropped = p.Enqueue(&testItem{size: 100, urgency: 100, id: 5})
	if len(dropped) != 1 || dropped[0].(*testItem).id != 5 {
		t.Fatalf("dropped = %v, want the arrival itself", dropped)
	}
	if p.QueuedBytes() != 300 {
		t.Errorf("QueuedBytes = %d", p.QueuedBytes())
	}
}

func TestPriorityQueueBytesFor(t *testing.T) {
	p := NewPriorityQueue(0)
	p.Enqueue(&testItem{size: 100, class: 0, urgency: 1})
	p.Enqueue(&testItem{size: 200, class: 1, urgency: 2})
	if p.BytesFor(0) != 100 || p.BytesFor(1) != 200 || p.BytesFor(2) != 0 {
		t.Errorf("BytesFor = %d/%d/%d", p.BytesFor(0), p.BytesFor(1), p.BytesFor(2))
	}
}

// Conservation property: for every scheduler, bytes in = bytes out +
// bytes dropped + bytes queued.
func TestSchedulerConservationProperty(t *testing.T) {
	mk := map[string]func() Scheduler{
		"wfq":  func() Scheduler { return NewWFQ([]float64{4, 2, 1}, 2000) },
		"spq":  func() Scheduler { return NewSPQ(3, 2000) },
		"fifo": func() Scheduler { return NewFIFO(2000) },
		"pq":   func() Scheduler { return NewPriorityQueue(2000) },
	}
	for name, factory := range mk {
		f := func(ops []uint16) bool {
			s := factory()
			var in, out, drop int
			for _, op := range ops {
				if op%3 == 0 && s.QueuedItems() > 0 {
					if it := s.Dequeue(); it != nil {
						out += it.SizeBytes()
					}
					continue
				}
				size := int(op%1400) + 64
				class := int(op/3) % 3
				it := &testItem{size: size, class: class, urgency: int64(op)}
				in += size
				for _, d := range s.Enqueue(it) {
					drop += d.SizeBytes()
				}
			}
			return in == out+drop+s.QueuedBytes()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Weighted-share property across random weight vectors for WFQ.
func TestWeightedShareProperty(t *testing.T) {
	f := func(w1, w2 uint8) bool {
		a := float64(w1%15) + 1
		b := float64(w2%15) + 1
		s := NewWFQ([]float64{a, b}, 0)
		fill(s, 2, 800, 1500)
		shares := drainShares(s, 2, 600)
		return math.Abs(shares[0]-a/(a+b)) <= 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// mustPanic asserts that f panics: the weight guard against division by zero.
func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestNewWFQValidatesWeights(t *testing.T) {
	bad := [][]float64{nil, {}, {0, 1}, {4, -1}, {math.Inf(1)}, {math.NaN()}}
	for _, w := range bad {
		w := w
		mustPanic(t, "NewWFQ", func() { NewWFQ(w, 0) })
	}
	// Valid weights still construct, and finish tags stay finite.
	w := NewWFQ([]float64{4, 1}, 0)
	w.Enqueue(&testItem{size: 1500, class: 0})
	w.Enqueue(&testItem{size: 1500, class: 1})
	for it := w.Dequeue(); it != nil; it = w.Dequeue() {
	}
	if w.virt != 0 && (math.IsInf(w.virt, 0) || math.IsNaN(w.virt)) {
		t.Errorf("virtual time corrupted: %v", w.virt)
	}
}
