package fifo

import "testing"

// same fails t unless q holds exactly model, front first.
func same(t *testing.T, q *Queue[int], model []int) {
	t.Helper()
	if q.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", q.Len(), len(model))
	}
	for i, want := range model {
		if got := *q.At(i); got != want {
			t.Fatalf("At(%d) = %d, model %d", i, got, want)
		}
	}
	if len(model) > 0 && *q.Front() != model[0] {
		t.Fatalf("Front = %d, model %d", *q.Front(), model[0])
	}
}

// TestQueueMatchesSlice runs push/pop programs against a slice model: a
// positive step pushes that many fresh values, a negative one pops that
// many. The programs cross the ring's wrap and grow it while it is wrapped
// (head past slot 0), where the copy must unroll the two halves in order.
func TestQueueMatchesSlice(t *testing.T) {
	for name, steps := range map[string][]int{
		"fill and drain":      {8, -8, 8, -8},
		"grow from empty":     {1, 7, 1, 30, -39},
		"wrap":                {6, -4, 5, -7, 6, -6},
		"grow while wrapped":  {8, -5, 4, 9, -16},
		"grow twice, wrapped": {8, -3, 3, -2, 20, -1, 40, -65},
		"one at a time":       {1, -1, 1, 1, -1, 1, 1, 1, -1, -1, -1, -1},
	} {
		t.Run(name, func(t *testing.T) {
			var q Queue[int]
			var model []int
			next := 0
			for _, n := range steps {
				for ; n > 0; n-- {
					q.Push(next)
					model = append(model, next)
					next++
				}
				for ; n < 0; n++ {
					if got := q.Pop(); got != model[0] {
						t.Fatalf("Pop = %d, model %d", got, model[0])
					}
					model = model[1:]
				}
				same(t, &q, model)
			}
		})
	}
}

func TestFrontWritesReachPop(t *testing.T) {
	var q Queue[int]
	q.Push(1)
	q.Push(2)
	*q.Front() = 10
	*q.At(1) = 20
	if a, b := q.Pop(), q.Pop(); a != 10 || b != 20 {
		t.Fatalf("popped %d, %d after writing 10, 20 in place", a, b)
	}
}

// TestPopClearsSlot: a popped pointer must not stay reachable from the
// ring, or a queue that drained keeps its last packets and messages alive.
func TestPopClearsSlot(t *testing.T) {
	var q Queue[*int]
	for i := range 11 { // grows once, then wraps
		q.Push(new(int))
		if i%2 == 0 {
			q.Pop()
		}
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a popped item", i)
		}
	}
}

func TestEmptyPanics(t *testing.T) {
	// Each case gets its own queue: "At" pushes, and a shared queue would
	// let a Pop or Front that the map happens to run after it succeed.
	for name, f := range map[string]func(q *Queue[int]){
		"Pop":   func(q *Queue[int]) { q.Pop() },
		"Front": func(q *Queue[int]) { q.Front() },
		"At":    func(q *Queue[int]) { q.Push(1); q.At(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past the back did not panic", name)
				}
			}()
			var q Queue[int]
			f(&q)
		}()
	}
}

func TestSteadyStateAllocs(t *testing.T) {
	var q Queue[*int]
	v := new(int)
	for range 100 {
		q.Push(v)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		q.Push(v)
		q.Pop()
	}); allocs != 0 {
		t.Fatalf("push/pop at a warm queue's peak: %v allocs, want 0", allocs)
	}
}

// FuzzQueue decodes each byte into an operation (low two bits: push,
// push, pop, in-place read and write at an index taken from the high
// bits) and compares Pop, Front, At and Len with a slice model after
// every step.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 1, 3, 2, 2})
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x02\x02\x02\x00\x00\x00\x00\x07\x0b"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		var q Queue[int]
		var model []int
		for i, b := range prog {
			switch b & 3 {
			case 0, 1:
				q.Push(i)
				model = append(model, i)
			case 2:
				if len(model) == 0 {
					continue
				}
				if got := q.Pop(); got != model[0] {
					t.Fatalf("op %d: Pop = %d, model %d", i, got, model[0])
				}
				model = model[1:]
			case 3:
				if len(model) == 0 {
					continue
				}
				j := int(b>>2) % len(model)
				*q.At(j) = -i
				model[j] = -i
			}
			same(t, &q, model)
		}
	})
}
