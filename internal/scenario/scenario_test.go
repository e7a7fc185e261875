package scenario

import (
	"reflect"
	"testing"

	"aequitas/internal/wfq"
)

// TestSchedulerFamilies pins each system's switch scheduler: four
// families, shared as the systems' papers deploy them.
func TestSchedulerFamilies(t *testing.T) {
	want := map[string]string{
		"baseline": "*wfq.WFQ",
		"aequitas": "*wfq.WFQ",
		"spq":      "*wfq.SPQ",
		"qjump":    "*wfq.SPQ",
		"pfabric":  "*wfq.PriorityQueue",
		"homa":     "*wfq.PriorityQueue",
		"d3":       "*wfq.FIFO",
		"pdq":      "*wfq.FIFO",
	}
	if len(Systems) != len(want) {
		t.Fatalf("%d systems, want %d", len(Systems), len(want))
	}
	for _, sys := range Systems {
		var s wfq.Scheduler = sys.Sched([]float64{8, 4, 1}, 1<<20)()
		if got := reflect.TypeOf(s).String(); got != want[sys.Name] {
			t.Errorf("%s scheduler = %s, want %s", sys.Name, got, want[sys.Name])
		}
	}
}

func TestUniformPatternSharesOneSlice(t *testing.T) {
	as, err := Uniform{}.Expand(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 {
		t.Fatalf("uniform expanded to %d assignments", len(as))
	}
	a := as[0]
	if !a.ExcludeSelf {
		t.Error("uniform assignment must exclude self")
	}
	if len(a.Hosts) != 5 || len(a.Dsts) != 5 {
		t.Errorf("hosts/dsts = %v / %v", a.Hosts, a.Dsts)
	}
	if &a.Hosts[0] != &a.Dsts[0] {
		t.Error("uniform should share one id slice between senders and destinations")
	}
}

func TestIncastPattern(t *testing.T) {
	as, err := Incast{Fanin: 3}.Expand(6)
	if err != nil {
		t.Fatal(err)
	}
	a := as[0]
	if !reflect.DeepEqual(a.Hosts, []int{1, 2, 3}) || !reflect.DeepEqual(a.Dsts, []int{0}) {
		t.Errorf("incast(3) = %v -> %v", a.Hosts, a.Dsts)
	}
	// Default fan-in: everyone else.
	as, err = Incast{Dst: 2}.Expand(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(as[0].Hosts, []int{0, 1, 3}) {
		t.Errorf("default incast senders = %v", as[0].Hosts)
	}
	if _, err := (Incast{Fanin: 9}).Expand(4); err == nil {
		t.Error("oversized fan-in accepted")
	}
	if _, err := (Incast{Dst: 7}).Expand(4); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestPermutationPattern(t *testing.T) {
	as, err := Permutation{}.Expand(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 4 {
		t.Fatalf("%d assignments", len(as))
	}
	for i, a := range as {
		if len(a.Hosts) != 1 || len(a.Dsts) != 1 || a.Dsts[0] != (i+1)%4 {
			t.Errorf("assignment %d: %v -> %v", i, a.Hosts, a.Dsts)
		}
	}
}

func TestHotspotPatternWeights(t *testing.T) {
	p := Hotspot{Hot: 1, Share: 0.6}
	as, err := p.Expand(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 5 {
		t.Fatalf("%d assignments", len(as))
	}
	for _, a := range as {
		sender := a.Hosts[0]
		if sender == 1 {
			if a.Weights != nil || !a.ExcludeSelf {
				t.Error("hot host should send uniformly to the others")
			}
			continue
		}
		var sum float64
		for j, w := range a.Weights {
			sum += w
			if j == sender && w != 0 {
				t.Errorf("sender %d weighs itself %v", sender, w)
			}
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("sender %d weights sum to %v", sender, sum)
		}
		if a.Weights[1] != 0.6 {
			t.Errorf("sender %d hotspot weight %v", sender, a.Weights[1])
		}
	}
	if _, err := (Hotspot{Hot: 0, Share: 1.5}).Expand(5); err == nil {
		t.Error("share > 1 accepted")
	}
	if _, err := (Hotspot{Hot: 9, Share: 0.5}).Expand(5); err == nil {
		t.Error("out-of-range hot host accepted")
	}
}
