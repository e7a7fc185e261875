package qos

import (
	"testing"
	"testing/quick"
)

func TestPriorityQoSBijection(t *testing.T) {
	for _, p := range []Priority{PC, NC, BE} {
		if got := MapQoSToPriority(MapPriorityToQoS(p)); got != p {
			t.Errorf("round trip %v -> %v", p, got)
		}
	}
	if MapPriorityToQoS(PC) != High || MapPriorityToQoS(NC) != Medium || MapPriorityToQoS(BE) != Low {
		t.Error("Phase-1 mapping is not PC→QoSh, NC→QoSm, BE→QoSl")
	}
}

func TestStrings(t *testing.T) {
	cases := map[string]string{
		High.String():        "QoSh",
		Medium.String():      "QoSm",
		Low.String():         "QoSl",
		Class(5).String():    "QoS5",
		PC.String():          "PC",
		NC.String():          "NC",
		BE.String():          "BE",
		Priority(9).String(): "Priority(9)",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestWeightsValidate(t *testing.T) {
	if err := (Weights{8, 4, 1}).Validate(); err != nil {
		t.Errorf("standard weights invalid: %v", err)
	}
	bad := []Weights{{}, {0, 1}, {-1}, {1, 4}} // empty, zero, negative, increasing
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("Validate(%v) = nil, want error", w)
		}
	}
}

func TestMixCounter(t *testing.T) {
	mc := NewMixCounter(3)
	if got := mc.Mix(); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Errorf("empty counter mix = %v", got)
	}
	mc.Add(High, 600)
	mc.Add(Medium, 300)
	mc.Add(Low, 100)
	mc.Add(Class(42), 1e6) // ignored out-of-range
	m := mc.Mix()
	if m[High] != 0.6 || m[Medium] != 0.3 || m[Low] != 0.1 {
		t.Errorf("mix = %v", m)
	}
	if mc.Total() != 1000 {
		t.Errorf("Total = %d", mc.Total())
	}
	if mc.Bytes(Medium) != 300 {
		t.Errorf("Bytes(Medium) = %d", mc.Bytes(Medium))
	}
}

// Property: Validate accepts any positive non-increasing weights, so each
// class's share φi/Σφ lies in (0,1], and rejects them once a lower class is
// raised above the class before it.
func TestWeightSharesProperty(t *testing.T) {
	f := func(raw []uint8, at uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		w := make(Weights, len(raw))
		prev := 256.0
		for i, v := range raw {
			x := float64(v%64) + 1
			if x > prev {
				x = prev
			}
			w[i] = x
			prev = x
		}
		if err := w.Validate(); err != nil {
			return false
		}
		if len(w) == 1 {
			return true
		}
		i := 1 + int(at)%(len(w)-1)
		w[i] = w[i-1] + 1
		return w.Validate() != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
