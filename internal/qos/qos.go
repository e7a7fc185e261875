// Package qos models network Quality-of-Service classes and the mapping
// between application RPC priority classes and QoS levels (Phase 1 of
// Aequitas, §5).
//
// The paper uses three levels — QoSh, QoSm, QoSl — served by weighted fair
// queues in switches, and three RPC priority classes — performance-critical
// (PC), non-critical (NC), and best-effort (BE). The design "organically
// extends to larger numbers of QoS priority classes", so this package is
// parameterised over the number of levels.
package qos

import "fmt"

// Class identifies a network QoS level. Lower values are higher priority
// (class 0 has the largest WFQ weight), matching the indexing in §4 where
// lower i indicates a higher weight.
type Class int

// The three standard levels used throughout the paper.
const (
	High   Class = 0 // QoSh
	Medium Class = 1 // QoSm
	Low    Class = 2 // QoSl (scavenger; no SLO)
)

func (c Class) String() string {
	switch c {
	case High:
		return "QoSh"
	case Medium:
		return "QoSm"
	case Low:
		return "QoSl"
	default:
		return fmt.Sprintf("QoS%d", int(c))
	}
}

// Priority is an application-level RPC priority class (§2.1).
type Priority int

const (
	PC Priority = iota // performance-critical: tail latency SLOs
	NC                 // non-critical: sustained rate, looser SLOs
	BE                 // best-effort: scavenger, no SLOs
)

func (p Priority) String() string {
	switch p {
	case PC:
		return "PC"
	case NC:
		return "NC"
	case BE:
		return "BE"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// MapPriorityToQoS is the Phase-1 bijective mapping: PC→QoSh, NC→QoSm,
// BE→QoSl (Algorithm 1 line 6).
func MapPriorityToQoS(p Priority) Class { return Class(p) }

// MapQoSToPriority inverts the Phase-1 mapping.
func MapQoSToPriority(c Class) Priority { return Priority(c) }

// Weights holds WFQ weights per QoS class, index 0 = highest class.
type Weights []float64

// Validate reports an error unless every weight is positive and weights are
// non-increasing from class 0 (higher class must not have a smaller weight
// than a lower class, or the "priority" labelling is meaningless).
func (w Weights) Validate() error {
	if len(w) == 0 {
		return fmt.Errorf("qos: no weights")
	}
	for i, x := range w {
		if x <= 0 {
			return fmt.Errorf("qos: weight[%d] = %v, must be positive", i, x)
		}
		if i > 0 && x > w[i-1] {
			return fmt.Errorf("qos: weight[%d] = %v exceeds weight[%d] = %v; higher classes need larger weights", i, x, i-1, w[i-1])
		}
	}
	return nil
}

// Mix is a QoS-mix: the fraction of arriving traffic on each class
// (the N-tuple (a1/a, ..., aN/a) of §4.1). Fractions sum to 1.
type Mix []float64

// MixCounter tallies bytes observed per QoS class and produces the
// empirical Mix, used to report admitted QoS-mix in experiments.
type MixCounter struct {
	bytes []int64
}

// NewMixCounter returns a counter over n classes.
func NewMixCounter(n int) *MixCounter { return &MixCounter{bytes: make([]int64, n)} }

// Add records n bytes on class c.
func (mc *MixCounter) Add(c Class, n int64) {
	if int(c) >= 0 && int(c) < len(mc.bytes) {
		mc.bytes[c] += n
	}
}

// Bytes returns the byte count for class c.
func (mc *MixCounter) Bytes(c Class) int64 {
	if int(c) < 0 || int(c) >= len(mc.bytes) {
		return 0
	}
	return mc.bytes[c]
}

// Total returns the total bytes across classes.
func (mc *MixCounter) Total() int64 {
	var t int64
	for _, b := range mc.bytes {
		t += b
	}
	return t
}

// Mix returns the empirical byte-weighted mix; all-zero when no traffic.
func (mc *MixCounter) Mix() Mix {
	m := make(Mix, len(mc.bytes))
	t := mc.Total()
	if t == 0 {
		return m
	}
	for i, b := range mc.bytes {
		m[i] = float64(b) / float64(t)
	}
	return m
}
