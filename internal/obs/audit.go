package obs

import (
	"slices"

	"aequitas/internal/qos"
	"aequitas/internal/stats"
)

// AuditConfig configures the online QoS-bound auditor.
type AuditConfig struct {
	// BoundUS is the per-class worst-case queueing bound in microseconds
	// (index = QoS class, highest first). Classes beyond the slice are
	// observed but never flagged. The bounds come from the network-calculus
	// model: normalized worst-case delay × burst period.
	BoundUS []float64
	// SlackUS is headroom added to every bound before flagging, absorbing
	// the packet-vs-fluid gap between the discrete simulator and the fluid
	// model (the simulator sits a few percent of a period above theory).
	SlackUS float64
	// Levels, when positive, clamps audited classes to [0, Levels): the
	// fabric schedulers serve any out-of-range class from the lowest
	// queue, so its queueing is governed by the lowest class's bound and
	// must be audited there. Zero disables clamping (classes beyond
	// BoundUS are observed but never flagged).
	Levels int
}

// AuditViolation is one recorded bound violation: one data packet's
// egress-queue residency over its class bound, with the offending RPC.
type AuditViolation struct {
	RPC   uint64
	Class qos.Class
	// Link names the offending egress port.
	Link string
	// TimeUS is when the violation was observed, in simulated µs.
	TimeUS float64
	// ObservedUS is the offending value; BoundUS the raw bound it was
	// checked against (slack excluded).
	ObservedUS, BoundUS float64
}

// classAudit accumulates one class's observations.
type classAudit struct {
	rnl        stats.Sample // completed-RPC RNL, µs
	fabric     stats.Sample // completed-RPC total fabric queueing, µs
	hops       int64
	maxHopUS   float64
	violations int
}

// Auditor continuously checks observed queueing against the per-class
// worst-case bounds of the network-calculus model, turning the paper's
// Fig-10 theory-vs-simulation validation into a runtime invariant. The
// Tracer feeds it: every data packet's queue residency is checked against
// its class bound (so the check does only comparisons per hop), and every
// completed RPC adds its total fabric queueing and RNL to its class's
// tails, which are never compared in aggregate: the calculus bound is per
// queue. A nil *Auditor reports nil.
type Auditor struct {
	cfg     AuditConfig
	classes []*classAudit
	viol    []AuditViolation
	total   int
}

// maxViolations caps the retained violation list; the total count keeps
// counting past the cap.
const maxViolations = 64

// NewAuditor returns an enabled auditor.
func NewAuditor(cfg AuditConfig) *Auditor { return &Auditor{cfg: cfg} }

// clamp maps an audited class onto the scheduler-effective class: the
// fabric serves out-of-range classes from the lowest queue.
func (a *Auditor) clamp(cl int) int {
	if a.cfg.Levels > 0 && cl >= a.cfg.Levels {
		cl = a.cfg.Levels - 1
	}
	return cl
}

func (a *Auditor) class(cl int) *classAudit {
	if cl < 0 {
		cl = 0
	}
	for cl >= len(a.classes) {
		a.classes = append(a.classes, &classAudit{})
	}
	return a.classes[cl]
}

func (a *Auditor) bound(cl int) (float64, bool) {
	if cl < 0 || cl >= len(a.cfg.BoundUS) {
		return 0, false
	}
	return a.cfg.BoundUS[cl], true
}

// record keeps the earliest maxViolations violations in time order: a hop
// is checked when its link settles, possibly after later ones (netsim.Link).
func (a *Auditor) record(v AuditViolation) {
	a.total++
	i := len(a.viol)
	for i > 0 && a.viol[i-1].TimeUS > v.TimeUS {
		i--
	}
	if i < maxViolations {
		a.viol = slices.Insert(a.viol, i, v)
		a.viol = a.viol[:min(len(a.viol), maxViolations)]
	}
}

// AuditClassReport is one class's audit summary.
type AuditClassReport struct {
	Class qos.Class
	// N is the number of audited (completed) RPCs.
	N int
	// RNL tail percentiles in µs over audited RPCs.
	RNLP99US, RNLP999US, RNLMaxUS float64
	// Per-RPC total fabric queueing tails in µs.
	QueueP99US, QueueMaxUS float64
	// MaxHopUS is the largest single queue residency seen; Hops the number
	// of audited dequeues.
	MaxHopUS float64
	Hops     int64
	// BoundUS is the class's raw bound; Bounded is false when the class
	// had no configured bound (observed only).
	BoundUS float64
	Bounded bool
	// Violations counts this class's over-bound queue residencies.
	Violations int
}

// AuditReport is the auditor's end-of-run summary.
type AuditReport struct {
	// SlackUS is the headroom that was added to every bound.
	SlackUS float64
	Classes []AuditClassReport
	// Violations retains the earliest 64 violations in time order;
	// TotalViolations keeps the full count.
	Violations      []AuditViolation
	TotalViolations int
}

// Ok reports whether no bound was violated.
func (r *AuditReport) Ok() bool { return r != nil && r.TotalViolations == 0 }

// Report summarises the audit. Classes appear in class order; classes
// that saw no traffic are omitted.
func (a *Auditor) Report() *AuditReport {
	if a == nil {
		return nil
	}
	rep := &AuditReport{
		SlackUS:         a.cfg.SlackUS,
		Violations:      a.viol,
		TotalViolations: a.total,
	}
	for cl, c := range a.classes {
		if c.hops == 0 && c.rnl.N() == 0 {
			continue
		}
		cr := AuditClassReport{
			Class:      qos.Class(cl),
			N:          c.rnl.N(),
			MaxHopUS:   c.maxHopUS,
			Hops:       c.hops,
			Violations: c.violations,
		}
		cr.BoundUS, cr.Bounded = a.bound(cl)
		if c.rnl.N() > 0 {
			cr.RNLP99US = c.rnl.Quantile(0.99)
			cr.RNLP999US = c.rnl.Quantile(0.999)
			cr.RNLMaxUS = c.rnl.Max()
			cr.QueueP99US = c.fabric.Quantile(0.99)
			cr.QueueMaxUS = c.fabric.Max()
		}
		rep.Classes = append(rep.Classes, cr)
	}
	return rep
}
