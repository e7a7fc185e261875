package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"aequitas"
	"aequitas/internal/obs/flight"
)

// FlightConfig configures the serving-side flight recorder: a lock-free
// ring holding the last 16384 admission decisions and SLO observations,
// shared by its P stripes (up to GOMAXPROCS), each holding the records of
// the requests served on its stripe, plus an optional anomaly engine that
// watches the SLO burn rate and the minimum live admit probability and
// dumps the ring when an incident signature appears.
type FlightConfig struct {
	// SampleAdmits keeps 1 in N admit / SLO-met records (default 8,
	// values <= 1 keep everything). Downgrades, rejections and SLO misses
	// are always kept.
	SampleAdmits int
	// Engine enables the anomaly engine with the given thresholds; nil
	// leaves the ring recording passively (dump it via /debug/flight or
	// DumpFlight).
	Engine *flight.EngineConfig
	// TickEvery is the minimum spacing between engine evaluations on the
	// layer's clock (default 1s). The engine is ticked by the completion
	// that wins the aggregator's election — no background goroutine — so
	// a fully idle server does not evaluate, which is fine: no completions
	// means no new SLO outcomes to alarm on.
	TickEvery time.Duration
	// ProfileDir, when set, captures goroutine and heap profiles next to
	// every trigger dump ("<dir>/flight-<n>-<kind>-{goroutine,heap}.pprof").
	ProfileDir string
}

// flightState is the Admission layer's recorder: rings, the ring of P
// stripes the controller records into, the engine, and the most recent
// trigger dump.
type flightState struct {
	cfg   FlightConfig
	rings *flight.Ring
	eng   *flight.Engine

	triggers atomic.Int64
	last     atomic.Pointer[flightDump]
}

// flightDump is one frozen incident capture.
type flightDump struct {
	Trigger  flight.Trigger
	Wall     time.Time
	NDJSON   []byte
	Profiles []string
	Err      string
}

func newFlightState(cfg FlightConfig) *flightState {
	f := &flightState{
		cfg:   cfg,
		rings: flight.NewRing(flight.Config{SampleAdmits: cfg.SampleAdmits, Stripes: min(stripes, runtime.GOMAXPROCS(0))}),
	}
	if cfg.Engine != nil {
		f.eng = flight.NewEngine(*cfg.Engine)
		if f.cfg.TickEvery <= 0 {
			f.cfg.TickEvery = time.Second
		}
	}
	return f
}

// fire writes the ring as one NDJSON dump (resetting it, so the next
// incident starts clean), captures profiles when configured, and
// publishes the capture as the latest dump. Only Admission.tick calls
// it, one winner at a time.
func (f *flightState) fire(ctl *aequitas.AdmissionController, tr flight.Trigger) {
	n := f.triggers.Add(1)
	d := &flightDump{Trigger: tr, Wall: time.Now()}
	var buf bytes.Buffer
	err := f.rings.Dump(&buf, flight.Meta{
		Trigger:  tr,
		Label:    "serve",
		PeerName: ctl.PeerName,
	}, true)
	if err != nil {
		d.Err = err.Error()
	}
	d.NDJSON = buf.Bytes()
	if f.cfg.ProfileDir != "" {
		prefix := fmt.Sprintf("flight-%d-%s", n, tr.Kind)
		files, perr := flight.CaptureProfiles(f.cfg.ProfileDir, prefix)
		d.Profiles = files
		if perr != nil && d.Err == "" {
			d.Err = perr.Error()
		}
	}
	f.last.Store(d)
}

// DumpFlight writes the ring's current contents to w as an
// "aequitas.flight/v1" NDJSON dump without resetting it. It is the
// programmatic face of /debug/flight?format=ndjson — call it on shutdown
// to preserve the black box.
func (a *Admission) DumpFlight(w io.Writer, kind flight.TriggerKind, detail string) error {
	if a.fl == nil {
		return fmt.Errorf("serve: flight recorder not configured")
	}
	return a.fl.rings.Dump(w, flight.Meta{
		Trigger: flight.Trigger{
			Kind:   kind,
			At:     a.clock.Now(),
			Detail: detail,
		},
		Label:    "serve",
		PeerName: a.ctl.PeerName,
	}, false)
}

// LastFlightDump returns the most recent trigger's frozen NDJSON capture
// and its trigger, or ok=false when none has fired.
func (a *Admission) LastFlightDump() (flight.Trigger, []byte, bool) {
	if a.fl == nil {
		return flight.Trigger{}, nil, false
	}
	d := a.fl.last.Load()
	if d == nil {
		return flight.Trigger{}, nil, false
	}
	return d.Trigger, d.NDJSON, true
}

// FlightTriggered reports how many anomaly triggers have fired.
func (a *Admission) FlightTriggered() int64 {
	if a.fl == nil {
		return 0
	}
	return a.fl.triggers.Load()
}

// flightStatus is the /debug/flight JSON document.
type flightStatus struct {
	Schema       string         `json:"schema"`
	Enabled      bool           `json:"enabled"`
	Capacity     int            `json:"capacity,omitempty"`
	Offered      uint64         `json:"offered"`
	SampledOut   uint64         `json:"sampled_out"`
	Triggers     int64          `json:"triggers"`
	Engine       *engineStatus  `json:"engine,omitempty"`
	LastTrigger  *triggerStatus `json:"last_trigger,omitempty"`
	DumpEndpoint string         `json:"dump_endpoint"`
}

type engineStatus struct {
	ShortWindowS  float64 `json:"short_window_s"`
	LongWindowS   float64 `json:"long_window_s"`
	SLOBudget     float64 `json:"slo_budget"`
	BurnThreshold float64 `json:"burn_threshold"`
	PAdmitDrop    float64 `json:"padmit_drop"`
}

type triggerStatus struct {
	Kind     string   `json:"kind"`
	Detail   string   `json:"detail,omitempty"`
	WallTime string   `json:"wall_time"`
	Records  int      `json:"dump_bytes"`
	Profiles []string `json:"profiles,omitempty"`
	Err      string   `json:"error,omitempty"`
}

// serveFlight handles /debug/flight: trigger status as JSON by default,
// the ring as one NDJSON dump with ?format=ndjson, and the last
// trigger's frozen dump with ?format=ndjson&dump=last.
func (a *Admission) serveFlight(w http.ResponseWriter, r *http.Request) {
	if a.fl == nil {
		http.Error(w, "flight recorder not configured", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if r.URL.Query().Get("dump") == "last" {
			d := a.fl.last.Load()
			if d == nil {
				http.Error(w, "no trigger has fired", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Length", strconv.Itoa(len(d.NDJSON)))
			if _, err := w.Write(d.NDJSON); err != nil {
				log.Printf("serve: flight dump write: %v", err)
			}
			return
		}
		if err := a.DumpFlight(w, flight.TriggerManual, "debug endpoint"); err != nil {
			// Headers may already be out; a 500 is best-effort, the log
			// line is the reliable signal that the dump is truncated.
			log.Printf("serve: flight dump write: %v", err)
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	st := a.fl.rings.Stats()
	doc := flightStatus{
		Schema:       flight.Schema,
		Enabled:      true,
		Capacity:     a.fl.rings.Cap(),
		Offered:      st.Offered,
		SampledOut:   st.SampledOut,
		Triggers:     a.fl.triggers.Load(),
		DumpEndpoint: r.URL.Path + "?format=ndjson",
	}
	if a.fl.eng != nil {
		ec := a.fl.eng.Config()
		doc.Engine = &engineStatus{
			ShortWindowS:  ec.ShortWindow.Seconds(),
			LongWindowS:   ec.LongWindow.Seconds(),
			SLOBudget:     ec.SLOBudget,
			BurnThreshold: ec.BurnThreshold,
			PAdmitDrop:    ec.PAdmitDrop,
		}
	}
	if d := a.fl.last.Load(); d != nil {
		doc.LastTrigger = &triggerStatus{
			Kind:     d.Trigger.Kind.String(),
			Detail:   d.Trigger.Detail,
			WallTime: d.Wall.UTC().Format(time.RFC3339Nano),
			Records:  len(d.NDJSON),
			Profiles: d.Profiles,
			Err:      d.Err,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Printf("serve: flight status write: %v", err)
	}
}
