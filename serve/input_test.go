package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"aequitas"
	"aequitas/internal/obs"
	"aequitas/internal/obs/flight"
)

// TestOutOfRangeClassIsScavenger sends class levels the controller does
// not have. They are served as scavenger work, and everything that
// reports the request must say so: the verdict, the response header, the
// latency histogram and the flight record (whose 8-bit class field a
// level of 128 or 300 used to wrap into -128 and 44).
func TestOutOfRangeClassIsScavenger(t *testing.T) {
	for _, level := range []string{"128", "300", "9223372036854775807"} {
		var logged []Verdict
		a, err := New(Config{
			Controller:  newController(t),
			Flight:      &FlightConfig{SampleAdmits: 1},
			DecisionLog: func(v Verdict) { logged = append(logged, v) },
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := doReq(t, a.Middleware(httpOK()), map[string]string{HeaderClass: level})
		if rec.Code != http.StatusOK || rec.Header().Get(HeaderClass) != aequitas.Low.String() {
			t.Errorf("class %s: status %d on %q", level, rec.Code, rec.Header().Get(HeaderClass))
		}
		if len(logged) != 1 || logged[0].Request.Class != aequitas.Low || logged[0].Class != aequitas.Low {
			t.Errorf("class %s: verdicts %+v", level, logged)
		}
		for _, h := range a.Snapshot().Hists {
			if h.LabelVal != aequitas.Low.String() {
				t.Errorf("class %s: completion counted under class %q", level, h.LabelVal)
			}
		}

		var dump bytes.Buffer
		if err := a.DumpFlight(&dump, flight.TriggerManual, "test"); err != nil {
			t.Fatal(err)
		}
		if _, n, err := flight.ValidateDump(bytes.NewReader(dump.Bytes())); err != nil || n != 1 {
			t.Fatalf("class %s: dump of %d records: %v", level, n, err)
		}
		sc := bufio.NewScanner(&dump)
		sc.Scan() // the header line
		for sc.Scan() {
			var r struct{ Req, Class int }
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatal(err)
			}
			if r.Req != int(aequitas.Low) || r.Class != int(aequitas.Low) {
				t.Errorf("class %s: flight record %s", level, sc.Bytes())
			}
		}
		checkLedger(t, a, 1)
	}
}

// TestPeerTableBounded offers twice as many distinct peer names as the
// controller will intern. The names are request input, so the table must
// stop growing: the peers past the bound share the overflow channel.
func TestPeerTableBounded(t *testing.T) {
	a := newAdmission(t, false)
	h := a.Middleware(httpOK())
	const offered = 2 * aequitas.MaxPeers
	for i := 0; i < offered; i++ {
		req := httptest.NewRequest("GET", "/rpc", nil)
		req.Header.Set(HeaderPeer, fmt.Sprintf("peer-%d", i))
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	channels, overflow := 0, false
	for _, g := range a.Snapshot().Gauges {
		if strings.HasPrefix(g.Name, "padmit.") {
			channels++
			overflow = overflow || g.Name == "padmit."+aequitas.OverflowPeer+".q0"
		}
	}
	if channels != aequitas.MaxPeers+1 || !overflow {
		t.Errorf("%d admission channels after %d distinct peers (overflow channel: %v), want %d",
			channels, offered, overflow, aequitas.MaxPeers+1)
	}
	if id := a.Controller().PeerID("one more"); id != aequitas.MaxPeers || a.Controller().PeerName(int32(id)) != aequitas.OverflowPeer {
		t.Errorf("a new peer past the bound is channel %d", id)
	}
	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if _, err := obs.ValidatePromText(rec.Body); err != nil {
		t.Errorf("/metrics with the overflow channel: %v", err)
	}
	checkLedger(t, a, offered)
}

// TestRetryAfterOfOutOfRangeClass expires requests that ask for class
// levels the controller does not have. The Retry-After hint is looked up
// by the class the layer clamped the request to, its scavenger, whose
// hint is the one-second minimum; the level the header carried would
// index past the table.
func TestRetryAfterOfOutOfRangeClass(t *testing.T) {
	ctl, _ := newManualController(t)
	a, err := New(Config{Controller: ctl, Deadline: &DeadlineConfig{MinBudget: 2 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	h := a.Middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		t.Error("handler ran for an expired request")
	}))
	levels := []string{"2", "300", "9223372036854775807"}
	for _, level := range levels {
		rec := doReq(t, h, map[string]string{HeaderClass: level, HeaderDeadline: "1ms"})
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get(HeaderExpired) != "1" || rec.Header().Get("Retry-After") != "1" {
			t.Errorf("class %s: status %d, headers %v", level, rec.Code, rec.Header())
		}
	}
	checkLedger(t, a, int64(len(levels)))
}

// TestMetricsEscapePeerNames sends peer names no exposition-format label
// can carry as Go would quote them — a tab in the peer header, a NUL and
// a byte that is not UTF-8 in the path, two peers that differ only in a
// byte that is not UTF-8 — and scrapes /metrics: it must still parse,
// with each peer's gauge there once. The flight dump served at
// /debug/flight must read back too, with the path-derived peer as JSON
// decodes it.
func TestMetricsEscapePeerNames(t *testing.T) {
	a, err := New(Config{Controller: newController(t), Flight: &FlightConfig{SampleAdmits: 1}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(a.Middleware(httpOK()))
	defer srv.Close()
	for _, r := range []struct{ path, peer string }{{"/rpc", "a\tb"}, {"/%00%ff", ""}, {"/rpc", "a\xff"}, {"/rpc", "a\xfe"}} {
		req, err := http.NewRequest("GET", srv.URL+r.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.peer != "" {
			req.Header.Set(HeaderPeer, r.peer)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", r.path, resp.StatusCode)
		}
	}
	msrv := httptest.NewServer(a.Handler())
	defer msrv.Close()
	resp, err := http.Get(msrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidatePromText(bytes.NewReader(text)); err != nil {
		t.Errorf("/metrics after hostile peer names: %v\n%s", err, text)
	}
	for _, gauge := range []string{"aequitas_gauge{name=\"padmit.a\tb.q0\"} ", "aequitas_gauge{name=\"padmit./\x00\uFFFD.q0\"} ", "aequitas_gauge{name=\"padmit.a\uFFFD.q0\"} "} {
		if n := bytes.Count(text, []byte(gauge)); n != 1 {
			t.Errorf("%q appears %d times in /metrics, want once:\n%s", gauge, n, text)
		}
	}

	fresp, err := http.Get(msrv.URL + "/debug/flight?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	dump, err := io.ReadAll(fresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, n, err := flight.ValidateDump(bytes.NewReader(dump)); err != nil || n == 0 {
		t.Fatalf("/debug/flight dump of %d records: %v\n%s", n, err, dump)
	}
	var peers []string
	sc := bufio.NewScanner(bytes.NewReader(dump))
	sc.Scan() // the header line
	for sc.Scan() {
		var r struct {
			PeerName string `json:"peer_name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, r.PeerName)
	}
	if !slices.Contains(peers, "/\u0000\uFFFD") || !slices.Contains(peers, "a\tb") {
		t.Errorf("dump peers %q, want %q and %q among them", peers, "/\u0000\uFFFD", "a\tb")
	}
	checkLedger(t, a, 4)
}
