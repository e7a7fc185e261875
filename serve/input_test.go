package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
