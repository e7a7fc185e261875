package core

import (
	"sync"
	"testing"
	"time"

	"aequitas/internal/qos"
	"aequitas/internal/sim"
)

func newServer() *QuotaServer {
	return NewQuotaServer(map[qos.Class]float64{
		qos.High:   10e9 / 8, // 10 Gbps in bytes/s
		qos.Medium: 20e9 / 8,
	})
}

func TestQuotaGrantAndCapacity(t *testing.T) {
	q := newServer()
	if err := q.Grant("tenant-a", qos.High, 5e8); err != nil {
		t.Fatal(err)
	}
	if err := q.Grant("tenant-b", qos.High, 7e8); err != nil {
		t.Fatal(err)
	}
	// Capacity is 1.25e9 B/s; 1.2e9 granted; 1e8 more must fail.
	if err := q.Grant("tenant-c", qos.High, 1e8); err == nil {
		t.Error("over-grant accepted")
	}
	if got := q.GrantedRate("tenant-a", qos.High); got != 5e8 {
		t.Errorf("GrantedRate = %v", got)
	}
	if got := q.Remaining(qos.High); got != 10e9/8-1.2e9 {
		t.Errorf("Remaining = %v", got)
	}
	// Unknown class rejected outright.
	if err := q.Grant("tenant-a", qos.Low, 1); err == nil {
		t.Error("grant on unprovisioned class accepted")
	}
	if err := q.Grant("tenant-a", qos.High, -1); err == nil {
		t.Error("negative grant accepted")
	}
}

func TestQuotaRevoke(t *testing.T) {
	q := newServer()
	if err := q.Grant("a", qos.High, 1e9); err != nil {
		t.Fatal(err)
	}
	q.Revoke("a", qos.High, 4e8)
	if got := q.GrantedRate("a", qos.High); got != 6e8 {
		t.Errorf("after revoke: %v", got)
	}
	// Revoking more than granted clamps to zero.
	q.Revoke("a", qos.High, 1e12)
	if got := q.GrantedRate("a", qos.High); got != 0 {
		t.Errorf("after over-revoke: %v", got)
	}
	// Revoking an unknown tenant is a no-op.
	q.Revoke("nobody", qos.High, 1)
}

func TestQuotaClientTokens(t *testing.T) {
	q := newServer()
	if err := q.Grant("a", qos.High, 1e6); err != nil { // 1 MB/s
		t.Fatal(err)
	}
	c := q.Client("a")
	now := sim.Time(0)
	// Fresh bucket holds one burst: 1e6 × 0.01s = 10 KB.
	if c.CheckAt(now, qos.High, 10_000) != QuotaYes {
		t.Fatal("initial burst rejected")
	}
	if c.CheckAt(now, qos.High, 1_000) == QuotaYes {
		t.Fatal("empty bucket admitted")
	}
	// After 5 ms, 5 KB of tokens accrue.
	now += 5 * sim.Millisecond
	if c.CheckAt(now, qos.High, 4_000) != QuotaYes {
		t.Error("refilled tokens rejected")
	}
	if c.CheckAt(now, qos.High, 4_000) == QuotaYes {
		t.Error("tokens double spent")
	}
}

// TestQuotaOlderReadingCostsNothing: serving goroutines read the clock
// before they take the bucket's lock, so checks reach the bucket out of
// clock order. A reading older than the bucket's last one must neither
// take tokens away (a negative refill) nor move the bucket's time back,
// which would refill the same interval twice on the next check.
func TestQuotaOlderReadingCostsNothing(t *testing.T) {
	q := newServer()
	if err := q.Grant("a", qos.High, 1e6); err != nil { // 1 MB/s, 10 KB burst
		t.Fatal(err)
	}
	c := q.Client("a")
	c.LeaseTTL = time.Second
	t0 := sim.Time(10 * sim.Millisecond)
	if c.CheckAt(t0, qos.High, 4_000) != QuotaYes {
		t.Fatal("first check of a fresh burst refused")
	}
	if got := c.CheckAt(t0-5*sim.Millisecond, qos.High, 5_000); got != QuotaYes {
		t.Fatalf("older reading with 6 000 tokens left for 5 000: %v, want yes", got)
	}
	// 1 000 tokens left at t0; 1 ms later 1 000 more, counted from t0.
	if got := c.CheckAt(t0+sim.Millisecond, qos.High, 2_000); got != QuotaYes {
		t.Fatalf("refill from t0: %v, want yes", got)
	}
	if got := c.CheckAt(t0+sim.Millisecond, qos.High, 1); got != QuotaNo {
		t.Fatalf("bucket refilled from before t0: %v, want no", got)
	}
}

func TestQuotaClientNoGrant(t *testing.T) {
	q := newServer()
	c := q.Client("nobody")
	if c.CheckAt(0, qos.High, 1) == QuotaYes {
		t.Error("tenant without grant admitted")
	}
}

func TestQuotaClientBurstCap(t *testing.T) {
	q := newServer()
	if err := q.Grant("a", qos.High, 1e6); err != nil {
		t.Fatal(err)
	}
	c := q.Client("a")
	c.BurstSeconds = 0.001 // 1 KB burst
	if c.CheckAt(sim.Time(10*sim.Second), qos.High, 5_000) == QuotaYes {
		t.Error("burst cap not enforced after long idle")
	}
	if c.CheckAt(sim.Time(10*sim.Second), qos.High, 900) != QuotaYes {
		t.Error("within-burst request rejected")
	}
}

func TestQuotaAdmitterBypassesDraw(t *testing.T) {
	q := newServer()
	if err := q.Grant("a", qos.High, 1e9); err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	ctl := newCtlCfg(t, Defaults3(2*sim.Microsecond, 4*sim.Microsecond), s)
	// Crush the admit probability.
	for i := 0; i < 1000; i++ {
		ctl.Observe(1, qos.High, sim.Duration(1*sim.Millisecond), 10)
	}
	ctl.SetQuota(q.ClientWithClock("a", SimClock{S: s}), QuotaFailOpen)
	// In-quota RPCs are admitted despite p_admit at the floor.
	d := ctl.Admit(1, qos.High, 1)
	if d.Downgraded || d.Class != qos.High {
		t.Fatalf("in-quota RPC not admitted: %+v", d)
	}
	if qs, _ := ctl.QuotaStats(); qs.InQuotaAdmits != 1 {
		t.Errorf("InQuotaAdmits = %d", qs.InQuotaAdmits)
	}
}

func TestQuotaAdmitterFallsThroughWhenExhausted(t *testing.T) {
	q := newServer()
	if err := q.Grant("a", qos.High, 100); err != nil { // 100 B/s: negligible
		t.Fatal(err)
	}
	cfg := Defaults3(2*sim.Microsecond, 4*sim.Microsecond)
	cfg.Floor = 0
	s := sim.New(1)
	ctl := newCtlCfg(t, cfg, s)
	for i := 0; i < 1000; i++ {
		ctl.Observe(1, qos.High, sim.Duration(1*sim.Millisecond), 10)
	}
	ctl.SetQuota(q.ClientWithClock("a", SimClock{S: s}), QuotaFailOpen)
	downgrades := 0
	for i := 0; i < 50; i++ {
		if d := ctl.Admit(1, qos.High, 64); d.Downgraded {
			downgrades++
		}
	}
	if downgrades == 0 {
		t.Error("out-of-quota traffic bypassed the probabilistic path")
	}
}

func TestQuotaAdmitterScavengerPassThrough(t *testing.T) {
	q := newServer()
	s := sim.New(1)
	ctl := newCtlCfg(t, Defaults3(2*sim.Microsecond, 4*sim.Microsecond), s)
	ctl.SetQuota(q.ClientWithClock("a", SimClock{S: s}), QuotaFailOpen)
	d := ctl.Admit(1, qos.Low, 1)
	if d.Downgraded || d.Class != qos.Low {
		t.Errorf("scavenger RPC mishandled: %+v", d)
	}
	if qs, _ := ctl.QuotaStats(); qs.Lease.Refreshes != 0 {
		t.Errorf("scavenger RPC consulted the quota plane: %+v", qs)
	}
}

// In-quota traffic still feeds Algorithm 1: if the quota was
// over-provisioned relative to the SLO, the controller must learn it.
func TestQuotaAdmitterObservePropagates(t *testing.T) {
	q := newServer()
	if err := q.Grant("a", qos.High, 1e9); err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	ctl := newCtlCfg(t, Defaults3(2*sim.Microsecond, 4*sim.Microsecond), s)
	ctl.SetQuota(q.ClientWithClock("a", SimClock{S: s}), QuotaFailOpen)
	if d := ctl.Admit(1, qos.High, 10); d.Class != qos.High || d.PAdmit != 1 {
		t.Fatalf("in-quota RPC not admitted on the bypass: %+v", d)
	}
	ctl.Observe(1, qos.High, sim.Duration(1*sim.Millisecond), 10)
	if ctl.Stats().SLOMisses != 1 || ctl.AdmitProbability(1, qos.High) >= 1 {
		t.Error("a bypassed RPC's SLO miss did not reach the controller")
	}
}

func TestQuotaLeaseCachesRate(t *testing.T) {
	q := newServer()
	if err := q.Grant("a", qos.High, 1e6); err != nil {
		t.Fatal(err)
	}
	c := q.Client("a")
	c.LeaseTTL = 100 * time.Millisecond
	now := sim.Time(0)
	if c.CheckAt(now, qos.High, 1_000) != QuotaYes {
		t.Fatal("in-quota request rejected")
	}
	// Revoke everything: the cached lease keeps admitting until it expires.
	q.Revoke("a", qos.High, 1e6)
	now += 50 * sim.Millisecond
	if c.CheckAt(now, qos.High, 1_000) != QuotaYes {
		t.Error("revoke propagated before lease expiry")
	}
	// Past the TTL the refresh reads the zero grant.
	now += 60 * sim.Millisecond
	if c.CheckAt(now, qos.High, 1) == QuotaYes {
		t.Error("revoke not propagated after lease expiry")
	}
	if st := c.LeaseStats(); st.Refreshes < 2 {
		t.Errorf("Refreshes = %d, want >= 2", st.Refreshes)
	}
}

func TestQuotaLeaseRidesThroughShortOutage(t *testing.T) {
	q := newServer()
	if err := q.Grant("a", qos.High, 1e6); err != nil {
		t.Fatal(err)
	}
	c := q.Client("a")
	c.LeaseTTL = 100 * time.Millisecond
	now := sim.Time(0)
	if got := c.CheckAt(now, qos.High, 1_000); got != QuotaYes {
		t.Fatalf("initial check = %v", got)
	}
	// Outage shorter than the TTL is invisible: the lease still enforces.
	q.SetAvailable(false)
	now += 50 * sim.Millisecond
	if got := c.CheckAt(now, qos.High, 1_000); got != QuotaYes {
		t.Errorf("check during in-TTL outage = %v", got)
	}
	// Past the TTL the lease is stale.
	now += 60 * sim.Millisecond
	if got := c.CheckAt(now, qos.High, 1); got != QuotaStale {
		t.Errorf("check past TTL during outage = %v", got)
	}
	if st := c.LeaseStats(); st.StaleChecks != 1 {
		t.Errorf("StaleChecks = %d", st.StaleChecks)
	}
	// Recovery: the next check refreshes and enforces again.
	q.SetAvailable(true)
	if got := c.CheckAt(now, qos.High, 1_000); got != QuotaYes {
		t.Errorf("check after recovery = %v", got)
	}
}

func TestQuotaStaleWithZeroTTLIsImmediate(t *testing.T) {
	q := newServer()
	if err := q.Grant("a", qos.High, 1e6); err != nil {
		t.Fatal(err)
	}
	c := q.Client("a") // LeaseTTL 0: refresh every check
	if got := c.CheckAt(0, qos.High, 1_000); got != QuotaYes {
		t.Fatalf("initial check = %v", got)
	}
	q.SetAvailable(false)
	if got := c.CheckAt(0, qos.High, 1); got != QuotaStale {
		t.Errorf("check during outage with zero TTL = %v", got)
	}
}

func TestQuotaAdmitterFailOpen(t *testing.T) {
	q := newServer()
	if err := q.Grant("a", qos.High, 1e9); err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	ctl := newCtlCfg(t, Defaults3(2*sim.Microsecond, 4*sim.Microsecond), s)
	ctl.SetQuota(q.ClientWithClock("a", SimClock{S: s}), QuotaFailOpen)
	q.SetAvailable(false)
	// Fail-open: the stale check falls through to Algorithm 1, which at
	// p_admit = 1 admits on the requested class.
	d := ctl.Admit(1, qos.High, 1)
	if d.Dropped || d.Downgraded || d.Class != qos.High {
		t.Fatalf("fail-open stale decision: %+v", d)
	}
	qs, _ := ctl.QuotaStats()
	if qs.StalePassed != 1 || qs.StaleDropped != 0 {
		t.Errorf("StalePassed = %d, StaleDropped = %d", qs.StalePassed, qs.StaleDropped)
	}
	if qs.InQuotaAdmits != 0 {
		t.Errorf("stale check counted as in-quota admit")
	}
}

func TestQuotaAdmitterFailClosed(t *testing.T) {
	q := newServer()
	if err := q.Grant("a", qos.High, 1e9); err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	ctl := newCtlCfg(t, Defaults3(2*sim.Microsecond, 4*sim.Microsecond), s)
	ctl.SetQuota(q.ClientWithClock("a", SimClock{S: s}), QuotaFailClosed)
	q.SetAvailable(false)
	d := ctl.Admit(1, qos.High, 1)
	if !d.Dropped {
		t.Fatalf("fail-closed stale decision not a drop: %+v", d)
	}
	if qs, _ := ctl.QuotaStats(); qs.StaleDropped != 1 || qs.StalePassed != 0 || qs.Policy != QuotaFailClosed {
		t.Errorf("quota stats after a fail-closed drop: %+v", qs)
	}
	if got := ctl.Stats().Dropped; got != 1 {
		t.Errorf("controller Dropped = %d", got)
	}
	// Scavenger traffic never consults quota, so it is unaffected.
	if d := ctl.Admit(1, qos.Low, 1); d.Dropped {
		t.Error("fail-closed dropped scavenger traffic")
	}
	// Recovery restores the bypass.
	q.SetAvailable(true)
	if d := ctl.Admit(1, qos.High, 1); d.Dropped {
		t.Error("fail-closed kept dropping after recovery")
	}
}

// TestQuotaGrantRevokeExpiryRace races control-plane Grant/Revoke and
// availability flips against serving-path checks whose leases are
// constantly expiring. Run under -race it proves the lease plumbing has
// no data races; the invariant checked here is merely that the client
// never reports stale while the server is up on a zero-TTL sibling.
func TestQuotaGrantRevokeExpiryRace(t *testing.T) {
	q := newServer()
	if err := q.Grant("a", qos.High, 1e6); err != nil {
		t.Fatal(err)
	}
	clk := &ManualClock{}
	clk.SetDraw(0.5)
	c := q.ClientWithClock("a", clk)
	c.LeaseTTL = time.Microsecond // expires essentially every check

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				q.Revoke("a", qos.High, 5e5)
			} else {
				_ = q.Grant("a", qos.High, 5e5)
			}
			q.SetAvailable(i%7 != 0)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			clk.SetNow(sim.Time(i) * sim.Microsecond * 2)
			c.Check(qos.High, 100)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	q.SetAvailable(true)
	if got := c.CheckAt(sim.Time(time.Hour), qos.High, 0); got == QuotaStale {
		t.Errorf("stale reported while server up: %v", got)
	}
}
