package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aequitas/internal/qos"
	"aequitas/internal/sim"
)

// refQuotaBucket is QuotaClient.CheckAt as it was while every check took
// the bucket's lock: the reference FuzzQuotaCheck holds the lock-free
// refusal to. It shares the client's server, tenant, TTL and burst, and
// counts lease refreshes and stale checks as the client does.
type refQuotaBucket struct {
	tokens    float64
	last      sim.Time
	lease     Lease
	haveLease bool

	refreshes, staleChecks int64
}

func (b *refQuotaBucket) check(c *QuotaClient, now sim.Time, class qos.Class, bytes int64) QuotaState {
	if class < 0 || class >= quotaClasses {
		return QuotaNo
	}
	if !b.haveLease || now >= b.lease.Expires {
		lease, up, _ := c.server.lease(c.tenant, class, now, sim.FromStd(c.LeaseTTL))
		if !up {
			b.staleChecks++
			return QuotaStale
		}
		fresh := !b.haveLease
		if fresh || lease.Rate != b.lease.Rate {
			b.tokens = lease.Rate * c.burstSeconds()
			if fresh || now > b.last {
				b.last = now
			}
		}
		b.lease, b.haveLease = lease, true
		b.refreshes++
	}
	rate := b.lease.Rate
	if rate <= 0 {
		return QuotaNo
	}
	if now > b.last {
		b.tokens += rate * (now - b.last).Seconds()
		b.last = now
	}
	if max := rate * c.burstSeconds(); b.tokens > max {
		b.tokens = max
	}
	if b.tokens < float64(bytes) {
		return QuotaNo
	}
	b.tokens -= float64(bytes)
	return QuotaYes
}

// playQuota runs prog against a QuotaClient and the reference, one bucket
// per class, and fails on the first check whose state differs. The first
// two bytes pick the lease TTL and the burst; then each op is two bytes,
// a kind and an argument:
//
//	0-3  check at the clock's reading: class arg%4 (3 has no bucket's
//	     grant), size (arg/4+1) x 100 bytes
//	4    advance the clock by arg µs
//	5    check at a reading arg µs older than the clock's, class High
//	6    grant (arg%4) x 100 kB/s more on class arg/4%3
//	7    revoke the same
//	8    the quota plane goes down (arg odd) or comes back
//	9    advance the clock past the lease TTL, plus arg ns
func playQuota(t *testing.T, prog []byte) {
	if len(prog) < 2 {
		return
	}
	q := NewQuotaServer(map[qos.Class]float64{qos.High: 1e9, qos.Medium: 1e9, qos.Low: 1e9})
	c := q.ClientWithClock("tenant", &ManualClock{})
	c.LeaseTTL = time.Duration(prog[0]%8) * 100 * time.Microsecond
	c.BurstSeconds = float64(prog[1]%4) * 0.001
	var ref [quotaClasses]refQuotaBucket
	var now sim.Time
	check := func(i int, at sim.Time, class qos.Class, bytes int64) {
		want := QuotaNo
		if class >= 0 && class < quotaClasses {
			want = ref[class].check(c, at, class, bytes)
		}
		if got := c.CheckAt(at, class, bytes); got != want {
			t.Fatalf("op %d: check at %v, class %v, %d bytes: %v, the locked bucket says %v", i, at, class, bytes, got, want)
		}
	}
	for i := 2; i+1 < len(prog); i += 2 {
		kind, arg := prog[i]%10, prog[i+1]
		switch kind {
		case 0, 1, 2, 3:
			check(i, now, qos.Class(arg%4), (int64(arg)/4+1)*100)
		case 4:
			now += sim.Duration(arg) * sim.Microsecond
		case 5:
			check(i, now-sim.Duration(arg)*sim.Microsecond, qos.High, 100)
		case 6:
			_ = q.Grant("tenant", qos.Class(arg/4%3), float64(arg%4)*1e5)
		case 7:
			q.Revoke("tenant", qos.Class(arg/4%3), float64(arg%4)*1e5)
		case 8:
			q.SetAvailable(arg%2 == 0)
		case 9:
			now += sim.FromStd(c.LeaseTTL) + sim.Duration(arg)
		}
	}
	var refreshes, stale int64
	for i := range ref {
		refreshes += ref[i].refreshes
		stale += ref[i].staleChecks
	}
	if ls := c.LeaseStats(); ls.Refreshes != refreshes || ls.StaleChecks != stale {
		t.Fatalf("lease stats %+v, the locked bucket counted %d refreshes and %d stale checks", ls, refreshes, stale)
	}
}

// quotaPrograms are FuzzQuotaCheck's seeds: each reaches one of the
// states the lock-free refusal must agree with the lock on.
var quotaPrograms = []struct {
	name string
	prog []byte
}{
	{"no grant", []byte{3, 1, 1, 0, 4, 10, 1, 0, 9, 0, 1, 0}},
	{"grant then drain", []byte{3, 1, 6, 3, 0, 40, 0, 40, 0, 40, 4, 50, 0, 40, 0, 0}},
	{"older readings", []byte{7, 2, 6, 3, 4, 200, 0, 80, 4, 5, 5, 3, 5, 200, 0, 0}},
	{"revoke to zero", []byte{1, 1, 6, 7, 0, 1, 7, 7, 9, 0, 0, 1, 4, 9, 0, 1, 6, 7, 9, 0, 0, 1}},
	{"outage", []byte{2, 1, 6, 3, 0, 0, 8, 1, 9, 0, 0, 0, 0, 1, 8, 0, 0, 0}},
	{"zero ttl", []byte{0, 3, 6, 2, 0, 2, 4, 1, 0, 2, 8, 1, 0, 2, 8, 0, 0, 2}},
	// A refusal refills the bucket to its reading, so an older reading
	// after it finds those tokens: a refusal that wrote nothing would
	// refuse the last check here.
	{"refusal refills", []byte("21827\xdd1070\"X2070")},
}

func TestQuotaCheckMatchesLockedBucket(t *testing.T) {
	for _, p := range quotaPrograms {
		t.Run(p.name, func(t *testing.T) { playQuota(t, p.prog) })
	}
}

// FuzzQuotaCheck is the same comparison with the fuzzer choosing the
// program: go test -run '^$' -fuzz FuzzQuotaCheck ./internal/core
func FuzzQuotaCheck(f *testing.F) {
	for _, p := range quotaPrograms {
		f.Add(p.prog)
	}
	f.Fuzz(playQuota)
}

// TestQuotaConcurrentChecksStayInRate hammers one client from several
// goroutines on the wall clock, with leases expiring throughout: the
// bytes admitted on the granted class never exceed one burst plus the
// rate times the time elapsed, and a class with no grant, answered
// without its lock, admits nothing.
func TestQuotaConcurrentChecksStayInRate(t *testing.T) {
	const rate, burst = 1e6, 0.01 // 1 MB/s, 10 kB
	q := newServer()
	if err := q.Grant("tenant", qos.High, rate); err != nil {
		t.Fatal(err)
	}
	c := q.Client("tenant")
	c.BurstSeconds = burst
	c.LeaseTTL = time.Millisecond
	var admitted, strays atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				bytes := int64(100 + i%7*300)
				if c.Check(qos.High, bytes) == QuotaYes {
					admitted.Add(bytes)
				}
				if c.Check(qos.Medium, bytes) != QuotaNo {
					strays.Add(1)
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	elapsed := c.clock.Now().Seconds()
	if limit := rate*burst + rate*elapsed; float64(admitted.Load()) > limit {
		t.Errorf("admitted %d bytes in %.3f s, more than the %.0f a %g B/s bucket allows", admitted.Load(), elapsed, limit, rate)
	}
	if admitted.Load() == 0 {
		t.Error("nothing admitted on the granted class")
	}
	if n := strays.Load(); n != 0 {
		t.Errorf("%d checks on a class with no grant answered other than no", n)
	}
}

// TestAdmitAtReportsQuotaLockWait holds a quota bucket's lock, then the
// server's, while AdmitAt checks that class: the decision reports itself
// late, so a caller that keeps AdmitAt's reading as a start time knows a
// wait is in it. Uncontended, it is not late. With LeaseTTL 0 every
// check refreshes its lease, so every check takes the server's lock.
func TestAdmitAtReportsQuotaLockWait(t *testing.T) {
	ct := MustNew(Defaults3(2*sim.Microsecond, 4*sim.Microsecond))
	srv := NewQuotaServer(map[qos.Class]float64{qos.High: 1e9})
	if err := srv.Grant("tenant", qos.High, 1e9); err != nil {
		t.Fatal(err)
	}
	cli := srv.ClientWithClock("tenant", &ManualClock{})
	ct.SetQuota(cli, QuotaFailOpen)
	if d, late := ct.AdmitAt(0, 0, qos.High, 1); late || d.Class != qos.High {
		t.Fatalf("uncontended: decision %+v, late %v; want in quota, not late", d, late)
	}
	for _, tc := range []struct {
		name string
		mu   *sync.Mutex
	}{{"bucket", &cli.buckets[qos.High].mu}, {"server", &srv.mu}} {
		// The checker must reach the lock while it is held; a longer
		// hold on each retry makes sure it does.
		late := false
		for try := 0; try < 10 && !late; try++ {
			tc.mu.Lock()
			done := make(chan bool)
			go func() {
				_, l := ct.AdmitAt(0, 0, qos.High, 1)
				done <- l
			}()
			time.Sleep(time.Millisecond << try)
			tc.mu.Unlock()
			late = <-done
		}
		if !late {
			t.Errorf("%s lock held across the check: AdmitAt not late", tc.name)
		}
	}
	if _, late := ct.AdmitAt(0, 0, qos.Low, 1); late {
		t.Error("scavenger check, which takes no quota lock, reported late")
	}
}
