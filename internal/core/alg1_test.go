package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"aequitas/internal/netsim"
	"aequitas/internal/qos"
	"aequitas/internal/rpc"
	"aequitas/internal/sim"
)

// refAlg1 is Algorithm 1 (§5.1) with §5.2's quota branch in front of the
// draw, written the way the paper prints it: one goroutine, a plain map,
// no atomics, no channel table, no flight tap. The differential tests
// hold the Controller to it decision for decision.
type refAlg1 struct {
	cfg    Config
	ch     map[stateKey]*refChannel
	quota  *QuotaClient // nil: no quota plane
	policy QuotaFailPolicy
	stats  Stats
	// inQuota, stalePassed and staleDropped are the quota branch's
	// counters; outOfQuota counts the checks that answered no, which the
	// Controller does not export but the coverage assertion wants.
	inQuota, stalePassed, staleDropped, outOfQuota int64
	// draws counts the uniform draws the algorithm consumed.
	draws int
}

type stateKey struct {
	dst   int
	class qos.Class
}

type refChannel struct {
	p         float64
	last      sim.Time
	increased bool
}

func (r *refAlg1) channel(dst int, c qos.Class) *refChannel {
	k := stateKey{dst, c}
	if r.ch[k] == nil {
		r.ch[k] = &refChannel{p: 1} // line 3
	}
	return r.ch[k]
}

// admit is lines 5-12, after the quota check. draw is consumed only where
// the algorithm reaches line 7's comparison — or would have, for a class
// without an SLO: the Controller draws before it looks at the class.
func (r *refAlg1) admit(now sim.Time, draw float64, dst int, c qos.Class, mtus int64) rpc.Decision {
	lowest := qos.Class(r.cfg.Levels - 1)
	slo := c >= 0 && c < lowest
	if slo && r.quota != nil {
		switch r.quota.CheckAt(now, c, mtus*netsim.MaxPayload) {
		case QuotaYes:
			r.inQuota++
			r.stats.Admitted++
			return rpc.Decision{Class: c, PAdmit: 1}
		case QuotaStale:
			if r.policy == QuotaFailClosed {
				r.staleDropped++
				r.stats.Dropped++
				return rpc.Decision{Dropped: true}
			}
			r.stalePassed++
		default:
			r.outOfQuota++
		}
	}
	r.draws++
	if !slo {
		r.stats.Admitted++
		return rpc.Decision{Class: lowest, PAdmit: 1}
	}
	switch p := r.channel(dst, c).p; {
	case draw <= p:
		r.stats.Admitted++
		return rpc.Decision{Class: c, PAdmit: p}
	case r.cfg.DropInsteadOfDowngrade:
		r.stats.Dropped++
		return rpc.Decision{Dropped: true, PAdmit: p}
	default:
		r.stats.Downgraded++
		return rpc.Decision{Class: lowest, Downgraded: true, PAdmit: p}
	}
}

// observe is lines 13-20.
func (r *refAlg1) observe(now sim.Time, dst int, c qos.Class, rnl sim.Duration, mtus int64) {
	if c < 0 || int(c) >= r.cfg.Levels-1 {
		return
	}
	mtus = max(mtus, 1)
	ch := r.channel(dst, c)
	if rnl/sim.Duration(mtus) < r.cfg.LatencyTargets[c] {
		r.stats.SLOMet++
		if r.cfg.NoIncrementWindow || !ch.increased || now-ch.last > r.cfg.incrementWindow(int(c)) {
			ch.p, ch.last, ch.increased = min(ch.p+r.cfg.Alpha, 1), now, true
		}
		return
	}
	r.stats.SLOMisses++
	dec := r.cfg.Beta
	if !r.cfg.NoSizeScaledMD {
		dec *= float64(mtus)
	}
	ch.p = max(ch.p-dec, r.cfg.Floor)
}

// alg1Clock is a manual clock that counts the draws taken from it.
type alg1Clock struct {
	ManualClock
	draws int
}

func (c *alg1Clock) Float64() float64 {
	c.draws++
	return c.ManualClock.Float64()
}

// alg1Rates are the grants a program switches the tenant between: none, a
// trickle that a burst of requests exhausts, and more than it can use.
var alg1Rates = [...]float64{0, 2e6, 1e9}

// playAlg1 interprets prog against a Controller and the reference and
// fails at the first observable difference. The first byte picks the
// configuration — bits 0-2 the three ablation switches, the next two no
// quota / fail-open / fail-closed — and every four bytes after it are one
// operation: an Admit with a scripted draw, an Observe, a clock advance,
// a quota-plane outage or repair, or a re-grant. After each one the two
// must agree on the decision, on p_admit of every channel bit for bit, on
// Stats and the quota counters, and on how many draws have been consumed.
func playAlg1(t *testing.T, prog []byte) *refAlg1 {
	t.Helper()
	if len(prog) == 0 {
		return &refAlg1{}
	}
	cfg := Defaults3(2*sim.Microsecond, 4*sim.Microsecond)
	cfg.NoIncrementWindow = prog[0]&1 != 0
	cfg.NoSizeScaledMD = prog[0]&2 != 0
	cfg.DropInsteadOfDowngrade = prog[0]&4 != 0
	clk := &alg1Clock{}
	ct, err := NewWithClock(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refAlg1{cfg: cfg, ch: map[stateKey]*refChannel{}}

	// The subject and the reference each meter their own client of their
	// own server; the program keeps the two planes in step.
	var planes []*QuotaServer
	eachPlane := func(f func(*QuotaServer)) {
		for _, q := range planes {
			f(q)
		}
	}
	if mode := prog[0] >> 3 % 3; mode != 0 {
		var clients [2]*QuotaClient
		for i := range clients {
			q := NewQuotaServer(map[qos.Class]float64{qos.High: 1e9, qos.Medium: 1e9})
			planes = append(planes, q)
			clients[i] = q.ClientWithClock("tenant", clk)
			clients[i].LeaseTTL = time.Millisecond
		}
		ref.quota, ref.policy = clients[1], QuotaFailPolicy(mode-1)
		ct.SetQuota(clients[0], ref.policy)
	}
	rate := 0
	regrant := func(next int) {
		eachPlane(func(q *QuotaServer) {
			for _, c := range []qos.Class{qos.High, qos.Medium} {
				q.Revoke("tenant", c, alg1Rates[rate])
				if err := q.Grant("tenant", c, alg1Rates[next]); err != nil {
					t.Fatal(err)
				}
			}
		})
		rate = next
	}
	regrant(2)

	classes := [...]qos.Class{qos.High, qos.Medium, qos.Low, 3, -1}
	channelOf := func(b byte) (int, qos.Class) { return int(b % 3), classes[b>>2%5] }
	for pc := 1; pc+3 < len(prog); pc += 4 {
		op, a, b, c := prog[pc]%8, prog[pc+1], prog[pc+2], prog[pc+3]
		switch op {
		case 0, 1, 2:
			dst, class := channelOf(a)
			clk.SetDraw(float64(c) / 255)
			got := ct.Admit(dst, class, int64(b%8))
			want := ref.admit(clk.Now(), float64(c)/255, dst, class, int64(b%8))
			if got != want {
				t.Fatalf("op %d: Admit(%d, %d, %d) draw %v = %+v, reference %+v", pc, dst, class, b%8, float64(c)/255, got, want)
			}
		case 3, 4:
			dst, class := channelOf(a)
			rnl := sim.Duration(c) * 500 * sim.Nanosecond
			ct.Observe(dst, class, rnl, int64(b%8))
			ref.observe(clk.Now(), dst, class, rnl, int64(b%8))
		case 5: // a tenth of a lease, or more than an increment window
			step := sim.Duration(a%16) * 100 * sim.Microsecond
			if a%4 == 0 {
				step = 5 * sim.Millisecond
			}
			clk.SetNow(clk.Now() + step)
		case 6:
			eachPlane(func(q *QuotaServer) { q.SetAvailable(a&1 == 0) })
		case 7:
			regrant(int(a) % len(alg1Rates))
		}
		for dst := 0; dst < 3; dst++ {
			for class := qos.High; class <= qos.Medium; class++ {
				if got, want := ct.AdmitProbability(dst, class), ref.channel(dst, class).p; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("op %d: p_admit(%d, %v) = %v, reference %v", pc, dst, class, got, want)
				}
			}
		}
		if got := ct.Stats(); got != ref.stats {
			t.Fatalf("op %d: Stats %+v, reference %+v", pc, got, ref.stats)
		}
		if clk.draws != ref.draws {
			t.Fatalf("op %d: %d draws, reference %d", pc, clk.draws, ref.draws)
		}
		got, ok := ct.QuotaStats()
		var want QuotaStats
		if ref.quota != nil {
			want = QuotaStats{ref.policy, ref.inQuota, ref.stalePassed, ref.staleDropped, ref.quota.LeaseStats()}
		}
		if got != want || ok != (ref.quota != nil) {
			t.Fatalf("op %d: QuotaStats %+v, reference %+v", pc, got, want)
		}
	}
	return ref
}

// alg1Programs are the seed corpus: each names what it is there for, and
// each is a fuzzing seed.
var alg1Programs = []struct {
	name string
	prog []byte
}{
	{"downgrade-then-recover", []byte{0,
		3, 0, 1, 200, 3, 0, 1, 200, 0, 0, 1, 255, 0, 0, 1, 0,
		3, 0, 1, 1, 5, 4, 0, 0, 3, 0, 1, 1, 3, 0, 1, 1, 5, 4, 0, 0, 3, 0, 1, 1}},
	{"one-increase-per-window", []byte{0,
		3, 0, 4, 255, 3, 0, 1, 1, 3, 0, 1, 1, 5, 1, 0, 0, 3, 0, 1, 1, 5, 4, 0, 0, 3, 0, 1, 1}},
	{"every-completion-increases", []byte{1, 3, 0, 4, 255, 3, 0, 1, 1, 3, 0, 1, 1, 3, 0, 1, 1}},
	{"constant-decrease", []byte{2, 3, 0, 7, 255, 3, 0, 1, 255, 0, 0, 1, 250}},
	{"drop-not-downgrade", []byte{4, 3, 0, 7, 255, 0, 0, 1, 255, 0, 0, 1, 0}},
	{"scavenger-and-out-of-range-still-draw", []byte{0,
		0, 8, 1, 9, 0, 12, 1, 9, 0, 16, 1, 9, 3, 8, 1, 9, 3, 16, 1, 9}},
	{"quota-yes-bypasses-collapsed-channel", []byte{8,
		3, 0, 7, 255, 3, 0, 7, 255, 0, 0, 1, 255, 0, 8, 1, 255}},
	{"quota-no-falls-through", []byte{8,
		7, 1, 0, 0, 0, 0, 7, 0, 0, 0, 7, 0, 0, 0, 7, 0, 5, 1, 0, 0, 0, 0, 1, 0,
		7, 0, 0, 0, 5, 4, 0, 0, 0, 0, 1, 0}},
	{"stale-fail-open", []byte{8,
		0, 0, 1, 0, 6, 1, 0, 0, 0, 0, 1, 0, 5, 4, 0, 0, 0, 0, 1, 0, 0, 0, 1, 255, 6, 0, 0, 0, 0, 0, 1, 0}},
	{"stale-fail-closed", []byte{16,
		0, 0, 1, 0, 6, 1, 0, 0, 5, 4, 0, 0, 0, 0, 1, 0, 0, 8, 1, 0, 6, 0, 0, 0, 0, 0, 1, 0}},
	{"fail-closed-with-drop-ablation", []byte{20,
		7, 0, 0, 0, 3, 0, 7, 255, 0, 0, 1, 255, 6, 1, 0, 0, 5, 4, 0, 0, 0, 0, 1, 255}},
}

// TestAlgorithm1MatchesReference drives the Controller and the sequential
// reference with the same programs: the named ones, then random ones over
// every configuration.
func TestAlgorithm1MatchesReference(t *testing.T) {
	for _, c := range alg1Programs {
		t.Run(c.name, func(t *testing.T) { playAlg1(t, c.prog) })
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(18))
		var yes, no, stale [2]int64 // by failure policy
		for i := 0; i < 600; i++ {
			prog := make([]byte, 1+4*(1+rng.Intn(300)))
			rng.Read(prog)
			prog[0] = byte(i) // every switch combination under every quota mode
			ref := playAlg1(t, prog)
			yes[ref.policy] += ref.inQuota
			no[ref.policy] += ref.outOfQuota
			stale[ref.policy] += ref.stalePassed + ref.staleDropped
		}
		for _, p := range []QuotaFailPolicy{QuotaFailOpen, QuotaFailClosed} {
			if yes[p] == 0 || no[p] == 0 || stale[p] == 0 {
				t.Errorf("%v: %d checks in quota, %d out, %d stale: a state was never reached", p, yes[p], no[p], stale[p])
			}
		}
	})
}

// FuzzAlgorithm1 is the same comparison with the fuzzer choosing the
// program: go test -run '^$' -fuzz FuzzAlgorithm1 ./internal/core
func FuzzAlgorithm1(f *testing.F) {
	for _, c := range alg1Programs {
		f.Add(c.prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { playAlg1(t, prog) })
}
