package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"aequitas/internal/qos"
	"aequitas/internal/sim"
)

// QuotaServer is the centralized per-tenant rate-guarantee extension the
// paper leaves as future work (§5.2): "Aequitas provides latency SLOs for
// all admitted RPCs, [but] does not guarantee the amount of traffic
// admitted on a per-application or per-tenant basis … One can augment
// Aequitas to provide application/tenant traffic rate guarantees with a
// centralized RPC quota server."
//
// The server grants each tenant a guaranteed byte rate per QoS class.
// Hosts consult their tenant's local QuotaClient before the probabilistic
// admission draw: traffic within quota bypasses the draw (it is always
// admitted on the requested class, consuming quota), and traffic beyond
// quota falls through to the normal Algorithm 1 path. Quotas are enforced
// with token buckets refilled at the granted rate; the sum of grants per
// class is capped at the class's provisioned capacity so that in-quota
// traffic stays inside the admissible region by construction.
//
// QuotaServer and QuotaClient are safe for concurrent use: Grant/Revoke
// from a control plane can race with checks on the serving path.
//
// Clients consume grants as TTL leases, which QuotaClient.CheckAt
// refreshes: a host caches the granted rate for QuotaClient.LeaseTTL and
// keeps enforcing it locally while the lease is fresh, so a brief
// quota-plane outage is invisible. When the server is unreachable
// (SetAvailable(false), the chaos harness's outage window) past the
// lease TTL, the lease is stale and the failure policy given to
// Controller.SetQuota decides what happens.
type QuotaServer struct {
	mu sync.Mutex
	// capacity[class] is the total grantable rate per class in
	// bytes/second.
	capacity map[qos.Class]float64
	granted  map[qos.Class]float64
	tenants  map[string]*tenantGrant
	// down marks the server unreachable: lease refreshes fail until
	// SetAvailable(true). It models the quota control plane stalling,
	// not the grants disappearing — Grant/Revoke still work (the state
	// is intact), clients just cannot read it.
	down atomic.Bool
}

// SetAvailable marks the quota plane reachable (true) or unreachable
// (false) from the serving hosts — the chaos harness's outage control.
func (q *QuotaServer) SetAvailable(up bool) { q.down.Store(!up) }

type tenantGrant struct {
	rates map[qos.Class]float64
}

// NewQuotaServer creates a server with the given per-class grantable
// capacities (bytes/second).
func NewQuotaServer(capacity map[qos.Class]float64) *QuotaServer {
	cp := make(map[qos.Class]float64, len(capacity))
	for k, v := range capacity {
		cp[k] = v
	}
	return &QuotaServer{
		capacity: cp,
		granted:  make(map[qos.Class]float64),
		tenants:  make(map[string]*tenantGrant),
	}
}

// Grant reserves rate bytes/second on class for tenant, on top of any
// existing grant. It fails when the class's remaining capacity is
// insufficient — admission control for quotas themselves.
func (q *QuotaServer) Grant(tenant string, class qos.Class, rate float64) error {
	if rate < 0 {
		return fmt.Errorf("core: negative quota rate")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	capacity, ok := q.capacity[class]
	if !ok {
		return fmt.Errorf("core: class %v has no grantable capacity", class)
	}
	if q.granted[class]+rate > capacity+1e-9 {
		return fmt.Errorf("core: class %v capacity exhausted: %g of %g granted, %g requested",
			class, q.granted[class], capacity, rate)
	}
	t, ok := q.tenants[tenant]
	if !ok {
		t = &tenantGrant{rates: make(map[qos.Class]float64)}
		q.tenants[tenant] = t
	}
	t.rates[class] += rate
	q.granted[class] += rate
	return nil
}

// Revoke releases up to rate bytes/second of tenant's grant on class.
func (q *QuotaServer) Revoke(tenant string, class qos.Class, rate float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tenants[tenant]
	if !ok {
		return
	}
	if rate > t.rates[class] {
		rate = t.rates[class]
	}
	t.rates[class] -= rate
	q.granted[class] -= rate
}

// GrantedRate reports tenant's current grant on class in bytes/second.
func (q *QuotaServer) GrantedRate(tenant string, class qos.Class) float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t, ok := q.tenants[tenant]; ok {
		return t.rates[class]
	}
	return 0
}

// Remaining reports the ungranted capacity on class.
func (q *QuotaServer) Remaining(class qos.Class) float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.capacity[class] - q.granted[class]
}

// Lease is a time-bounded snapshot of a tenant's granted rate: the
// client enforces Rate locally until Expires, then must refresh.
type Lease struct {
	// Rate is the granted rate in bytes/second at issue time.
	Rate float64
	// Expires is the instant (on the client's clock) the lease goes
	// stale.
	Expires sim.Time
}

// lease issues tenant's current grant on class as a lease expiring at
// now+ttl, and reports whether it waited for the server's lock. up is
// false when the server is unreachable — the client must keep its
// previous lease (if still fresh) or report staleness.
func (q *QuotaServer) lease(tenant string, class qos.Class, now sim.Time, ttl sim.Duration) (l Lease, up, waited bool) {
	if q.down.Load() {
		return Lease{}, false, false
	}
	waited = lock(&q.mu)
	if t, ok := q.tenants[tenant]; ok {
		l.Rate = t.rates[class]
	}
	q.mu.Unlock()
	l.Expires = now + ttl
	return l, true, waited
}

// lock locks mu and reports whether it had to wait for another holder.
func lock(mu *sync.Mutex) (waited bool) {
	if mu.TryLock() {
		return false
	}
	mu.Lock()
	return true
}

// Client returns a host-local quota enforcer for tenant, timestamped by
// its own monotonic wall clock. Clients read the granted rate through on
// each refill, so Grant/Revoke take effect immediately.
func (q *QuotaServer) Client(tenant string) *QuotaClient {
	return q.ClientWithClock(tenant, nil)
}

// ClientWithClock is Client with an explicit time source; a nil clock
// defaults to a fresh WallClock. Simulations pass their SimClock so
// bucket refills run on virtual time.
func (q *QuotaServer) ClientWithClock(tenant string, clk Clock) *QuotaClient {
	if clk == nil {
		clk = NewWallClock()
	}
	c := &QuotaClient{server: q, tenant: tenant, clock: clk}
	for i := range c.buckets {
		c.buckets[i].idleUntil.Store(math.MinInt64)
	}
	return c
}

// quotaClasses is the number of classes a QuotaClient keeps a bucket for:
// classes 0 to quotaClasses-1. A check on any other class answers QuotaNo.
const quotaClasses = 8

// QuotaClient enforces one tenant's quota at one sending host with
// per-class token buckets fed by TTL leases on the server's grants. It
// is safe for concurrent use: each class's bucket has its own lock, so a
// check, or a lease refresh, blocks only checks on its own class, and a
// check on a class whose fresh lease grants nothing takes no lock at
// all.
type QuotaClient struct {
	server *QuotaServer
	tenant string
	clock  Clock

	// BurstSeconds bounds token accumulation to rate×BurstSeconds
	// (default 0.01 s). Set it before serving begins.
	BurstSeconds float64
	// LeaseTTL is how long a fetched grant stays valid without a
	// refresh. Zero (the default) refreshes on every check, so
	// Grant/Revoke take effect immediately — but any quota-plane outage
	// is immediately visible too. A positive TTL rides through outages
	// shorter than the TTL at the cost of Grant/Revoke taking up to one
	// TTL to propagate. Set it before serving begins.
	LeaseTTL time.Duration

	// Lease-health counters, atomically updated.
	refreshes   atomic.Int64
	staleChecks atomic.Int64

	_       [64]byte // keeps the fields above off bucket 0's cache line
	buckets [quotaClasses]quotaBucket
}

// QuotaState is the tri-state outcome of a quota check.
type QuotaState uint8

const (
	// QuotaNo: the request does not fit the tenant's tokens (or the
	// tenant has no grant); fall through to the probabilistic path.
	QuotaNo QuotaState = iota
	// QuotaYes: the request fits and the tokens were consumed; admit on
	// the requested class, bypassing the draw.
	QuotaYes
	// QuotaStale: the quota plane is unreachable and the lease has
	// expired — the client cannot tell whether the tenant is in quota.
	// The failure policy given to Controller.SetQuota decides.
	QuotaStale
)

func (s QuotaState) String() string {
	switch s {
	case QuotaYes:
		return "yes"
	case QuotaStale:
		return "stale"
	default:
		return "no"
	}
}

// QuotaLeaseStats snapshots the client's lease health.
type QuotaLeaseStats struct {
	// Refreshes counts successful lease fetches from the server.
	Refreshes int64
	// StaleChecks counts quota checks answered while the lease was
	// expired and the server unreachable.
	StaleChecks int64
}

// LeaseStats returns an atomic snapshot of the lease-health counters.
func (c *QuotaClient) LeaseStats() QuotaLeaseStats {
	return QuotaLeaseStats{
		Refreshes:   c.refreshes.Load(),
		StaleChecks: c.staleChecks.Load(),
	}
}

// quotaBucket is one class's token bucket and lease: 56 bytes, padded to
// 128 so no two buckets share a cache line. idleUntil is the lock-free
// half of CheckAt: the expiry of the bucket's lease while that lease
// grants nothing, math.MinInt64 otherwise. A check before it would find
// a fresh lease and a zero rate under the lock, and answer QuotaNo
// having written nothing, so it answers without the lock. mu guards the
// rest, and idleUntil's writes.
type quotaBucket struct {
	mu        sync.Mutex
	tokens    float64
	last      sim.Time
	lease     Lease
	haveLease bool
	idleUntil atomic.Int64
	_         [72]byte
}

// Check is CheckAt on the client's clock.
func (c *QuotaClient) Check(class qos.Class, bytes int64) QuotaState {
	return c.CheckAt(c.clock.Now(), class, bytes)
}

// CheckAt runs one quota check at now: refresh the class's lease if it
// has expired, then try to consume bytes from the token bucket refilled
// at the leased rate. It reports QuotaStale when the lease is expired
// and the server unreachable — the caller's failure policy applies.
// Concurrent callers read the clock before they take the bucket's lock,
// so a check may arrive with a reading older than the bucket's last one:
// it refills nothing and leaves the bucket's time where it was.
//
// A class whose fresh lease grants nothing is answered QuotaNo from the
// bucket's idleUntil, with no lock and no write. A check that refuses
// for want of tokens still takes the lock, because it refills the bucket
// to its reading: a later check, older readings included, must see
// those tokens, so the refusal has to leave them.
func (c *QuotaClient) CheckAt(now sim.Time, class qos.Class, bytes int64) QuotaState {
	st, _ := c.check(now, class, bytes)
	return st
}

// check is CheckAt that also reports whether it waited for a lock: its
// bucket's, held by a concurrent check, or the server's, on a lease
// refresh. A caller that keeps now as the time the check finished knows
// then that it is late by that wait.
func (c *QuotaClient) check(now sim.Time, class qos.Class, bytes int64) (st QuotaState, waited bool) {
	if class < 0 || class >= quotaClasses {
		return QuotaNo, false
	}
	b := &c.buckets[class]
	if int64(now) < b.idleUntil.Load() {
		return QuotaNo, false
	}
	// The server lock (inside lease) and a bucket lock never nest the
	// other way: the refresh call happens under b.mu but lease only
	// takes q.mu, and the server never calls back into the client.
	waited = lock(&b.mu)
	defer b.mu.Unlock()
	if !b.haveLease || now >= b.lease.Expires {
		lease, up, w := c.server.lease(c.tenant, class, now, sim.FromStd(c.LeaseTTL))
		waited = waited || w
		if up {
			fresh := !b.haveLease
			if fresh || lease.Rate != b.lease.Rate {
				// A fresh or re-rated bucket starts with one burst.
				b.tokens = lease.Rate * c.burstSeconds()
				if fresh || now > b.last {
					b.last = now
				}
			}
			b.lease, b.haveLease = lease, true
			idle := int64(math.MinInt64)
			if lease.Rate <= 0 {
				idle = int64(lease.Expires)
			}
			b.idleUntil.Store(idle)
			c.refreshes.Add(1)
		} else {
			// Unreachable past the TTL: the lease is stale.
			c.staleChecks.Add(1)
			return QuotaStale, waited
		}
	}
	rate := b.lease.Rate
	if rate <= 0 {
		return QuotaNo, waited
	}
	// Refill; an older reading adds nothing (see above).
	if now > b.last {
		b.tokens += rate * (now - b.last).Seconds()
		b.last = now
	}
	if max := rate * c.burstSeconds(); b.tokens > max {
		b.tokens = max
	}
	if b.tokens < float64(bytes) {
		return QuotaNo, waited
	}
	b.tokens -= float64(bytes)
	return QuotaYes, waited
}

func (c *QuotaClient) burstSeconds() float64 {
	if c.BurstSeconds > 0 {
		return c.BurstSeconds
	}
	return 0.01
}

// QuotaFailPolicy decides what a Controller does when the quota plane is
// unreachable and the local lease has expired.
type QuotaFailPolicy uint8

const (
	// QuotaFailOpen (the default) falls through to the normal Algorithm 1
	// probabilistic path: the quota bypass is lost but admission control
	// keeps working, so goodput degrades gracefully toward the
	// quota-free baseline.
	QuotaFailOpen QuotaFailPolicy = iota
	// QuotaFailClosed drops SLO-class RPCs outright while the lease is
	// stale: strict enforcement for deployments where admitting
	// unaccounted traffic is worse than shedding it.
	QuotaFailClosed
)

func (p QuotaFailPolicy) String() string {
	if p == QuotaFailClosed {
		return "fail-closed"
	}
	return "fail-open"
}
