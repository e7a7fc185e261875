package serve

import "testing"

// snapCounters reads the counters out of a fresh Snapshot.
func snapCounters(a *Admission) map[string]int64 {
	ctr := map[string]int64{}
	for _, c := range a.Snapshot().Counters {
		ctr[c.Name] = int64(c.Value)
	}
	return ctr
}

func snapCounter(a *Admission, name string) int64 { return snapCounters(a)[name] }

// checkLedger asserts request conservation on the exported counters:
// every offered request is exactly one of admitted, downgraded, rejected,
// expired, shed or quota-dropped, and the completions are the requests
// whose handler ran — the admitted and the downgraded. offered < 0 means
// the test cannot know how many requests reached the layer (something in
// front of it stopped some).
func checkLedger(t testing.TB, a *Admission, offered int64) {
	t.Helper()
	ctr := snapCounters(a)
	served := ctr["serve_admitted"] + ctr["serve_downgraded"]
	decided := served + ctr["serve_rejected"] + ctr["serve_expired"] +
		ctr["serve_shed"] + ctr["serve_quota_dropped"]
	if offered >= 0 && decided != offered {
		t.Errorf("ledger: outcomes sum to %d of %d offered requests: %v", decided, offered, ctr)
	}
	if got := ctr["serve_completed"]; got != served {
		t.Errorf("ledger: serve_completed = %d, want admitted + downgraded = %d", got, served)
	}
}
