package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"aequitas"
)

// parseClassToLower is ParseClass as it was before it stopped allocating,
// plus the "qos" prefix of Class.String's QoS3, QoS4, ...: the reference
// FuzzParseClass compares against on ASCII input.
func parseClassToLower(s string) (aequitas.Class, error) {
	lower, num := strings.ToLower(strings.TrimSpace(s)), strings.TrimSpace(s)
	switch lower {
	case "qosh", "high", "h":
		return aequitas.High, nil
	case "qosm", "medium", "m":
		return aequitas.Medium, nil
	case "qosl", "low", "l":
		return aequitas.Low, nil
	}
	if len(lower) > 3 && strings.HasPrefix(lower, "qos") {
		num = num[3:]
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("serve: unknown QoS class %q", s)
	}
	return aequitas.Class(n), nil
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

func FuzzParseClass(f *testing.F) {
	for _, s := range []string{
		"QoSh", "high", "H", "0", "QoSm", "medium", "1", "qosl", "Low", "2",
		"", "urgent", "-1", " QoSh\t", "+3", "007", "qoſh", "hİgh", " low", "99999999999999999999",
		"-0", "+", "-", "+-1", "9223372036854775807", "9223372036854775808", "-9223372036854775808", "1_0",
		"QoS3", "qos0", "QoS", "QoS-1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseClass(s)
		if !isASCII(strings.TrimSpace(s)) {
			// Outside ASCII only surrounding Unicode space is tolerated:
			// no fold variant of a class name may match.
			if err == nil {
				t.Fatalf("ParseClass(%q) accepted a non-ASCII spelling as %v", s, got)
			}
			return
		}
		want, wantErr := parseClassToLower(s)
		if (err == nil) != (wantErr == nil) || got != want {
			t.Fatalf("ParseClass(%q) = %v, %v; the ToLower parser gave %v, %v", s, got, err, want, wantErr)
		}
		if err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ParseClass(%q) error %q, want %q", s, err, wantErr)
		}
	})
}

// TestParseClassFoldsOnlyASCII pins the inputs a Unicode-aware fold would
// get wrong: the long s and the dotted capital I fold to ASCII letters,
// and must not match.
func TestParseClassFoldsOnlyASCII(t *testing.T) {
	for _, s := range []string{"qoſh", "QOſH", "hİgh", "medİum", "Kosh"} {
		if c, err := ParseClass(s); err == nil {
			t.Errorf("ParseClass(%q) = %v, want an error", s, c)
		}
	}
}

// TestClassifyByHeaderAllocs pins the default classifier at zero
// allocations for the spellings Class.String emits, and for a missing or
// unknown class, which fall back to the highest without building the
// error ParseClass would return.
func TestClassifyByHeaderAllocs(t *testing.T) {
	for _, tc := range []struct {
		header string
		class  aequitas.Class
	}{
		{aequitas.High.String(), aequitas.High},
		{aequitas.Medium.String(), aequitas.Medium},
		{aequitas.Low.String(), aequitas.Low},
		{"", aequitas.High},
		{"gold", aequitas.High},
	} {
		r := httptest.NewRequest("POST", "/backend", nil)
		r.Header.Set(HeaderPeer, "peer-01")
		if tc.header != "" {
			r.Header.Set(HeaderClass, tc.header)
		}
		var got Request
		if n := testing.AllocsPerRun(100, func() { got = ClassifyByHeader(r) }); n != 0 {
			t.Errorf("ClassifyByHeader with %q: %v allocs per call, want 0", tc.header, n)
		}
		if got.Class != tc.class || got.Peer != "peer-01" {
			t.Errorf("ClassifyByHeader with %q = %+v, want class %v", tc.header, got, tc.class)
		}
	}
}

func FuzzDeadlineHeader(f *testing.F) {
	for _, s := range []string{"250ms", "10ms", "10s", "soonish", "", "-5ms", "1h2m3.5s", "9223372036854775807ns", "1e3s", ".5s", "0"} {
		f.Add(s)
	}
	a, err := New(Config{Controller: newController(f), Deadline: &DeadlineConfig{}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, s string) {
		h := http.Header{}
		h.Set(HeaderDeadline, s)
		budget, ok := a.budgetFromRequest(h, context.Background())
		want, perr := time.ParseDuration(s)
		if ok != (s != "" && perr == nil) {
			t.Fatalf("budgetFromRequest(%q) ok = %v, ParseDuration error %v", s, ok, perr)
		}
		if !ok {
			return
		}
		if budget != want {
			t.Fatalf("budgetFromRequest(%q) = %v, want %v", s, budget, want)
		}
		// A parsed budget survives being sent on as a header.
		h.Set(HeaderDeadline, budget.String())
		if again, ok := a.budgetFromRequest(h, context.Background()); !ok || again != budget {
			t.Fatalf("budget %v (from %q) re-parsed as %v, %v", budget, s, again, ok)
		}
		// Whatever the budget, deciding on it must not panic.
		a.begin(Request{Peer: "/fuzz"}, budget, ok)
	})
}
