package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sameOrder fails unless got is want element for element, where two NaNs
// match and so do -0 and +0: what sort.Float64s leaves open.
func sameOrder(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("index %d: %v, sort.Float64s has %v", i, got[i], want[i])
		}
	}
}

// sortedSample returns xs in the order a Sample holding them sorts them
// into for its order statistics.
func sortedSample(xs ...float64) []float64 {
	s := sampleOf(xs...)
	s.sort()
	return s.xs
}

// rnlLike draws n latencies in microseconds at picosecond grain, the shape
// the simulator's RNL samples have.
func rnlLike(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(int64(5e6+rng.ExpFloat64()*2e7)) / 1e6
	}
	return xs
}

// TestSampleSortMatchesSortFloat64s holds the sample's sort to
// sort.Float64s on either side of the radix cutoff, over inputs with
// every kind of float64: negatives, both zeros, both infinities,
// subnormals, NaNs, duplicates, and keys that agree on every digit.
func TestSampleSortMatchesSortFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, math.Float64frombits(0x7ff8000000000001)}
	inputs := []struct {
		name string
		gen  func(n int) []float64
	}{
		{"mixed", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				switch rng.Intn(4) {
				case 0:
					xs[i] = special[rng.Intn(len(special))]
				case 1:
					xs[i] = math.Float64frombits(rng.Uint64())
				case 2:
					xs[i] = float64(rng.Intn(7) - 3) // duplicates
				default:
					xs[i] = rng.NormFloat64() * 1e3
				}
			}
			return xs
		}},
		{"rnl", func(n int) []float64 { return rnlLike(rng, n) }},
		{"negative", func(n int) []float64 {
			xs := rnlLike(rng, n)
			for i := range xs {
				xs[i] = -xs[i]
			}
			return xs
		}},
		{"equal", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 42.5
			}
			return xs
		}},
		{"last-bit", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = math.Float64frombits(math.Float64bits(7) + uint64(rng.Intn(2)))
			}
			return xs
		}},
		{"nan", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = math.NaN()
			}
			return xs
		}},
	}
	for _, in := range inputs {
		for _, n := range []int{0, 1, 2, 100, radixCutoff - 1, radixCutoff, radixCutoff + 1, 5000, 70000} {
			xs := in.gen(n)
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			t.Run(fmt.Sprintf("%s/%d", in.name, n), func(t *testing.T) { sameOrder(t, sortedSample(xs...), want) })
		}
	}
}

// FuzzSampleSort holds the radix sort to sort.Float64s on arbitrary bit
// patterns, at the fuzzer's lengths and, tiled, past the cutoff.
func FuzzSampleSort(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())), true)
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<63), 0), true)
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\xf0\x7f\xff\xff\xff\xff\xff\xff\xef\xff"), false)
	f.Fuzz(func(t *testing.T, data []byte, long bool) {
		var xs []float64
		for ; len(data) >= 8; data = data[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if long && len(xs) > 0 {
			for i := 0; len(xs) <= radixCutoff; i++ {
				xs = append(xs, xs[i]*float64(i%3-1))
			}
		}
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		got := append([]float64(nil), xs...)
		radixSort(got)
		sameOrder(t, got, want)
		sameOrder(t, sortedSample(xs...), want)
	})
}

// BenchmarkSampleQuantile is the first quantile asked of an exact sample
// of a million RNL-like values, which sorts it: radix is the sample's own
// path, comparison the sort.Float64s it replaced at this size.
func BenchmarkSampleQuantile(b *testing.B) {
	src := rnlLike(rand.New(rand.NewSource(2)), 1_000_000)
	for _, bc := range []struct {
		name string
		sort func([]float64)
	}{{"radix", radixSort}, {"comparison", sort.Float64s}} {
		b.Run(bc.name, func(b *testing.B) {
			s := &Sample{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.xs = append(s.xs[:0], src...)
				bc.sort(s.xs)
				s.sorted = true
				_ = s.Quantile(0.999)
			}
		})
	}
}
