package rpc

import (
	"testing"

	"aequitas/internal/qos"
)

// mkStacks builds hosts stacks with a plausible live outstanding pattern:
// each stack has RPCs in flight to ~1/4 of the destinations across levels
// classes.
func mkStacks(hosts, levels int) []*Stack {
	stacks := make([]*Stack, hosts)
	for i := range stacks {
		st := &Stack{}
		for dst := 0; dst < hosts; dst++ {
			if (dst+i)%4 != 0 {
				continue
			}
			for cl := 0; cl < levels; cl++ {
				st.count(dst, qos.Class(cl), dst%3+1)
			}
		}
		stacks[i] = st
	}
	return stacks
}

// BenchmarkOutstandingSampleQuadratic is the former collector pattern: for
// every destination, probe every stack at every class — O(hosts²·levels)
// lookups per sampling tick.
func BenchmarkOutstandingSampleQuadratic(b *testing.B) {
	const hosts, levels = 32, 3
	stacks := mkStacks(hosts, levels)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		for dst := 0; dst < hosts; dst++ {
			var hi, lo int
			for _, st := range stacks {
				for cl := 0; cl < levels-1; cl++ {
					hi += st.OutstandingClass(dst, qos.Class(cl))
				}
				lo += st.OutstandingClass(dst, qos.Class(levels-1))
			}
			sink += hi + lo
		}
	}
	_ = sink
}

// BenchmarkOutstandingSampleOnePass is the replacement: one pass over each
// stack's live entries, accumulating per-destination counts.
func BenchmarkOutstandingSampleOnePass(b *testing.B) {
	const hosts, levels = 32, 3
	stacks := mkStacks(hosts, levels)
	hi := make([]int, hosts)
	lo := make([]int, hosts)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		for d := range hi {
			hi[d], lo[d] = 0, 0
		}
		for _, st := range stacks {
			st.ForEachOutstanding(func(dst int, cl qos.Class, n int) {
				if cl >= qos.Class(levels-1) {
					lo[dst] += n
				} else {
					hi[dst] += n
				}
			})
		}
		for d := range hi {
			sink += hi[d] + lo[d]
		}
	}
	_ = sink
}

// TestOutstandingOnePassMatchesQuadratic pins the two accumulation
// strategies to identical totals.
func TestOutstandingOnePassMatchesQuadratic(t *testing.T) {
	const hosts, levels = 16, 3
	stacks := mkStacks(hosts, levels)
	for dst := 0; dst < hosts; dst++ {
		var hiQ, loQ int
		for _, st := range stacks {
			for cl := 0; cl < levels-1; cl++ {
				hiQ += st.OutstandingClass(dst, qos.Class(cl))
			}
			loQ += st.OutstandingClass(dst, qos.Class(levels-1))
		}
		var hiP, loP int
		for _, st := range stacks {
			st.ForEachOutstanding(func(d int, cl qos.Class, n int) {
				if d != dst {
					return
				}
				if cl >= qos.Class(levels-1) {
					loP += n
				} else {
					hiP += n
				}
			})
		}
		if hiQ != hiP || loQ != loP {
			t.Fatalf("dst %d: quadratic (%d,%d) != one-pass (%d,%d)", dst, hiQ, loQ, hiP, loP)
		}
	}
}
