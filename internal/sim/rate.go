package sim

import "math/bits"

// Rate is a transmission rate in bits per second.
type Rate int64

// Common rates.
const (
	BitPerSecond Rate = 1
	Kbps         Rate = 1e3
	Mbps         Rate = 1e6
	Gbps         Rate = 1e9
)

// TxTime returns the time to serialise n bytes at rate r, rounded up to the
// nearest picosecond so that back-to-back transmissions never overlap.
func (r Rate) TxTime(bytes int) Duration {
	if r <= 0 {
		return MaxTime
	}
	b := uint64(bytes) * 8
	// d = ceil(b * 1e12 / r) picoseconds, computed with 128-bit
	// intermediates so multi-gigabyte transfers do not overflow.
	hi, lo := bits.Mul64(b, uint64(Second))
	q, rem := bits.Div64(hi, lo, uint64(r))
	if rem > 0 {
		q++
	}
	return Duration(q)
}

// BytesIn returns how many whole bytes r transmits in d.
func (r Rate) BytesIn(d Duration) int64 {
	if d <= 0 || r <= 0 {
		return 0
	}
	// bytes = floor(r * d / (8 * 1e12)), with 128-bit intermediates.
	hi, lo := bits.Mul64(uint64(r), uint64(d))
	q, _ := bits.Div64(hi, lo, 8*uint64(Second))
	return int64(q)
}
