package sim

// Deadline spans the store tests aim at. They are the slot widths of the
// hierarchical timer wheel the engine once kept in front of its heap:
// level-0 slots 2^10 ns (≈1 µs) wide, 256 slots a level, three levels
// spanning 262 µs, 67 ms and 17 s. The heap has no tiers, but distances
// that straddle these boundaries keep the tests' mix of same-instant,
// sub-millisecond, tick-scale and multi-second deadlines.
const (
	wheelGranuleBits = 10
	wheelBits        = 8
	wheelLevels      = 3
	// wheelHorizonBits is the span the wheel covered: 2^34 ns ≈ 17.2 s.
	wheelHorizonBits = wheelGranuleBits + wheelBits*wheelLevels
)

// wheelShift returns the bit position of level l's slot index within a
// deadline.
func wheelShift(l int) uint {
	return uint(wheelGranuleBits + l*wheelBits)
}
