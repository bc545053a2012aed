package experiments

import "hpcsched/internal/batch"

// retrySalt separates retry attempts' derived seeds from every other seed
// stream in the repository (replica seeds, fault streams, storm daemons).
const retrySalt = 0x2e72_0000_0000_0000

// SeedsFrom returns n replication seeds derived from base with
// batch.DeriveSeed: independent streams whose prefix never changes when
// n grows. DefaultSeeds remains the legacy arithmetic ladder.
func SeedsFrom(base uint64, n int) []uint64 {
	return batch.Seeds(base, n)
}
