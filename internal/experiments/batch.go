package experiments

import "hpcsched/internal/batch"

// retrySalt separates retry attempts' derived seeds from every other seed
// stream in the repository (replica seeds, fault streams, storm daemons).
const retrySalt = 0x2e72_0000_0000_0000

// ReplicaConfigs builds the (seed × mode) grid for a workload's table in
// the canonical seed-major order TableStatsOf aggregates in: all modes
// of seeds[0], then all modes of seeds[1], and so on.
func ReplicaConfigs(workload string, seeds []uint64) []Config {
	modes := TableModes(workload)
	cfgs := make([]Config, 0, len(seeds)*len(modes))
	for _, seed := range seeds {
		for _, m := range modes {
			cfgs = append(cfgs, Config{Workload: workload, Mode: m, Seed: seed})
		}
	}
	return cfgs
}

// SeedsFrom returns n replication seeds derived from base with
// batch.DeriveSeed: independent streams whose prefix never changes when
// n grows. DefaultSeeds remains the legacy arithmetic ladder.
func SeedsFrom(base uint64, n int) []uint64 {
	return batch.Seeds(base, n)
}
