// Sweep sharding: the planning side of the experiment farm. A sweep is a
// flat list of fully deterministic, independent trials (pool.go), so it can
// be split across worker processes by partitioning that list. The partition
// is a stable modulo assignment over the canonical job order — job j belongs
// to shard j mod N — so shard membership depends only on (config, N), never
// on timing: any subset of shards can be re-run later and heal the grid via
// warm store hits.
package bench

import "fmt"

// ShardWorkloads expands cfg into its flat job list — the same
// (point, trial) order Sweep runs its jobs in — and returns the
// workloads of jobs assigned to shard (0-based) out of `of`. Every job lands
// in exactly one shard; concatenating all shards' lists, interleaved by job
// index, reproduces the full sweep. Execution knobs (Workers, Store, Obs,
// Trace) do not affect the partition.
func ShardWorkloads(cfg SweepConfig, shard, of int) ([]Workload, error) {
	if cfg.Trials == 0 {
		cfg.Trials = 1
	}
	if err := validateSweep(cfg); err != nil {
		return nil, err
	}
	if of < 1 {
		return nil, fmt.Errorf("bench: shard count %d, need at least 1", of)
	}
	if shard < 0 || shard >= of {
		return nil, fmt.Errorf("bench: shard %d out of range [0,%d)", shard, of)
	}
	specs := expand(cfg)
	var ws []Workload
	job := 0
	for _, s := range specs {
		for trial := 0; trial < cfg.Trials; trial++ {
			if job%of == shard {
				ws = append(ws, trialWorkload(cfg, s, trial))
			}
			job++
		}
	}
	return ws, nil
}
