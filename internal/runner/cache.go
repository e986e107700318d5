package runner

import (
	"repro/internal/cluster"
	"repro/internal/model"
)

// instanceCache is the per-worker model cache behind Estimate and Compare:
// each exec worker builds an Instance once per configuration and recycles
// it for every subsequent replication it claims, so the SAN graph, the
// dependency index and the executor's calendar are constructed once per
// worker instead of once per replication. cluster.Config is a comparable
// value type of plain scalars, so it keys the map directly.
//
// The cache never influences results: Instance.Recycle is pinned
// bit-identical to a fresh build (model's TestRecycleMatchesFreshBuild),
// and seeds are pre-assigned per replication, so which worker — and
// therefore which cached instance — runs a replication is invisible in
// every output. The runner's worker-invariance tests cover exactly this.
// Caches are worker-local (created via exec.MapLocal), so no locking.
type instanceCache struct {
	byCfg map[cluster.Config]*model.Instance
}

func newInstanceCache() *instanceCache {
	return &instanceCache{byCfg: make(map[cluster.Config]*model.Instance)}
}

// instance returns an instance of cfg rewound to seed, recycling a cached
// one when the worker has built this configuration before. reflected runs
// the replication as the antithetic leg of its pair; crn routes every
// stochastic purpose through its own labelled sub-stream (the Compare
// synchronization audit). Both act through model.Instance.SetVR, which
// takes effect on the next Recycle — so a fresh build under either flag is
// immediately recycled onto its own seed, and a plain replication on a
// cached instance clears the flags first (a pinned no-op for the
// trajectory: model's TestSetVROffIsBitTransparent).
func (c *instanceCache) instance(cfg cluster.Config, seed uint64, reflected, crn bool) (in *model.Instance, recycled bool, err error) {
	if in, ok := c.byCfg[cfg]; ok {
		in.SetVR(reflected, crn)
		in.Recycle(seed)
		return in, true, nil
	}
	in, err = model.New(cfg, seed)
	if err != nil {
		return nil, false, err
	}
	c.byCfg[cfg] = in
	if reflected || crn {
		in.SetVR(reflected, crn)
		in.Recycle(seed)
	}
	return in, false, nil
}
