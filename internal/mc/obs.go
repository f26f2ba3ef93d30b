package mc

import (
	"time"

	"verc3/internal/obs"
	"verc3/internal/ts"
	"verc3/internal/visited"
)

// This file is the drivers' glue onto internal/obs. Counters ride the
// per-worker staging path (obs.Worker) inside the expansion hot loops in
// parallel.go / liveness.go; everything coarser — gauges, the snapshot
// timeline, the level-merge phase timing — funnels through the
// level-boundary helpers here.

// obsLevelGauges publishes the BFS-level gauges (depth, frontier size,
// visited-set footprint, spill and pool traffic) and appends a timeline
// mark. Called with all workers freshly flushed so the mark's counters
// are exact at the boundary. store.Stats() is a few loads per backend —
// fine per level, far too hot per state.
func obsLevelGauges(o *obs.Collector, store visited.Store, lc *lifecycle, depth, frontier int) {
	if o == nil {
		return
	}
	o.SetGauge(obs.GDepth, uint64(depth))
	o.SetGauge(obs.GFrontier, uint64(frontier))
	vs := store.Stats()
	o.SetGauge(obs.GVisitedBytes, uint64(vs.Bytes))
	o.SetGauge(obs.GSpilledBytes, uint64(vs.SpilledBytes))
	o.SetGauge(obs.GSpillRuns, uint64(vs.SpillRuns))
	obsPoolGauges(o, &lc.pool, lc.hits0, lc.misses0)
	o.MarkTimeline()
}

// obsPoolGauges publishes the run's successor-pool traffic delta. Gauges,
// not counters: the underlying ts.PoolReporter totals are per-system and
// shared across concurrent synthesis dispatches (see obs.GPoolHits).
func obsPoolGauges(o *obs.Collector, pool *ts.PoolReporter, hits0, misses0 uint64) {
	if o == nil || *pool == nil {
		return
	}
	h, m := (*pool).PoolStats()
	o.SetGauge(obs.GPoolHits, h-hits0)
	o.SetGauge(obs.GPoolMisses, m-misses0)
}

// endLevelObs is the driver's instrumented level boundary: flush every
// worker's staged counters (all have joined — ExpandLevel's WaitGroup
// happens-before), run the backend's level housekeeping under the
// level_merge phase clock, then publish the level gauges and mark the
// timeline. Collapses to plain endLevel when telemetry is off.
func (c *pchecker) endLevelObs(nextLen int) error {
	o := c.opt.Obs
	if o == nil {
		return endLevel(c.visited)
	}
	for i := range c.workers {
		c.workers[i].ow.Flush()
	}
	t0 := time.Now()
	err := endLevel(c.visited)
	o.ObservePhase(obs.PhaseLevelMerge, time.Since(t0))
	st, _ := c.totals()
	obsLevelGauges(o, c.visited, &c.lc, st.MaxDepth, nextLen)
	return err
}

// obsFinish flushes every worker and republishes the end-of-run gauges, so
// the post-run snapshot (and the report's final entry) is exact however the
// run ended — success, failure, cap, abort; called from finish once all
// workers have joined.
func (c *pchecker) obsFinish() {
	o := c.opt.Obs
	if o == nil {
		return
	}
	for i := range c.workers {
		c.workers[i].ow.Flush()
	}
	st, _ := c.totals()
	obsLevelGauges(o, c.visited, &c.lc, st.MaxDepth, 0)
}
