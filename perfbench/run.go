package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"verc3/internal/core"
	"verc3/internal/faultfs"
	"verc3/internal/statespace"
	"verc3/internal/symmetry"
	"verc3/internal/ts"
)

// setupReps is how many set-ups a run times before its first call; setup_s
// is their median, so it rests on many samples even when calls are long.
const setupReps = 200

// runner makes the calls of one run and checks each against the reference.
type runner struct {
	ctx     context.Context
	w       *workload
	caches  int
	scratch string
	ref     *outcome // golden, or the first call's outcome at untuned sizes

	calls, mismatches int
	problems          []string // the first maxProblems mismatches
}

const maxProblems = 10

func (r *runner) problem(format string, args ...any) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func newRunner(ctx context.Context, w *workload, caches int, scratch string) *runner {
	r := &runner{ctx: ctx, w: w, caches: caches, scratch: scratch}
	if g, ok := w.goldens[caches]; ok {
		r.ref = &g
	}
	return r
}

// callOpts selects how a call is instrumented.
type callOpts struct {
	traced     bool // wrap the model in a probe and pass the timing FS
	fs         bool // pass the timing FS only
	noLiveness bool // drop the liveness phase (model-checking workloads)
}

// sample is one call's measurements.
type sample struct {
	wall                time.Duration
	end                 time.Time
	res                 callResult
	mallocs, allocBytes uint64
	gcCPU, cpu          float64
	gcCycles            uint64
	probe               *probe
	fs                  *timingFS
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() (gcCPU, cpu float64, cycles uint64) {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

// prepare times one set-up: a scratch directory, the system and options.
func (r *runner) prepare() (job, string, time.Duration, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(r.scratch, r.w.name+"-")
	if err != nil {
		return job{}, "", 0, err
	}
	j, err := r.w.prepare(r.caches, dir)
	d := time.Since(t0)
	if err != nil {
		os.RemoveAll(dir)
		return job{}, "", 0, err
	}
	return j, dir, d, nil
}

// setups times setupReps set-ups that are torn down without a call, after
// as many untimed ones that fault in the heap they reuse.
func (r *runner) setups() ([]float64, error) {
	ds := make([]float64, 0, setupReps)
	for i := range 2 * setupReps {
		_, dir, d, err := r.prepare()
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if i >= setupReps {
			ds = append(ds, d.Seconds())
		}
	}
	return ds, nil
}

// call prepares and makes one call. Only the call itself is inside wall
// and the allocation deltas.
func (r *runner) call(o callOpts) (sample, error) {
	j, dir, _, err := r.prepare()
	if err != nil {
		return sample{}, err
	}
	defer os.RemoveAll(dir)
	if o.noLiveness {
		j.opt.Liveness = false
	}
	var smp sample
	var sys ts.System = j.sys
	if o.traced || o.fs {
		smp.fs = newTimingFS(j.spillDir, j.ckptDir)
	}
	var onEval func(core.Event)
	if o.traced {
		agents := 0
		if j.opt.Symmetry || (j.synth != nil && j.synth.MC.Symmetry) {
			agents = r.caches
		}
		smp.probe = newProbe(agents, r.w.workers > 1)
		sys = smp.probe.wrap(j.sys)
		onEval = smp.probe.onEvaluate
	}
	var fsys faultfs.FS
	if smp.fs != nil {
		fsys = smp.fs
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	gc0, cpu0, cyc0 := readRuntime()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, err := execute(r.ctx, j, sys, fsys, onEval)
	smp.end = time.Now()
	smp.wall = smp.end.Sub(start)
	runtime.ReadMemStats(&m1)
	_, _, cyc1 := readRuntime()
	runtime.GC() // publishes the GC CPU the call used
	gc1, cpu1, _ := readRuntime()
	if err != nil {
		return sample{}, fmt.Errorf("%s: %w", r.w.name, err)
	}
	smp.res = res
	smp.mallocs = m1.Mallocs - m0.Mallocs
	smp.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	smp.gcCPU, smp.cpu, smp.gcCycles = gc1-gc0, cpu1-cpu0, cyc1-cyc0
	r.check(smp, o)
	return smp, nil
}

// check compares a call's outcome with the reference. Calls without the
// liveness phase are compared with the reference less its NDFS counts.
func (r *runner) check(s sample, o callOpts) {
	r.calls++
	got := s.res.out
	if r.ref == nil && !o.noLiveness {
		ref := got
		r.ref = &ref
	}
	want := *r.ref
	if o.noLiveness {
		want.NDFSBlue, want.NDFSRed = 0, 0
	}
	bad := got != want
	if p := s.probe; p != nil {
		if mr := s.res.mcRes; mr != nil && p.admitted.Load() != int64(mr.Stats.VisitedStates) {
			bad = true
			r.problem("shadow admitted %d states, checker visited %d", p.admitted.Load(), mr.Stats.VisitedStates)
		}
		if sr := s.res.synRes; sr != nil && (p.dispatchMiss != 0 || int64(len(p.dispatches)) != sr.Stats.Evaluated) {
			bad = true
			r.problem("shadow count differed on %d of %d dispatches (%d evaluated)",
				p.dispatchMiss, len(p.dispatches), sr.Stats.Evaluated)
		}
	}
	if got != want {
		r.problem("outcome %+v, want %+v", got, want)
	}
	if bad {
		r.mismatches++
	}
}

// endToEnd runs calls until the run's time is up and returns the medians
// of the end-to-end metrics, with the per-call values.
func (r *runner) endToEnd(seconds float64) (map[string]float64, map[string][]float64, error) {
	vals := map[string][]float64{}
	setups, err := r.setups()
	if err != nil {
		return nil, nil, err
	}
	vals["setup_s"] = setups
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for first := true; first || time.Now().Before(deadline); first = false {
		s, err := r.call(callOpts{})
		if err != nil {
			return nil, nil, err
		}
		w := s.wall.Seconds()
		st := float64(s.res.states)
		vals["wall_s"] = append(vals["wall_s"], w)
		vals["states_per_s"] = append(vals["states_per_s"], st/w)
		vals["evals_per_s"] = append(vals["evals_per_s"], float64(s.res.evals)/w)
		vals["allocs_per_state"] = append(vals["allocs_per_state"], float64(s.mallocs)/st)
		vals["alloc_bytes_per_state"] = append(vals["alloc_bytes_per_state"], float64(s.allocBytes)/st)
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	out["peak_rss_mib"] = peakRSSMiB()
	return out, vals, nil
}

// peakRSSMiB is the process's resident-set high-water mark. A run measures
// one workload in its own process, so workloads do not share it.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// traced runs rounds of untraced and traced calls until the run's time is
// up. It reports the round whose untraced wall time is the median (the
// lower one of an even count; the first of several rounds is a warm-up and
// not a candidate), so that its layer self times add up to that wall time,
// and returns every round's values.
//
// A round makes an untraced call, whose wall time the layers must add up
// to, then the same call with the probe and the timing FS. For
// liveness-spill it adds an untraced call without the liveness phase
// (mc.ndfs_s is the difference), traces that safety pass only, and makes
// one more call with the timing FS alone to count the disk traffic of the
// NDFS colour stores.
func (r *runner) traced(seconds float64) (map[string]float64, map[string][]float64, map[string][]uint64, error) {
	var rounds []round
	var layers []map[string]float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(rounds) == 0 || time.Now().Before(deadline) {
		rd, err := r.round()
		if err != nil {
			return nil, nil, nil, err
		}
		rounds = append(rounds, rd)
		layers = append(layers, rd.layers(r.w.workers, r.caches))
	}
	walls := make([]float64, len(rounds))
	var order []int
	for i, rd := range rounds {
		walls[i] = rd.u.wall.Seconds()
		if i > 0 || len(rounds) == 1 {
			order = append(order, i) // the first of several rounds warms up
		}
	}
	sort.Slice(order, func(a, b int) bool { return walls[order[a]] < walls[order[b]] })
	mid := order[(len(order)-1)/2]
	vals := map[string][]float64{"untraced.wall_s": walls}
	for _, l := range layers {
		for k, v := range l {
			vals[k] = append(vals[k], v)
		}
	}
	return layers[mid], vals, rounds[mid].histograms(), nil
}

// round makes the calls of one round of a traced run.
func (r *runner) round() (round, error) {
	u, err := r.call(callOpts{})
	if err != nil {
		return round{}, err
	}
	rd := round{u: u, safety: u}
	if r.w.liveness {
		if rd.safety, err = r.call(callOpts{noLiveness: true}); err != nil {
			return round{}, err
		}
	}
	if rd.t, err = r.call(callOpts{traced: true, noLiveness: r.w.liveness}); err != nil {
		return round{}, err
	}
	rd.disk = rd.t
	if r.w.liveness {
		if rd.disk, err = r.call(callOpts{fs: true}); err != nil {
			return round{}, err
		}
	}
	return rd, nil
}

// round is one set of calls of a traced run.
type round struct {
	u      sample // untraced, as measured end to end
	safety sample // untraced without the liveness phase (u otherwise)
	t      sample // traced (safety pass only under liveness)
	disk   sample // timing FS only, with liveness (t otherwise)
}

// layers derives the per-layer metrics of a round.
//
// Times taken from the traced call are converted to untraced seconds: span
// sums of parallel workers are divided by the worker count, and every time
// is multiplied by k, the untraced wall time over the traced call's wall
// time less the shadow's own keying and inserts (work the untraced call
// does not do twice). Tracing thus slows every layer alike in the
// estimate. k is capped so that the converted times never exceed the
// untraced wall time; mc.driver_self_s, the rest, is then never negative.
func (rd round) layers(workers, caches int) map[string]float64 {
	p := rd.t.probe
	w := float64(workers)
	spill, ckpt := rd.t.fs.classes[0], rd.t.fs.classes[1]
	disk := rd.disk.fs.classes[0]
	// Self times of the traced call, in its own seconds.
	traced := map[string]float64{
		"msi.enumerate_s":    p.enumerate.seconds() / w,
		"msi.fire_s":         p.fire.seconds() / w,
		"msi.invariant_s":    p.invariant.seconds() / w,
		"msi.encode_s":       p.encode.seconds() / w,
		"statespace.hash_s":  p.hash.seconds() / w,
		"symmetry.canon_s":   p.canon.seconds() / w,
		"visited.insert_s":   p.insert.seconds() / w,
		"visited.spill_io_s": spill.seconds(),
		"mc.checkpoint_io_s": ckpt.seconds(),
	}
	var dispatch, reverify float64
	if p.dispatches != nil {
		// Dispatch spans hold the shadow's work, core's own time does not.
		for _, d := range p.dispatches {
			dispatch += d.Seconds()
		}
		reverify = rd.t.end.Sub(p.lastEval).Seconds()
		traced["core.self_s"] = rd.t.wall.Seconds() - dispatch - reverify
	}
	sum := 0.0
	for _, v := range traced {
		sum += v
	}
	shadow := traced["msi.encode_s"] + traced["statespace.hash_s"] + traced["symmetry.canon_s"] + traced["visited.insert_s"]
	untraced := rd.safety.wall.Seconds()
	k := min(untraced/(rd.t.wall.Seconds()-shadow), untraced/sum)

	m := map[string]float64{
		"msi.enumerate_calls":       float64(p.enumerate.calls.Load()),
		"msi.fire_calls":            float64(p.fire.calls.Load()),
		"msi.invariant_calls":       float64(p.invariant.calls.Load()),
		"keying.calls":              float64(p.encode.calls.Load() + p.canon.calls.Load()),
		"symmetry.canon_calls":      float64(p.canon.calls.Load()),
		"visited.insert_calls":      float64(p.insert.calls.Load()),
		"visited.spill_write_bytes": float64(disk.writeBytes.Load()),
		"visited.spill_read_ops":    float64(disk.reads.Load()),
		"mc.ndfs_s":                 rd.u.wall.Seconds() - untraced,
		"mc.checkpoint_bytes":       float64(ckpt.writeBytes.Load()),
		"mc.checkpoint_saves":       float64(ckpt.renames.Load()),
		"runtime.gc_cpu_frac":       rd.u.gcCPU / rd.u.cpu,
		"runtime.gc_cycles":         float64(rd.u.gcCycles),
		"trace.overhead_frac":       rd.t.wall.Seconds()/untraced - 1,
	}
	for name, v := range traced {
		m[name] = v * k
	}
	if p.canon.calls.Load() > 0 {
		m["symmetry.perms_per_call"] = float64(len(symmetry.Permutations(caches)) - 1)
	}
	if n := p.insert.calls.Load(); n > 0 {
		m["visited.fresh_frac"] = float64(p.admittedAll.Load()) / float64(n)
	}
	var space statespace.Stats
	if mr := rd.u.res.mcRes; mr != nil {
		space = mr.Space
		if space.States > 0 {
			m["visited.bytes_per_state"] = float64(space.VisitedBytes) / float64(space.States)
		}
		m["mc.ndfs_states"] = float64(space.LiveStates + space.RedStates)
	}
	if sr := rd.t.res.synRes; sr != nil {
		st := sr.Stats
		space = st.Space
		// Dispatch time is the untraced rest; the spans are scaled to sum
		// to it.
		m["core.reverify_s"] = reverify * k
		untracedDispatch := rd.u.wall.Seconds() - m["core.self_s"] - m["core.reverify_s"]
		spans := make([]float64, len(p.dispatches))
		for i, d := range p.dispatches {
			spans[i] = d.Seconds() * untracedDispatch / dispatch
		}
		m["core.dispatches"] = float64(len(spans))
		m["core.dispatch_s"] = untracedDispatch
		m["core.dispatch_p50_us"] = percentile(spans, 50) * 1e6
		m["core.dispatch_p99_us"] = percentile(spans, 99) * 1e6
		if st.Evaluated > 0 {
			m["core.states_per_dispatch"] = float64(st.TotalVisitedStates) / float64(st.Evaluated)
			m["core.skipped_per_eval"] = float64(st.Skipped) / float64(st.Evaluated)
			if per := float64(space.States) / float64(st.Evaluated); per > 0 {
				m["visited.bytes_per_state"] = float64(space.VisitedBytes) / per
			}
		}
	}
	if n := space.PoolHits + space.PoolMisses; n > 0 {
		m["mc.pool_hit_frac"] = float64(space.PoolHits) / float64(n)
	}
	m["mc.peak_frontier"] = float64(space.PeakFrontier)
	self := 0.0
	for _, name := range selfTimeMetrics {
		self += m[name]
	}
	m["mc.driver_self_s"] = max(rd.u.wall.Seconds()-self, 0)
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
	return m
}

// histograms returns the log2 duration histograms of the timed calls of
// every per-call layer (see clock.histogram).
func (rd round) histograms() map[string][]uint64 {
	p := rd.t.probe
	return map[string][]uint64{
		"msi.enumerate":   p.enumerate.histogram(),
		"msi.fire":        p.fire.histogram(),
		"msi.invariant":   p.invariant.histogram(),
		"msi.encode":      p.encode.histogram(),
		"statespace.hash": p.hash.histogram(),
		"symmetry.canon":  p.canon.histogram(),
		"visited.insert":  p.insert.histogram(),
	}
}
