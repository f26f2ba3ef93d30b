package mc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"verc3/internal/obs"
	"verc3/internal/statespace"
	"verc3/internal/symmetry"
	"verc3/internal/ts"
	"verc3/internal/visited"
)

// pitem is one frontier entry of the parallel driver: the state with its
// BFS depth. The same trace-optional representation as the sequential
// driver — with RecordTrace off, frontier levels are the only place states
// live and each level becomes garbage once expanded; with it on, node
// points into the shared trace store, whose parent chains keep every
// ancestor alive (the inherent memory cost of counterexamples).
type pitem struct {
	state ts.State
	node  *statespace.TraceNode[ts.State] // nil unless RecordTrace
	depth int
}

// pchecker is the level-synchronous parallel BFS driver. Each frontier
// level is spread over Options.Workers goroutines (statespace.ExpandLevel);
// successors dedupe through the concurrent visited set, whose TryInsert
// doubles as the expansion-ownership claim. Every backend — bitstate
// included, via its single-CAS completion rule — admits at most one of any
// set of racing inserts of a fingerprint, so every admitted state is
// checked and expanded exactly once and States/Transitions are exact
// counts of the explored space (under bitstate that space may still be
// missing omitted states). Statistics are atomic; the first property
// violation wins and stops the search.
type pchecker struct {
	sys   ts.System
	opt   Options
	ctx   context.Context
	ckpt  *checkpointer
	canon *symmetry.Canonicalizer
	// workers is the per-worker scratch, indexed by the ExpandLevel worker
	// index — each worker owns its encoding and transition buffers
	// outright, so the keying and enumeration hot paths are allocation- and
	// lock-free.
	workers []pworker
	lc      lifecycle
	labels  *phaseLabels
	invs    []ts.Invariant
	goals   []ts.ReachGoal
	quies   ts.QuiescentReporter

	visited visited.Store
	traces  *statespace.TraceStore[ts.State]
	goalHit []atomic.Bool

	fired    atomic.Int64
	aborts   atomic.Int64
	maxDepth atomic.Int64 // max enqueued depth (same semantics as sequential)
	// admitted mirrors visited.Len() as a monotonic counter so the
	// MaxStates cap probe is one atomic load instead of a per-expansion
	// sweep of the striped store. Maintained only when a cap is set —
	// uncapped runs (the synthesis default) skip even the shared-counter
	// increment on the admission path.
	admitted atomic.Int64
	wildcard atomic.Bool
	capHit   atomic.Bool
	// peak is the frontier high-water mark: the largest cur-level +
	// emitted-next-level coexistence reached during a level expansion
	// (updated between levels, when both are fully known).
	peak int
	// resumed reports that the run was seeded from a checkpoint.
	resumed bool
	// initCur is the initial state being admitted on the main goroutine, so
	// a panic during initial-state processing can report its key (worker
	// panics carry their own state via expand's recover).
	initCur ts.State

	// abort is the first abort to win (cancellation or a recovered worker
	// panic); later aborts — racing workers observing the same cancel, a
	// second panicking worker — are dropped, mirroring the failure rule.
	abort atomic.Pointer[AbortInfo]
	// expanded counts the run's expansions in pollBatch steps; the worker
	// whose batch lands on a multiple of cancelPollStride polls the
	// context, so the stride spans the whole run as in the sequential
	// driver rather than each worker's share of it.
	expanded atomic.Int64

	failMu  sync.Mutex
	failure *FailureInfo
}

// setAbort records the first abort; the CAS makes racing workers converge
// on one consistent cause.
func (c *pchecker) setAbort(info *AbortInfo) {
	c.abort.CompareAndSwap(nil, info)
}

// pworker is one ExpandLevel worker's private scratch: the fingerprinting
// keyer, the transition buffer for the ts.TransitionAppender enumeration
// path, and this worker's recycle count (summed into the space profile by
// finish). The struct is padded to two cache lines so neighbouring workers'
// per-expansion buffer-header and counter writes never false-share.
//
// The recycling side needs no driver-held free-list beyond this: the models
// pool through sync.Pool, whose per-P private caches already give each
// worker goroutine a lock-free local free-list — a successor recycled by a
// worker is overwhelmingly re-issued to a succ() clone on the same P
// without touching the shared pool chain.
type pworker struct {
	key      keyer
	trs      []ts.Transition
	recycled uint64
	// unpolled counts this worker's expansions not yet added to the run's
	// shared expansion count (see pollBatch).
	unpolled int
	// ow stages this worker's telemetry counters (nil when Options.Obs is
	// unset). Each worker gets its own obs slot via NewWorker, so the
	// batched flushes land on distinct cache lines too.
	ow *obs.Worker
	_  [40]byte
}

// checkParallel explores sys with the parallel driver (see Options.Workers).
func checkParallel(ctx context.Context, sys ts.System, opt Options) (*Result, error) {
	c := &pchecker{
		sys:     sys,
		opt:     opt,
		ctx:     ctx,
		canon:   newCanon(sys, opt),
		lc:      newLifecycle(sys, opt),
		labels:  newPhaseLabels(opt),
		invs:    sys.Invariants(),
		visited: visited.NewConcurrent(visitedConfig(opt)),
		traces:  statespace.NewTraceStore[ts.State](opt.RecordTrace),
	}
	if gr, ok := sys.(ts.GoalReporter); ok {
		c.goals = gr.Goals()
		c.goalHit = make([]atomic.Bool, len(c.goals))
	}
	if qr, ok := sys.(ts.QuiescentReporter); ok {
		c.quies = qr
	}
	c.workers = make([]pworker, opt.Workers)
	for i := range c.workers {
		c.workers[i].key = newKeyer(c.canon, opt)
		c.workers[i].ow = opt.Obs.NewWorker()
	}
	var err error
	if c.ckpt, err = newCheckpointer(sys, opt, c.visited); err != nil {
		closeStore(c.visited)
		return nil, err
	}
	opt.Obs.SetGauge(obs.GMaxStates, uint64(opt.MaxStates))
	res, err := c.runSafe()
	c.labels.clear()
	if cerr := closeStore(c.visited); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// tryAdmit claims expansion ownership of s through worker w's keyer
// scratch, bumping the admitted counter on success when a cap needs it.
// Rejected duplicates are recycled on the spot: a loser of an insert race
// was never traced and never emitted, so only the calling worker can still
// reach it (counted per worker; the model's sync.Pool keeps the returned
// storage on this worker's P).
func (c *pchecker) tryAdmit(w int, s ts.State, sw *obs.Stopwatch) bool {
	pw := &c.workers[w]
	c.labels.key()
	sw.Mark()
	fp := pw.key.fingerprint(s)
	sw.Lap(obs.PhaseKey)
	c.labels.insert()
	fresh := c.visited.TryInsert(fp)
	sw.Lap(obs.PhaseInsert)
	if !fresh {
		pw.ow.Inc(obs.CDuplicates)
		if c.lc.recycler != nil {
			c.lc.recycler.Recycle(s)
			pw.recycled++
			pw.ow.Inc(obs.CRecycled)
		}
		return false
	}
	pw.ow.Inc(obs.CStates)
	if c.opt.MaxStates > 0 {
		c.admitted.Add(1)
	}
	return true
}

// noteDepth lifts the max-enqueued-depth watermark to d (racing workers
// each CAS until their depth is covered).
func (c *pchecker) noteDepth(d int) {
	for {
		cur := c.maxDepth.Load()
		if int64(d) <= cur || c.maxDepth.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// checkState runs invariants and goal predicates on a freshly discovered
// state; it reports whether exploration should stop (violation recorded).
func (c *pchecker) checkState(it pitem) bool {
	for _, inv := range c.invs {
		if !inv.Holds(it.state) {
			c.fail(FailInvariant, inv.Name, it.node)
			return true
		}
	}
	for gi := range c.goals {
		if !c.goalHit[gi].Load() && c.goals[gi].Holds(it.state) {
			c.goalHit[gi].Store(true)
		}
	}
	return false
}

// fail records the first property violation; later violations (racing
// workers in the same level) are dropped, so the reported trace is always a
// single consistent parent chain. n is nil with traces off.
func (c *pchecker) fail(kind FailKind, name string, n *statespace.TraceNode[ts.State]) {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if c.failure != nil {
		return
	}
	fi := &FailureInfo{Kind: kind, Name: name}
	if n != nil {
		fi.Trace = tracePath(n)
	}
	c.failure = fi
}

// expand fires all transitions of one frontier entry, emitting fresh
// successors into the next level. It is called concurrently by the level
// workers; w is the ExpandLevel worker index selecting this worker's
// keyer scratch.
func (c *pchecker) expand(w int, it pitem, emit func(pitem)) (stop bool, err error) {
	// Panic containment happens here, per worker goroutine: a panic out of
	// model code (Transitions, Fire, an invariant, Key) cannot cross
	// ExpandLevel's goroutine boundary, so it must be converted to an abort
	// before it unwinds past this frame. The stop flag drains the level.
	defer func() {
		if p := recover(); p != nil {
			c.setAbort(panicAbort(p, it.state))
			stop, err = true, nil
		}
	}()
	pw := &c.workers[w]
	if pw.unpolled++; pw.unpolled == pollBatch {
		pw.unpolled = 0
		if c.expanded.Add(pollBatch)%cancelPollStride == 0 && c.ctx.Err() != nil {
			c.setAbort(cancelAbort(c.ctx))
			return true, nil
		}
	}
	if c.opt.MaxStates > 0 && c.admitted.Load() > int64(c.opt.MaxStates) {
		c.capHit.Store(true)
		return true, nil
	}
	sw := pw.ow.BeginExpansion() // nil on unsampled expansions; Stopwatch is nil-safe
	defer sw.Done()
	c.labels.enumerate()
	sw.Mark()
	var trs []ts.Transition
	if c.lc.appender != nil {
		pw.trs = c.lc.appender.AppendTransitions(pw.trs[:0], it.state)
		trs = pw.trs
	} else {
		trs = c.sys.Transitions(it.state)
	}
	sw.Lap(obs.PhaseEnumerate)
	succs, blocked := 0, 0
	for _, tr := range trs {
		c.labels.fire()
		sw.Mark()
		next, ferr := tr.Fire(c.opt.Env)
		sw.Lap(obs.PhaseFire)
		if ferr != nil {
			if errors.Is(ferr, ts.ErrWildcard) {
				c.wildcard.Store(true)
				c.aborts.Add(1)
				pw.ow.Inc(obs.CAborts)
				blocked++
				continue
			}
			return true, fmt.Errorf("mc: transition %q from state %q: %w", tr.Name, it.state.Key(), ferr)
		}
		c.fired.Add(1)
		pw.ow.Inc(obs.CTransitions)
		succs++
		if !c.tryAdmit(w, next, sw) {
			continue
		}
		child := pitem{state: next, node: c.traces.Add(next, tr.Name, it.node), depth: it.depth + 1}
		c.noteDepth(child.depth)
		if c.checkState(child) {
			return true, nil
		}
		emit(child)
	}
	if succs == 0 && !c.opt.NoDeadlock && blocked == 0 {
		// With blocked > 0 all outgoing behaviour hides behind wildcards:
		// not provably a deadlock; the Unknown verdict (WildcardHit) covers
		// it, and the expansion completes normally below.
		if c.quies == nil || !c.quies.Quiescent(it.state) {
			c.fail(FailDeadlock, "deadlock", it.node)
			return true, nil
		}
	}
	// Normal completion. In traceless mode the expanded state is dead: no
	// trace node references it, ExpandLevel reads each level entry exactly
	// once (the frontier slice's copy of the pointer is never dereferenced
	// again), and the fired closures are gone — so its storage returns to
	// the pool from the worker that owned its expansion.
	if !c.opt.RecordTrace && c.lc.recycler != nil {
		c.lc.recycler.Recycle(it.state)
		pw.recycled++
		pw.ow.Inc(obs.CRecycled)
	}
	return false, nil
}

// runSafe wraps run with panic containment for the main goroutine: worker
// panics are recovered inside expand, but initial-state admission (and any
// driver code between levels) runs here, outside any worker.
func (c *pchecker) runSafe() (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			c.setAbort(panicAbort(p, c.initCur))
			res, err = c.finish(), nil
		}
	}()
	return c.run()
}

func (c *pchecker) run() (*Result, error) {
	var frontier []pitem
	stopped := false
	if _, items, err := c.resumePar(); err != nil {
		return nil, err
	} else if items != nil {
		c.resumed = true
		frontier = items
		c.peak = max(c.peak, len(frontier))
	} else {
		inits := c.sys.Initial()
		if len(inits) == 0 {
			return nil, fmt.Errorf("mc: system %q has no initial states", c.sys.Name())
		}
		for _, s := range inits {
			c.initCur = s
			if !c.tryAdmit(0, s, nil) {
				continue
			}
			it := pitem{state: s, node: c.traces.Add(s, "", nil)}
			if c.checkState(it) {
				stopped = true
				break
			}
			frontier = append(frontier, it)
		}
		c.initCur = nil
		c.peak = len(frontier)
	}

	for !stopped && len(frontier) > 0 {
		// An already-expired context aborts before the next level, however
		// small the levels are (the run-wide stride poll handles big ones).
		if c.ctx.Err() != nil {
			c.setAbort(cancelAbort(c.ctx))
			break
		}
		next, stop, err := statespace.ExpandLevel(c.opt.Workers, frontier, c.expand)
		if err != nil {
			return nil, err
		}
		// The true high-water mark is reached *during* the expansion, when
		// the whole current level is still alive and the next level has
		// been fully emitted — not the size of either level alone. A
		// partial next level (stop mid-expansion) coexisted the same way.
		if hw := len(frontier) + len(next); hw > c.peak {
			c.peak = hw
		}
		if stop {
			break
		}
		// Level boundary: level-aware backends reorganize (spill merges
		// its run files) while no worker is inserting, and the checkpointer
		// snapshots the completed level.
		if err := c.endLevelObs(len(next)); err != nil {
			return nil, err
		}
		if len(next) > 0 {
			if err := c.checkpointPar(next[0].depth, next); err != nil {
				return nil, err
			}
		}
		frontier = next
	}
	return c.finish(), nil
}

// finish assembles the Result with the same verdict logic as the
// sequential driver. ExpandLevel has returned (WaitGroup happens-before),
// so flushing the workers' staged telemetry from this goroutine is safe
// even when the run stopped mid-level.
func (c *pchecker) finish() *Result {
	c.obsFinish()
	res := &Result{
		Stats: Stats{
			VisitedStates:    c.visited.Len(),
			FiredTransitions: int(c.fired.Load()),
			WildcardAborts:   int(c.aborts.Load()),
			MaxDepth:         int(c.maxDepth.Load()),
		},
		WildcardHit: c.wildcard.Load(),
		CapHit:      c.capHit.Load(),
		Resumed:     c.resumed,
	}
	res.Space.Transitions = int(c.fired.Load())
	res.Space.PeakFrontier = c.peak
	res.Space.TraceNodes = c.traces.Nodes()
	var recycled uint64
	for i := range c.workers {
		recycled += c.workers[i].recycled
	}
	c.lc.finishPool(&res.Space, recycled)
	fillSpace(res, c.visited, unsafe.Sizeof(pitem{}), c.traces.NodeBytes())
	if c.failure != nil {
		res.Verdict = Failure
		res.Failure = c.failure
		return res
	}
	// A recorded failure outranks an abort (same rule as the sequential
	// driver); an abort outranks the wildcard/cap downgrades.
	if ab := c.abort.Load(); ab != nil {
		res.Verdict = Aborted
		res.Abort = ab
		return res
	}
	if res.WildcardHit || res.CapHit {
		res.Verdict = Unknown
		return res
	}
	for gi := range c.goals {
		if !c.goalHit[gi].Load() {
			res.Verdict = Failure
			// A goal failure is a property of the entire explored space;
			// conservatively mark every hole as involved.
			res.Failure = &FailureInfo{Kind: FailGoal, Name: c.goals[gi].Name, UsageMask: ^uint64(0)}
			return res
		}
	}
	res.Verdict = Success
	return res
}
