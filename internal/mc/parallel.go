package mc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"verc3/internal/obs"
	"verc3/internal/statespace"
	"verc3/internal/symmetry"
	"verc3/internal/ts"
	"verc3/internal/visited"
)

// pitem is one frontier entry: the state with the hole-usage mask
// accumulated along its path (zero without Options.Usage); its BFS depth
// is its level's, pchecker.depth. This is the trace-optional
// representation — with
// RecordTrace off, frontier levels are the only place states live and
// each entry is dropped once expanded; with it on, node points into the
// shared trace store, whose parent chains keep every ancestor alive (the
// inherent memory cost of counterexamples).
type pitem struct {
	state ts.State
	node  *statespace.TraceNode[ts.State] // nil unless RecordTrace
	mask  uint64
}

// pchecker is the level-synchronous BFS driver, the one driver behind
// every safety pass. With one worker it expands each level inline, in
// item order, over the unstriped visited store: exactly FIFO breadth-first
// search, so runs are deterministic and counterexamples minimal. With
// Options.Workers > 1 each level is spread over that many goroutines
// (statespace.ExpandLevel) and successors dedupe through the concurrent
// visited set, whose TryInsert doubles as the expansion-ownership claim.
// Every backend — bitstate included, via its single-CAS completion rule —
// admits at most one of any set of racing inserts of a fingerprint, so
// every admitted state is checked and expanded exactly once and
// States/Transitions are exact counts of the explored space (under
// bitstate that space may still be missing omitted states). The first
// property violation wins and stops the search.
type pchecker struct {
	sys   ts.System
	opt   Options
	ctx   context.Context
	ckpt  *checkpointer
	canon *symmetry.Canonicalizer
	// workers is the per-worker scratch, indexed by the ExpandLevel worker
	// index — each worker owns its encoding, transition and output buffers
	// and its counters outright, so the keying and enumeration hot paths
	// are allocation- and lock-free. The counters are summed between
	// levels, when no worker runs.
	workers []pworker
	// one is the pooled storage of a one-worker run (nil otherwise).
	one *oneWorker
	// expandFn is expandOne bound once per multi-worker run.
	expandFn func(w int, it pitem, emit func(pitem)) (bool, error)
	lc       lifecycle
	labels   *phaseLabels
	invs     []ts.Invariant
	goals    []ts.ReachGoal
	quies    ts.QuiescentReporter

	visited visited.Store
	traces  *statespace.TraceStore[ts.State]
	goalHit []atomic.Bool

	// level is the frontier level being expanded, all of it at BFS depth
	// depth.
	level []pitem
	depth int
	// admitted mirrors visited.Len() as a monotonic counter so the
	// MaxStates cap probe is one atomic load instead of a per-expansion
	// sweep of the striped store. Maintained only when a cap is set —
	// uncapped runs (the synthesis default) skip even the shared-counter
	// increment on the admission path.
	admitted atomic.Int64
	capHit   atomic.Bool
	// peak is the frontier high-water mark. With one worker it is the
	// largest number of live entries — the level's unexpanded tail plus
	// the next level emitted so far, what a FIFO queue would hold — and
	// with several it is the largest whole-level plus next-level
	// coexistence (workers expand a level in any order, and the level
	// slice stays alive until all have joined).
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
	// context, so the stride spans the whole run rather than each worker's
	// share of it.
	expanded atomic.Int64

	failMu  sync.Mutex
	failure *FailureInfo
}

// setAbort records the first abort; the CAS makes racing workers converge
// on one consistent cause.
func (c *pchecker) setAbort(info *AbortInfo) {
	c.abort.CompareAndSwap(nil, info)
}

// pworker is one worker's private scratch: the fingerprinting keyer, the
// transition buffer for the ts.TransitionAppender enumeration path, the
// buffer expand emits fresh successors into, and this worker's share of
// the run's counters. The struct is padded to three cache lines so
// neighbouring workers' per-expansion buffer-header and counter writes
// never false-share.
//
// The recycling side needs no driver-held free-list beyond this: the models
// pool through sync.Pool, whose per-P private caches already give each
// worker goroutine a lock-free local free-list — a successor recycled by a
// worker is overwhelmingly re-issued to a succ() clone on the same P
// without touching the shared pool chain.
type pworker struct {
	key keyer
	trs []ts.Transition
	out []pitem

	fired    int
	aborts   int
	maxDepth int
	wildcard bool
	recycled uint64
	// unpolled counts this worker's expansions not yet added to the run's
	// shared expansion count (see pollBatch).
	unpolled int
	// ow stages this worker's telemetry counters (nil when Options.Obs is
	// unset). Each worker gets its own obs slot via NewWorker, so the
	// batched flushes land on distinct cache lines too.
	ow *obs.Worker
	_  [48]byte
}

// oneWorker is a one-worker run's reusable storage — the worker scratch
// and the spare level buffer the emission buffer ping-pongs with — pooled
// across runs, so a synthesis dispatch (tens of thousands per run, a
// handful of levels each) starts from warm buffers instead of regrowing
// them from capacity zero.
type oneWorker struct {
	w     [1]pworker
	spare []pitem
}

var oneWorkerPool = sync.Pool{New: func() any { return new(oneWorker) }}

// release clears the buffers (pooled storage must not pin states or
// transition closures) and returns the storage to the pool; level is the
// run's last level buffer, the partner of the worker's emission buffer.
func (o *oneWorker) release(level []pitem) {
	pw := &o.w[0]
	clear(pw.trs[:cap(pw.trs)])
	clear(pw.out)
	clear(level)
	*pw = pworker{key: keyer{buf: pw.key.buf[:0]}, trs: pw.trs[:0], out: pw.out[:0]}
	o.spare = level[:0]
	oneWorkerPool.Put(o)
}

// checkSafety explores sys with the level-synchronous driver (see
// Options.Workers).
func checkSafety(ctx context.Context, sys ts.System, opt Options) (*Result, error) {
	c := &pchecker{
		sys:    sys,
		opt:    opt,
		ctx:    ctx,
		canon:  newCanon(sys, opt),
		lc:     newLifecycle(sys, opt),
		labels: newPhaseLabels(opt),
		invs:   sys.Invariants(),
		traces: statespace.NewTraceStore[ts.State](opt.RecordTrace),
	}
	if gr, ok := sys.(ts.GoalReporter); ok {
		c.goals = gr.Goals()
		c.goalHit = make([]atomic.Bool, len(c.goals))
	}
	if qr, ok := sys.(ts.QuiescentReporter); ok {
		c.quies = qr
	}
	// Usage brackets each firing with ResetUsage/Usage on one tracker, so
	// it needs the one worker.
	if opt.Workers > 1 && opt.Usage == nil {
		c.visited = visited.NewConcurrent(visitedConfig(opt))
		c.workers = make([]pworker, opt.Workers)
		c.expandFn = c.expandOne
	} else {
		c.visited = visited.New(visitedConfig(opt))
		c.one = oneWorkerPool.Get().(*oneWorker)
		c.workers = c.one.w[:]
	}
	for i := range c.workers {
		c.workers[i].key.canon = c.canon
		c.workers[i].key.legacy = opt.StringKeys
		c.workers[i].ow = opt.Obs.NewWorker()
	}
	var res *Result
	var err error
	if c.ckpt, err = newCheckpointer(sys, opt, c.visited); err == nil {
		opt.Obs.SetGauge(obs.GMaxStates, uint64(opt.MaxStates))
		res, err = c.runSafe()
		c.labels.clear()
	}
	if cerr := closeStore(c.visited); err == nil {
		err = cerr
	}
	if c.one != nil {
		c.one.release(c.level)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// tryAdmit claims expansion ownership of s through worker pw's keyer
// scratch, bumping the admitted counter on success when a cap needs it.
// Rejected duplicates are recycled on the spot: a loser of an insert race
// was never traced and never emitted, so only the calling worker can still
// reach it (counted per worker; the model's sync.Pool keeps the returned
// storage on this worker's P).
func (c *pchecker) tryAdmit(pw *pworker, s ts.State, sw *obs.Stopwatch) bool {
	c.labels.key()
	sw.Mark()
	fp := pw.key.fingerprint(s)
	sw.Lap(obs.PhaseKey)
	c.labels.insert()
	fresh := c.visited.TryInsert(fp)
	sw.Lap(obs.PhaseInsert)
	if !fresh {
		pw.ow.Inc(obs.CDuplicates)
		c.recycle(pw, s)
		return false
	}
	pw.ow.Inc(obs.CStates)
	if c.opt.MaxStates > 0 {
		c.admitted.Add(1)
	}
	return true
}

// recycle hands a dead state back to the system's pool. The caller must own
// s outright: nothing — trace node, frontier entry, failure info — may still
// reference it (see the ts package's ownership rules).
func (c *pchecker) recycle(pw *pworker, s ts.State) {
	if c.lc.recycler != nil {
		c.lc.recycler.Recycle(s)
		pw.recycled++
		pw.ow.Inc(obs.CRecycled)
	}
}

// checkState runs invariants and goal predicates on a freshly discovered
// state; it reports whether exploration should stop (violation recorded).
func (c *pchecker) checkState(it pitem) bool {
	for _, inv := range c.invs {
		if !inv.Holds(it.state) {
			c.fail(FailInvariant, inv.Name, it)
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

// fail records the first property violation at it; later violations
// (racing workers in the same level) are dropped, so the reported trace is
// always a single consistent parent chain.
func (c *pchecker) fail(kind FailKind, name string, it pitem) {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if c.failure != nil {
		return
	}
	fi := &FailureInfo{Kind: kind, Name: name, UsageMask: it.mask}
	if it.node != nil {
		fi.Trace = tracePath(it.node)
	}
	c.failure = fi
}

// expandOne is the statespace.ExpandLevel callback of multi-worker runs:
// it expands one entry into worker w's buffer and hands the buffer's
// contents on to emit.
func (c *pchecker) expandOne(w int, it pitem, emit func(pitem)) (bool, error) {
	pw := &c.workers[w]
	stop, err := c.expand(pw, it)
	for _, child := range pw.out {
		emit(child)
	}
	clear(pw.out)
	pw.out = pw.out[:0]
	return stop, err
}

// expand fires all transitions of one frontier entry, appending fresh
// successors to pw.out. Under several workers it runs concurrently, each
// worker with its own pw.
func (c *pchecker) expand(pw *pworker, it pitem) (stop bool, err error) {
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
	usage := c.opt.Usage
	succs, blocked := 0, 0
	for _, tr := range trs {
		if usage != nil {
			usage.ResetUsage()
		}
		c.labels.fire()
		sw.Mark()
		next, ferr := tr.Fire(c.opt.Env)
		sw.Lap(obs.PhaseFire)
		if ferr != nil {
			if errors.Is(ferr, ts.ErrWildcard) {
				pw.wildcard = true
				pw.aborts++
				pw.ow.Inc(obs.CAborts)
				blocked++
				continue
			}
			return true, fmt.Errorf("mc: transition %q from state %q: %w", tr.Name, it.state.Key(), ferr)
		}
		pw.fired++
		pw.ow.Inc(obs.CTransitions)
		succs++
		if !c.tryAdmit(pw, next, sw) {
			continue
		}
		child := pitem{state: next, node: c.traces.Add(next, tr.Name, it.node), mask: it.mask}
		if usage != nil {
			child.mask |= usage.Usage()
		}
		pw.maxDepth = c.depth + 1
		if c.checkState(child) {
			return true, nil
		}
		if len(pw.out) == cap(pw.out) {
			// Double: append grows a large slice by only 1.25×, which would
			// reallocate a big level several times more often.
			pw.out = slices.Grow(pw.out, max(len(pw.out), 16))
		}
		pw.out = append(pw.out, child)
	}
	if succs == 0 && !c.opt.NoDeadlock && blocked == 0 {
		// With blocked > 0 all outgoing behaviour hides behind wildcards:
		// not provably a deadlock; the Unknown verdict (WildcardHit) covers
		// it, and the expansion completes normally below.
		if c.quies == nil || !c.quies.Quiescent(it.state) {
			c.fail(FailDeadlock, "deadlock", it)
			return true, nil
		}
	}
	// Normal completion. In traceless mode the expanded state is dead: no
	// trace node references it, its level entry is read exactly once, and
	// the fired closures are gone — so its
	// storage returns to the pool from the worker that owned its expansion.
	if !c.opt.RecordTrace {
		c.recycle(pw, it.state)
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

// seed fills c.level with the initial states, or with the checkpointed
// frontier under Options.Resume; stop reports that an initial state
// already violates an invariant.
func (c *pchecker) seed() (stop bool, err error) {
	if c.one != nil {
		c.level, c.one.spare = c.one.spare, nil
	}
	if items, err := c.resume(); err != nil || items != nil {
		c.level = items
		c.peak = max(c.peak, len(items))
		return false, err
	}
	inits := c.sys.Initial()
	if len(inits) == 0 {
		return false, fmt.Errorf("mc: system %q has no initial states", c.sys.Name())
	}
	for _, s := range inits {
		c.initCur = s
		if !c.tryAdmit(&c.workers[0], s, nil) {
			continue
		}
		it := pitem{state: s, node: c.traces.Add(s, "", nil)}
		if c.checkState(it) {
			stop = true
			break
		}
		c.level = append(c.level, it)
	}
	c.initCur = nil
	c.peak = len(c.level)
	return stop, nil
}

func (c *pchecker) run() (*Result, error) {
	stopped, err := c.seed()
	if err != nil {
		return nil, err
	}
	for !stopped && len(c.level) > 0 {
		// An already-expired context aborts before the next level, however
		// small the levels are (the run-wide stride poll handles big ones).
		if c.ctx.Err() != nil {
			c.setAbort(cancelAbort(c.ctx))
			break
		}
		if c.one != nil {
			stopped, err = c.expandLevel()
		} else {
			var next []pitem
			next, stopped, err = statespace.ExpandLevel(len(c.workers), c.level, c.expandFn)
			c.peak = max(c.peak, len(c.level)+len(next))
			c.level = next
		}
		if err != nil {
			return nil, err
		}
		if stopped {
			break
		}
		c.depth++
		// Level boundary: level-aware backends reorganize (spill merges
		// its run files) while no worker is inserting, and the checkpointer
		// snapshots the completed level.
		if err := c.endLevelObs(len(c.level)); err != nil {
			return nil, err
		}
		if err := c.checkpoint(c.level); err != nil {
			return nil, err
		}
	}
	return c.finish(), nil
}

// expandLevel is the one-worker level: every entry of c.level expanded
// inline, in item order, appending into the worker's buffer — which
// becomes c.level while the expanded level, cleared, becomes the next
// emission buffer. The two buffers ping-pong for the whole run, so a level
// allocates only when the frontier outgrows them.
func (c *pchecker) expandLevel() (stop bool, err error) {
	pw := &c.workers[0]
	level := c.level
	n := 0
	for n < len(level) && !stop && err == nil {
		stop, err = c.expand(pw, level[n])
		// Drop the expanded entry now, as a FIFO queue pops it: a state
		// the model's pool lets go of must not stay reachable from the
		// level until the level ends.
		level[n] = pitem{}
		n++
		c.peak = max(c.peak, len(level)-n+len(pw.out))
	}
	clear(level[n:]) // entries a stop left unexpanded
	c.level, pw.out = pw.out, level[:0]
	return stop, err
}

// totals sums the workers' counters into run statistics. Call it only
// while no worker runs: between levels or after the run.
func (c *pchecker) totals() (st Stats, wildcard bool) {
	for i := range c.workers {
		pw := &c.workers[i]
		st.FiredTransitions += pw.fired
		st.WildcardAborts += pw.aborts
		st.MaxDepth = max(st.MaxDepth, pw.maxDepth)
		wildcard = wildcard || pw.wildcard
	}
	return st, wildcard
}

// finish assembles the Result. Every worker has joined (ExpandLevel's
// WaitGroup happens-before), so flushing their staged telemetry from this
// goroutine is safe even when the run stopped mid-level.
func (c *pchecker) finish() *Result {
	c.obsFinish()
	st, wildcard := c.totals()
	st.VisitedStates = c.visited.Len()
	res := &Result{
		Stats:       st,
		WildcardHit: wildcard,
		CapHit:      c.capHit.Load(),
		Resumed:     c.resumed,
	}
	res.Space.Transitions = st.FiredTransitions
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
	// A recorded failure outranks an abort (a violation found before the
	// cancel fired is still a violation); an abort outranks the
	// wildcard/cap downgrades.
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
