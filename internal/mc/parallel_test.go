package mc_test

import (
	"runtime"
	"testing"

	"verc3/internal/mc"
	"verc3/internal/toy"
	"verc3/internal/ts"
	"verc3/internal/visited"
	"verc3/internal/zoo"
)

// checkBoth runs the same system/options through the sequential and the
// parallel driver and returns both results. buildSys is called once per
// driver so the two runs share no mutable state.
func checkBoth(t *testing.T, buildSys func() ts.System, opt mc.Options, workers int) (seq, par *mc.Result) {
	t.Helper()
	seqOpt := opt
	seqOpt.Workers = 1
	seq, err := mc.Check(buildSys(), seqOpt)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	parOpt := opt
	parOpt.Workers = workers
	par, err = mc.Check(buildSys(), parOpt)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	return seq, par
}

// TestParallelMatchesSequentialOnZoo is the headline equivalence check:
// for every registered system, the parallel driver must report the same
// verdict and the same exploration statistics as the sequential one —
// complete explorations visit identical state sets under both drivers
// because they share the canonical-key fingerprint scheme. Sketch systems
// are explored under an all-wildcard environment (every hole aborts its
// branch), which still explores a deterministic sub-space.
func TestParallelMatchesSequentialOnZoo(t *testing.T) {
	for _, name := range zoo.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			build := func() ts.System {
				sys, err := zoo.Get(name, zoo.Params{Caches: 2})
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			opt := mc.Options{
				Symmetry: true,
				Env:      ts.NewEnv(wildcardChooser{}), // complete models never call Choose
			}
			seq, par := checkBoth(t, build, opt, 8)
			if seq.Verdict != par.Verdict {
				t.Fatalf("verdict: sequential %v vs parallel %v", seq.Verdict, par.Verdict)
			}
			if seq.Stats.VisitedStates != par.Stats.VisitedStates {
				t.Errorf("states: sequential %d vs parallel %d", seq.Stats.VisitedStates, par.Stats.VisitedStates)
			}
			if seq.Stats.FiredTransitions != par.Stats.FiredTransitions {
				t.Errorf("transitions: sequential %d vs parallel %d", seq.Stats.FiredTransitions, par.Stats.FiredTransitions)
			}
			if seq.Stats.MaxDepth != par.Stats.MaxDepth {
				t.Errorf("max depth: sequential %d vs parallel %d", seq.Stats.MaxDepth, par.Stats.MaxDepth)
			}
			if seq.Stats.WildcardAborts != par.Stats.WildcardAborts {
				t.Errorf("aborts: sequential %d vs parallel %d", seq.Stats.WildcardAborts, par.Stats.WildcardAborts)
			}
			if seq.WildcardHit != par.WildcardHit {
				t.Errorf("wildcardHit: sequential %v vs parallel %v", seq.WildcardHit, par.WildcardHit)
			}
		})
	}
}

// TestParallelMatchesSequentialMSI3 repeats the equivalence check on the
// default three-cache MSI configuration (the biggest complete state space
// in the zoo), with and without symmetry reduction.
func TestParallelMatchesSequentialMSI3(t *testing.T) {
	if testing.Short() {
		t.Skip("larger state space; run without -short")
	}
	for _, symmetry := range []bool{true, false} {
		build := func() ts.System {
			sys, err := zoo.Get("msi-complete", zoo.Params{})
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
		seq, par := checkBoth(t, build, mc.Options{Symmetry: symmetry}, 8)
		if seq.Verdict != par.Verdict || seq.Stats.VisitedStates != par.Stats.VisitedStates {
			t.Errorf("symmetry=%v: sequential %v/%d vs parallel %v/%d", symmetry,
				seq.Verdict, seq.Stats.VisitedStates, par.Verdict, par.Stats.VisitedStates)
		}
	}
}

// replayTrace replays a counterexample trace against the system's own
// transition relation: every step must name an enabled transition whose
// firing produces the recorded successor. This is the validity contract
// parallel traces must keep even though they are assembled from
// concurrently discovered parent links.
func replayTrace(t *testing.T, sys ts.System, f *mc.FailureInfo) ts.State {
	t.Helper()
	if len(f.Trace) == 0 {
		t.Fatal("empty trace")
	}
	initial := false
	for _, s := range sys.Initial() {
		if s.Key() == f.Trace[0].State.Key() {
			initial = true
			break
		}
	}
	if !initial {
		t.Fatalf("trace does not start in an initial state (got %q)", f.Trace[0].State.Key())
	}
	cur := f.Trace[0].State
	for i, step := range f.Trace[1:] {
		matched := false
		for _, tr := range sys.Transitions(cur) {
			if tr.Name != step.Rule {
				continue
			}
			next, err := tr.Fire(nil)
			if err != nil {
				t.Fatalf("step %d: firing %q: %v", i+1, step.Rule, err)
			}
			if next.Key() == step.State.Key() {
				matched = true
				cur = next
				break
			}
		}
		if !matched {
			t.Fatalf("step %d: no enabled transition %q reproduces state %q from %q",
				i+1, step.Rule, step.State.Key(), cur.Key())
		}
	}
	return cur
}

// TestParallelTraceValidity checks parallel counterexamples replay through
// the system for both invariant violations and deadlocks.
func TestParallelTraceValidity(t *testing.T) {
	t.Run("invariant", func(t *testing.T) {
		// A wide two-layer graph with one bad state buried in the second
		// layer, so many workers race while the violation is found.
		g := &toy.Graph{SysName: "wide", Init: []int{0}}
		g.Nodes = append(g.Nodes, toy.Node{})
		for i := 1; i <= 40; i++ {
			g.Nodes[0].Plain = append(g.Nodes[0].Plain, i)
			g.Nodes = append(g.Nodes, toy.Node{Plain: []int{41}})
		}
		g.Nodes = append(g.Nodes, toy.Node{Plain: []int{42}}, toy.Node{Bad: true})
		res, err := mc.Check(g, mc.Options{RecordTrace: true, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailInvariant {
			t.Fatalf("got %v / %+v, want invariant failure", res.Verdict, res.Failure)
		}
		last := replayTrace(t, g, res.Failure)
		for _, inv := range g.Invariants() {
			if inv.Name == res.Failure.Name && inv.Holds(last) {
				t.Errorf("final trace state does not violate %q", res.Failure.Name)
			}
		}
	})
	t.Run("deadlock", func(t *testing.T) {
		sys := &sinkSystem{}
		res, err := mc.Check(sys, mc.Options{RecordTrace: true, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailDeadlock {
			t.Fatalf("got %v / %+v, want deadlock", res.Verdict, res.Failure)
		}
		last := replayTrace(t, sys, res.Failure)
		if len(sys.Transitions(last)) != 0 {
			t.Error("deadlock trace does not end in a sink state")
		}
	})
}

// TestParallelGoalVerdicts checks reachability-goal handling in the
// parallel driver: reached goals pass, unreached goals fail with the
// conservative all-holes usage mask.
func TestParallelGoalVerdicts(t *testing.T) {
	reached := line(3, false)
	reached.Nodes[2].Goal = true
	res, err := mc.Check(reached, mc.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Success {
		t.Fatalf("reached goal: verdict = %v", res.Verdict)
	}
	unreached := line(3, false)
	unreached.Nodes = append(unreached.Nodes, toy.Node{Goal: true}) // unreachable
	res, err = mc.Check(unreached, mc.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailGoal {
		t.Fatalf("unreached goal: got %v / %+v", res.Verdict, res.Failure)
	}
	if res.Failure.UsageMask != ^uint64(0) {
		t.Error("goal failures must conservatively involve every hole")
	}
}

// TestParallelBitstateExactCounts is the driver-level regression test for
// the bitstate duplicate-admission race: a wide diamond graph funnels 40
// concurrently expanded states into one shared successor, so every level
// worker races to claim the same fingerprint. Under the old
// any-of-K-bits-was-clear rule two workers could both win, double-expand
// the shared state and inflate States and Transitions; the single-CAS
// ownership rule admits exactly one, so the parallel bitstate counts must
// equal the sequential exact baseline on every iteration (the budget is
// ample, so no omissions interfere). Run with -race.
func TestParallelBitstateExactCounts(t *testing.T) {
	build := func() *toy.Graph {
		//  0 → 1..40 → 41 → 42: forty racing claims on fp(41).
		g := &toy.Graph{SysName: "funnel", Init: []int{0}}
		g.Nodes = append(g.Nodes, toy.Node{})
		for i := 1; i <= 40; i++ {
			g.Nodes[0].Plain = append(g.Nodes[0].Plain, i)
			g.Nodes = append(g.Nodes, toy.Node{Plain: []int{41}})
		}
		g.Nodes = append(g.Nodes, toy.Node{Plain: []int{42}}, toy.Node{})
		return g
	}
	base, err := mc.Check(build(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Verdict != mc.Success || base.Stats.VisitedStates != 43 || base.Stats.FiredTransitions != 81 {
		t.Fatalf("baseline: %v / %d states / %d transitions",
			base.Verdict, base.Stats.VisitedStates, base.Stats.FiredTransitions)
	}
	for i := 0; i < 50; i++ {
		res, err := mc.Check(build(), mc.Options{Workers: 8, Visited: visited.Bitstate, BitstateMB: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.VisitedStates != base.Stats.VisitedStates {
			t.Fatalf("iter %d: bitstate parallel States = %d, want exact %d",
				i, res.Stats.VisitedStates, base.Stats.VisitedStates)
		}
		if res.Stats.FiredTransitions != base.Stats.FiredTransitions {
			t.Fatalf("iter %d: bitstate parallel Transitions = %d, want exact %d",
				i, res.Stats.FiredTransitions, base.Stats.FiredTransitions)
		}
	}
}

// TestParallelMaxStatesCap checks the cap downgrades a parallel run to
// unknown, same as the sequential driver.
func TestParallelMaxStatesCap(t *testing.T) {
	res, err := mc.Check(line(100, false), mc.Options{MaxStates: 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Unknown || !res.CapHit {
		t.Fatalf("got %v capHit=%v, want unknown via cap", res.Verdict, res.CapHit)
	}
}

// TestParallelModelErrorPropagates checks non-wildcard Fire errors surface
// as Check errors from the parallel driver too.
func TestParallelModelErrorPropagates(t *testing.T) {
	_, err := mc.Check(toy.Figure2(), mc.Options{Workers: 4, Env: ts.NewEnv(errChooser{})})
	if err == nil {
		t.Fatal("want error")
	}
}

// TestShardBitsOption smoke-tests a non-default shard count.
func TestShardBitsOption(t *testing.T) {
	res, err := mc.Check(line(50, false), mc.Options{Workers: 4, ShardBits: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.VisitedStates != 50 {
		t.Fatalf("states = %d, want 50", res.Stats.VisitedStates)
	}
}

// TestParallelPeakFrontierHighWater is the regression test for the
// parallel driver's frontier accounting: during a level expansion the
// whole current level is still alive while the next level accumulates, so
// the high-water mark is the largest cur+next coexistence — not, as
// previously reported, the largest single level. The graph below has
// levels of sizes 1, 2, 4: the true peak is 2+4 = 6, while the buggy
// largest-level figure was 4.
func TestParallelPeakFrontierHighWater(t *testing.T) {
	//        0
	//      /   \
	//     1     2
	//    / \   / \
	//   3   4 5   6   (terminals; quiescent, so no deadlock)
	g := &toy.Graph{SysName: "tree", Init: []int{0}, Nodes: []toy.Node{
		{Plain: []int{1, 2}},
		{Plain: []int{3, 4}},
		{Plain: []int{5, 6}},
		{}, {}, {}, {},
	}}
	res, err := mc.Check(g, mc.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Success || res.Stats.VisitedStates != 7 {
		t.Fatalf("got %v / %d states", res.Verdict, res.Stats.VisitedStates)
	}
	if res.Space.PeakFrontier != 6 {
		t.Errorf("parallel PeakFrontier = %d, want 6 (level 2 alive + level 3 emitted)", res.Space.PeakFrontier)
	}

	// The sequential queue releases each entry as it is expanded, so its
	// high-water mark on the same graph is lower (4): the drivers' peaks
	// measure the same thing — frontier entries alive at once — under
	// genuinely different retention behaviour.
	seq, err := mc.Check(g, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Space.PeakFrontier != 4 {
		t.Errorf("sequential PeakFrontier = %d, want 4", seq.Space.PeakFrontier)
	}
}

// TestLevelLoopAllocs pins that the one-worker level loop allocates
// nothing per level of its own: on a line graph every level is one state,
// so the extra mallocs of a 4× longer line must be exactly the model's own
// (toy.Graph builds one Fire closure per enumerated edge). Both lengths
// stay below the flat visited table's first growth, and the level buffers
// are pooled across runs, so any per-level slice or closure the driver
// made would show up here. Each count is the fewest mallocs over several
// runs: under -race sync.Pool drops Puts at random, and a run that missed
// the pool pays its set-up again.
func TestLevelLoopAllocs(t *testing.T) {
	const short, long = 50, 200
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fewest := func(f func()) uint64 {
		f() // warm the pools
		best := ^uint64(0)
		var ms runtime.MemStats
		for range 20 {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			f()
			runtime.ReadMemStats(&ms)
			best = min(best, ms.Mallocs-before)
		}
		return best
	}
	check := func(g *toy.Graph) uint64 {
		return fewest(func() {
			res, err := mc.Check(g, mc.Options{})
			if err != nil || res.Verdict != mc.Success {
				t.Fatalf("got %v, %v", res, err)
			}
		})
	}
	model := func(g *toy.Graph, n int) uint64 {
		var trs []ts.Transition
		return fewest(func() {
			s := g.Initial()[0]
			for i := 0; i < n-1; i++ {
				trs = g.AppendTransitions(trs[:0], s)
				s, _ = trs[0].Fire(nil)
			}
		})
	}
	gs, gl := line(short, false), line(long, false)
	driver := check(gl) - check(gs)
	own := model(gl, long) - model(gs, short)
	if driver != own {
		t.Errorf("%d more levels cost %d more mallocs, the model's own share is %d", long-short, driver, own)
	}
}
