package mc_test

// Pinned one-worker exploration results. testdata/driver_goldens.txt was
// recorded with the deterministic one-worker BFS driver; every case below
// must reproduce it byte for byte: verdict, states, transitions, max
// depth, wildcard aborts, peak frontier, the failure's usage mask and its
// rendered counterexample. Unlike the cross-configuration equivalence
// tests, which compare runs of today's code with each other, this pins
// today's code against recorded output. Regenerate (only for an intended
// change of results) with
//
//	go test ./internal/mc -run TestDriverGoldens -update-goldens

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/msi"
	"verc3/internal/spec"
	"verc3/internal/trace"
	"verc3/internal/ts"
	"verc3/internal/zoo"
)

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/driver_goldens.txt with current output")

const driverGoldens = "testdata/driver_goldens.txt"

// pickChooser resolves every hole to a fixed action — the first, or the
// last — and tracks usage like the synthesis engine's chooser: holes are
// numbered in discovery order and Usage reports the ones consulted since
// ResetUsage. It turns a sketch into one concrete (usually faulty)
// candidate whose failures carry real traces and usage masks.
type pickChooser struct {
	last bool
	idx  map[string]int
	used uint64
}

func (c *pickChooser) Choose(hole string, actions []string) (int, error) {
	i, ok := c.idx[hole]
	if !ok {
		i = len(c.idx)
		c.idx[hole] = i
	}
	c.used |= 1 << min(i, 63)
	if c.last {
		return len(actions) - 1, nil
	}
	return 0, nil
}

func (c *pickChooser) ResetUsage()   { c.used = 0 }
func (c *pickChooser) Usage() uint64 { return c.used }

// goldenCase is one pinned exploration: a fresh system and its options.
type goldenCase struct {
	name string
	sys  func(t *testing.T) ts.System
	opt  func() mc.Options
}

func zooSystem(name string) func(t *testing.T) ts.System {
	return func(t *testing.T) ts.System {
		sys, err := zoo.Get(name, zoo.Params{Caches: 2})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
}

func specSystem(file string) func(t *testing.T) ts.System {
	return func(t *testing.T) ts.System {
		m, err := spec.LoadFile(filepath.Join("../../examples/specs", file))
		if err != nil {
			t.Fatal(err)
		}
		return m.System()
	}
}

// goldenCases lists every pinned run: each zoo entry and committed spec
// with symmetry on and off under the all-wildcard environment, each sketch
// resolved to its first and its last actions (traces and usage masks on),
// liveness on four complete entries, a state-cap run, and three toy
// failures.
func goldenCases() []goldenCase {
	var cases []goldenCase
	wild := func(sym bool) func() mc.Options {
		return func() mc.Options {
			return mc.Options{Symmetry: sym, Env: ts.NewEnv(wildcardChooser{}), RecordTrace: true}
		}
	}
	pick := func(last bool) func() mc.Options {
		return func() mc.Options {
			c := &pickChooser{last: last, idx: map[string]int{}}
			return mc.Options{Symmetry: true, Env: ts.NewEnv(c), Usage: c, RecordTrace: true}
		}
	}
	for _, name := range zoo.Names() {
		for _, sym := range []bool{true, false} {
			cases = append(cases, goldenCase{fmt.Sprintf("zoo/%s/symmetry=%v", name, sym), zooSystem(name), wild(sym)})
		}
		if zoo.IsSketch(name) {
			for _, last := range []bool{false, true} {
				cases = append(cases, goldenCase{fmt.Sprintf("zoo/%s/pick-last=%v", name, last), zooSystem(name), pick(last)})
			}
		}
	}
	for _, file := range []string{"mutex.json", "mutex-sketch.json", "tokenring.json"} {
		for _, sym := range []bool{true, false} {
			cases = append(cases, goldenCase{fmt.Sprintf("spec/%s/symmetry=%v", file, sym), specSystem(file), wild(sym)})
		}
	}
	cases = append(cases, goldenCase{"spec/mutex-sketch.json/pick-last=false", specSystem("mutex-sketch.json"), pick(false)})
	for _, name := range []string{"msi-complete", "msi-fair", "peterson", "token-ring"} {
		cases = append(cases, goldenCase{"liveness/" + name, zooSystem(name), func() mc.Options {
			return mc.Options{Symmetry: true, Liveness: true, RecordTrace: true}
		}})
	}
	cases = append(cases,
		goldenCase{"cap/msi-complete-4/max-states=5000", zooSystem("msi-complete-4"), func() mc.Options {
			return mc.Options{MaxStates: 5000}
		}},
		goldenCase{"toy/line-6-bad", func(*testing.T) ts.System { return line(6, true) }, func() mc.Options {
			return mc.Options{RecordTrace: true}
		}},
		goldenCase{"toy/line-6-bad/traceless", func(*testing.T) ts.System { return line(6, true) }, func() mc.Options {
			return mc.Options{}
		}},
		goldenCase{"toy/deadlock", func(*testing.T) ts.System { return &sinkSystem{} }, func() mc.Options {
			return mc.Options{RecordTrace: true}
		}},
	)
	return cases
}

// renderRun is a run's golden text: one stats line, then — for failures —
// the usage mask and the rendered counterexample.
func renderRun(res *mc.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "verdict=%v states=%d transitions=%d depth=%d aborts=%d peak_frontier=%d",
		res.Verdict, res.Stats.VisitedStates, res.Stats.FiredTransitions, res.Stats.MaxDepth,
		res.Stats.WildcardAborts, res.Space.PeakFrontier)
	if res.Space.LiveStates > 0 {
		fmt.Fprintf(&b, " live_states=%d red_states=%d cycle_len=%d",
			res.Space.LiveStates, res.Space.RedStates, res.Space.CycleLen)
	}
	b.WriteByte('\n')
	if res.Failure != nil {
		fmt.Fprintf(&b, "usage_mask=%#x\n", res.Failure.UsageMask)
		b.WriteString(trace.Format(res.Failure, trace.Options{ShowStates: true}))
	}
	return b.String()
}

// renderSynthesis is the golden text of the MSI-small trace-generalized
// pruning run: its tallies and the sorted solution set.
func renderSynthesis(t *testing.T) string {
	sys := msi.New(msi.Config{Caches: 2, Variant: msi.Small})
	r, err := core.Synthesize(sys, core.Config{
		Mode:       core.ModePrune,
		PruneStyle: core.PruneTraceGeneralized,
		MC:         mc.Options{Symmetry: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "holes=%d evaluated=%d skipped=%d patterns=%d successes=%d failures=%d unknowns=%d total_states=%d peak_frontier=%d\n",
		r.Stats.Holes, r.Stats.Evaluated, r.Stats.Skipped, r.Stats.Patterns, r.Stats.Successes,
		r.Stats.Failures, r.Stats.Unknowns, r.Stats.TotalVisitedStates, r.Stats.Space.PeakFrontier)
	sols := make([]string, len(r.Solutions))
	for i := range r.Solutions {
		sols[i] = r.Describe(i)
	}
	sort.Strings(sols)
	for _, s := range sols {
		b.WriteString(s + "\n")
	}
	return b.String()
}

// TestDriverGoldens checks every golden case, and the MSI-small
// trace-generalized synthesis, against testdata/driver_goldens.txt.
func TestDriverGoldens(t *testing.T) {
	var b strings.Builder
	for _, gc := range goldenCases() {
		res, err := mc.Check(gc.sys(t), gc.opt())
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		fmt.Fprintf(&b, "=== %s\n%s", gc.name, renderRun(res))
	}
	fmt.Fprintf(&b, "=== synth/msi-small/trace-generalized\n%s", renderSynthesis(t))
	got := b.String()
	if *updateGoldens {
		if err := os.WriteFile(driverGoldens, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(driverGoldens)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", driverGoldens, i+1, g, w)
			}
		}
	}
}
