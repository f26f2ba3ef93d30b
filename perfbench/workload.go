package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"verc3/internal/core"
	"verc3/internal/faultfs"
	"verc3/internal/mc"
	"verc3/internal/msi"
	"verc3/internal/ts"
	"verc3/internal/visited"
)

// outcome is everything a timed call must reproduce exactly. Model-checking
// workloads fill the first block, synthesis the second.
type outcome struct {
	Verdict     string `json:"verdict,omitempty"`
	States      int    `json:"states,omitempty"`
	Transitions int    `json:"transitions,omitempty"`
	Depth       int    `json:"depth,omitempty"`
	NDFSBlue    int    `json:"ndfs_blue,omitempty"`
	NDFSRed     int    `json:"ndfs_red,omitempty"`

	Evaluated  int64  `json:"evaluated,omitempty"`
	Patterns   int    `json:"patterns,omitempty"`
	Skipped    int64  `json:"skipped,omitempty"`
	Successes  int64  `json:"successes,omitempty"`
	Failures   int64  `json:"failures,omitempty"`
	Unknowns   int64  `json:"unknowns,omitempty"`
	Solutions  int    `json:"solutions,omitempty"`
	Reverified int    `json:"reverified,omitempty"`
	SolutionsH string `json:"solutions_sha256,omitempty"`
}

// workload is one fixed input the benchmark runs. The inputs are whole
// model-checking or synthesis problems whose results are pinned exactly,
// so they do not vary with the seed.
type workload struct {
	name     string
	why      string
	input    string
	caches   int             // default cache count
	workers  int             // exploring goroutines per check
	liveness bool            // checks run the liveness phase
	goldens  map[int]outcome // by cache count
	// prepare builds one call's system and options; dir is a fresh scratch
	// directory the call may use.
	prepare func(caches int, dir string) (job, error)
}

// job is one prepared call.
type job struct {
	sys   *msi.System
	opt   mc.Options   // model-checking workloads
	synth *core.Config // synthesis workload; nil otherwise
	// spillDir and ckptDir are where the call's disk I/O goes (empty when
	// it does none); the timing FS attributes I/O by them.
	spillDir, ckptDir string
}

// spillTier is the RAM tier of liveness-spill's visited and NDFS colour
// stores: small enough that the colour sets spill to many run files.
const spillTier = 64 << 10

var workloads = []*workload{
	{
		name: "explore",
		why: "One big check (1.93M states): model, keying, hashing, flat insert and GC do all the work; " +
			"the 16 MiB table exceeds L2. Symmetry, core, NDFS and spill are bypassed.",
		input:   "msi-complete, symmetry off, flat visited set, sequential driver, no trace",
		caches:  5,
		workers: 1,
		goldens: map[int]outcome{
			5: {Verdict: "success", States: 1930178, Transitions: 9583240, Depth: 43},
			3: {Verdict: "success", States: 6056, Transitions: 17616, Depth: 34},
		},
		prepare: func(caches int, _ string) (job, error) {
			return job{sys: msi.New(msi.Config{Caches: caches, Variant: msi.Complete})}, nil
		},
	},
	{
		name: "explore-sym",
		why: "Symmetry on, 2 workers: canonicalization (N! encodes per successor) is nearly all CPU, " +
			"beside the parallel driver and concurrent flat stripes; hashing runs once per N! encodes.",
		input:   "msi-complete, symmetry on, flat visited set, parallel driver with 2 workers, no trace",
		caches:  5,
		workers: 2,
		goldens: map[int]outcome{
			5: {Verdict: "success", States: 23224, Transitions: 114602, Depth: 43},
		},
		prepare: func(caches int, _ string) (job, error) {
			return job{
				sys: msi.New(msi.Config{Caches: caches, Variant: msi.Complete}),
				opt: mc.Options{Symmetry: true, Workers: 2},
			}, nil
		},
	},
	{
		name: "synth",
		why: "Table I MSI-large pruning synthesis: 50k small checks of about 75 states; per-check set-up, " +
			"candidate enumeration, pattern matching and invariants dominate.",
		input:   "msi-large sketch, prune mode, full-vector patterns, 1 synthesis worker, symmetry on",
		caches:  2,
		workers: 1,
		goldens: map[int]outcome{
			2: {Evaluated: 50206, Patterns: 45433, Skipped: 136186470, Successes: 12, Failures: 45433,
				Unknowns: 4761, Solutions: 12, Reverified: 12, SolutionsH: synthSolutions2},
		},
		prepare: func(caches int, _ string) (job, error) {
			return job{
				sys: msi.New(msi.Config{Caches: caches, Variant: msi.Large}),
				synth: &core.Config{
					Mode:       core.ModePrune,
					PruneStyle: core.PruneFullVector,
					Workers:    1,
					MCWorkers:  1,
					MC:         mc.Options{Symmetry: true},
				},
			}, nil
		},
	},
	{
		name: "liveness-spill",
		why: "The only NDFS workload: liveness on msi-fair over the spill backend (64 KiB RAM tier, colour " +
			"sets too) with a checkpoint at every level, so disk writes, ReadAt probes and checkpoint I/O run.",
		input:    "msi-fair, symmetry off, liveness, spill visited set with a 64 KiB tier, checkpoint at every level boundary",
		caches:   3,
		workers:  1,
		liveness: true,
		goldens: map[int]outcome{
			3: {Verdict: "success", States: 6056, Transitions: 17616, Depth: 34, NDFSBlue: 71437, NDFSRed: 53269},
		},
		prepare: func(caches int, dir string) (job, error) {
			spill, ckpt := filepath.Join(dir, "spill"), filepath.Join(dir, "ckpt")
			if err := os.Mkdir(spill, 0o755); err != nil {
				return job{}, err
			}
			return job{
				sys: msi.New(msi.Config{Caches: caches, Variant: msi.Complete, Fair: true}),
				opt: mc.Options{
					Liveness:        true,
					Visited:         visited.Spill,
					SpillMem:        spillTier,
					SpillDir:        spill,
					CheckpointDir:   ckpt,
					CheckpointEvery: -1,
				},
				spillDir: spill,
				ckptDir:  ckpt,
			}, nil
		},
	},
}

// synthSolutions2 is the SHA-256 of the sorted solution list of the synth
// workload at 2 caches (see solutionsDigest).
const synthSolutions2 = "c0c50cd5a2b5eef85133663b3e528d954dca928dd34770be36a373e4bcff34ca"

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// definition is what two result documents must agree on to be comparable.
type definition struct {
	Name    string   `json:"name"`
	Input   string   `json:"input"`
	Caches  int      `json:"caches"`
	Workers int      `json:"workers"`
	Golden  *outcome `json:"golden"`
}

func (w *workload) definition(caches int) definition {
	d := definition{Name: w.name, Input: w.input, Caches: caches, Workers: w.workers}
	if g, ok := w.goldens[caches]; ok {
		d.Golden = &g
	}
	return d
}

// callResult is what one call of a workload produced.
type callResult struct {
	out    outcome
	states int64 // every state explored: all dispatches, NDFS product states
	evals  int64 // model-checker dispatches
	mcRes  *mc.Result
	synRes *core.Result
}

// execute runs a prepared job against sys (the job's system, or a probe
// wrapped around it) with fsys as the disk seam (nil for the real OS).
func execute(ctx context.Context, j job, sys ts.System, fsys faultfs.FS, onEval func(core.Event)) (callResult, error) {
	if j.synth != nil {
		cfg := *j.synth
		cfg.MC.FS = fsys
		cfg.OnEvaluate = onEval
		r, err := core.SynthesizeCtx(ctx, sys, cfg)
		if err != nil {
			return callResult{}, err
		}
		st := r.Stats
		out := outcome{
			Evaluated: st.Evaluated, Patterns: st.Patterns, Skipped: st.Skipped,
			Successes: st.Successes, Failures: st.Failures, Unknowns: st.Unknowns,
			Solutions: len(r.Solutions), SolutionsH: solutionsDigest(r),
		}
		for _, s := range r.Solutions {
			if s.Reverified {
				out.Reverified++
			}
		}
		if st.Aborted {
			out.Verdict = "aborted"
		}
		return callResult{out: out, states: int64(st.Space.States), evals: st.Evaluated, synRes: r}, nil
	}
	opt := j.opt
	opt.FS = fsys
	res, err := mc.CheckCtx(ctx, sys, opt)
	if err != nil {
		return callResult{}, err
	}
	out := outcome{
		Verdict: res.Verdict.String(), States: res.Stats.VisitedStates,
		Transitions: res.Stats.FiredTransitions, Depth: res.Stats.MaxDepth,
		NDFSBlue: res.Space.LiveStates, NDFSRed: res.Space.RedStates,
	}
	states := int64(res.Space.States + res.Space.LiveStates + res.Space.RedStates)
	return callResult{out: out, states: states, evals: 1, mcRes: res}, nil
}

// solutionsDigest fingerprints a synthesis result's solution set: each
// solution in hole@action notation with its state count and verification
// flag, sorted.
func solutionsDigest(r *core.Result) string {
	lines := make([]string, len(r.Solutions))
	for i, s := range r.Solutions {
		lines[i] = fmt.Sprintf("%s states=%d reverified=%t", r.Describe(i), s.VisitedStates, s.Reverified)
	}
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:])
}
