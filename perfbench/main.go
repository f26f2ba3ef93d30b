// Command perfbench is the repository's benchmark. It runs one workload
// through the public entry points mc.CheckCtx and core.SynthesizeCtx,
// checks every result against pinned goldens, and prints every metric by
// name and unit, ending with a one-line JSON summary.
//
// Run it through the script beside it, from the repository root:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload synth --seed 1 --seconds 25 --trace 1
//	bash perfbench/run.sh --compare old/ new/
//	bash perfbench/run.sh --spec > BENCHMARK.json
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics in a separate run, from spans around the calls into
// each layer. --caches re-runs a workload at another size; sizes without a
// pinned golden are checked for agreement between the run's calls.
// --compare reads two sets of saved outputs and judges every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// schema names the result document format.
const schema = "verc3_perfbench_v1"

// deadline bounds a whole run, so that a hung call ends it with an error.
const deadline = 170 * time.Second

// notes records discrepancies found while sizing the workloads.
var notes = []string{
	"Result.Space.SpilledBytes and SpillRuns count only the safety-pass store: on liveness-spill they report " +
		"48,040 B in 1 run, while the FS seam sees 1,230,816 B written to 26 spill files, NDFS colour stores included. " +
		"The benchmark takes spill I/O from the FS seam.",
	"ROADMAP's \"MSI-large prune 1T: 47,686 candidates in 63 s\" does not match the synth workload, which " +
		"evaluates 50,206 candidates in about 7 s with the verc3-table1 settings.",
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// document is the full record of one run, printed before the summary line.
type document struct {
	Schema     string               `json:"schema"`
	Workload   definition           `json:"workload"`
	Env        environment          `json:"env"`
	Seed       int64                `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Trace      bool                 `json:"trace"`
	Calls      int                  `json:"calls"`
	Mismatches int                  `json:"mismatches"`
	Problems   []string             `json:"problems,omitempty"`
	Metrics    map[string]value     `json:"metrics"`
	Samples    map[string][]float64 `json:"samples"`
	Histograms map[string][]uint64  `json:"histograms,omitempty"`
	Layers     []layerEffect        `json:"layers"`
	Notes      []string             `json:"notes"`
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "run seed (names scratch directories; the workloads are fixed inputs)")
		seconds = flag.Float64("seconds", runSeconds, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 measures the per-layer metrics, 0 the end-to-end metrics")
		caches  = flag.Int("caches", 0, "cache count (0 = the workload's default)")
		scratch = flag.String("scratch", ".bench_build/scratch", "directory for the run's scratch files")
		compare = flag.Bool("compare", false, "compare two result sets given as arguments")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json")
	)
	flag.Parse()
	switch {
	case *spec:
		os.Stdout.Write(specJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare needs two result sets (files or directories)"))
		}
		regressed, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	default:
		ok, err := run(*name, *seed, *seconds, *trace == 1, *caches, *scratch)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// run measures one workload and prints its metrics; ok is false when any
// call's result differed from the reference.
func run(name string, seed int64, seconds float64, trace bool, caches int, scratch string) (ok bool, err error) {
	w, err := findWorkload(name)
	if err != nil {
		return false, err
	}
	if caches <= 0 {
		caches = w.caches
	}
	if seconds <= 0 {
		return false, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(scratch, fmt.Sprintf("%s-seed%d-", w.name, seed))
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	r := newRunner(ctx, w, caches, dir)
	if _, ok := w.goldens[caches]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: no golden for %s at %d caches; checking the calls agree with each other\n", w.name, caches)
	}
	doc := document{
		Schema: schema, Workload: w.definition(caches), Env: currentEnv(),
		Seed: seed, Seconds: seconds, Trace: trace, Layers: layerMap, Notes: notes,
	}
	var got map[string]float64
	defs := endToEnd
	if trace {
		defs = perLayer
		got, doc.Samples, doc.Histograms, err = r.traced(seconds)
	} else {
		got, doc.Samples, err = r.endToEnd(seconds)
	}
	if err != nil {
		return false, err
	}
	doc.Calls, doc.Mismatches, doc.Problems = r.calls, r.mismatches, r.problems
	doc.Metrics = map[string]value{}
	for _, d := range defs {
		doc.Metrics[d.Name] = value{got[d.Name], d.Unit}
	}

	fmt.Printf("workload %s (%d caches), %d calls, %d mismatched\n", w.name, caches, r.calls, r.mismatches)
	for _, p := range r.problems {
		fmt.Printf("mismatch: %s\n", p)
	}
	for _, d := range defs {
		fmt.Printf("%-26s %14.6g %s\n", d.Name, got[d.Name], d.Unit)
	}
	fmt.Printf("%-26s %14.6g %s\n", "mismatch_frac", float64(r.mismatches)/float64(r.calls), "fraction")
	if trace {
		sum := got["mc.driver_self_s"]
		for _, name := range selfTimeMetrics {
			sum += got[name]
		}
		fmt.Printf("layer self times and mc.driver_self_s add up to %.6g s, the untraced wall time of the median round\n", sum)
		if got["mc.driver_self_s"] < 0 {
			fmt.Fprintf(os.Stderr, "perfbench: layer self times exceed the untraced wall time by %.4g s\n", -got["mc.driver_self_s"])
		}
	}
	if err := printJSON(doc); err != nil {
		return false, err
	}
	ok = r.mismatches == 0
	return ok, printJSON(summary{Correct: ok, Attempted: r.calls, Failed: r.mismatches, Metrics: doc.Metrics})
}

func printJSON(v any) error {
	b, err := jsonLine(v)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}

func jsonLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
