package main

import (
	"bytes"
	"encoding/json"
)

// metric is one reported number. End-to-end metrics carry the bound by
// which a change may worsen their median before it counts as a regression;
// per-layer metrics have no bound.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the metrics of an untraced run. mismatch_frac is not among
// them: it must read 0, so it travels as the result's failed/attempted pair.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "states_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "evals_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "allocs_per_state", Unit: "count", Better: lower, Bound: 0.1},
	{Name: "alloc_bytes_per_state", Unit: "B", Better: lower, Bound: 0.1},
	{Name: "peak_rss_mib", Unit: "MiB", Better: lower, Bound: 0.2},
}

// perLayer lists the metrics of a traced run, grouped by layer (see
// layerMap): model, keying, symmetry, visited, mc, core, runtime, and the
// tracing itself.
var perLayer = []metric{
	{Name: "msi.enumerate_s", Unit: "s", Better: lower},
	{Name: "msi.enumerate_calls", Unit: "count", Better: lower},
	{Name: "msi.fire_s", Unit: "s", Better: lower},
	{Name: "msi.fire_calls", Unit: "count", Better: lower},
	{Name: "msi.invariant_s", Unit: "s", Better: lower},
	{Name: "msi.invariant_calls", Unit: "count", Better: lower},
	{Name: "msi.encode_s", Unit: "s", Better: lower},
	{Name: "statespace.hash_s", Unit: "s", Better: lower},
	{Name: "keying.calls", Unit: "count", Better: lower},
	{Name: "symmetry.canon_s", Unit: "s", Better: lower},
	{Name: "symmetry.canon_calls", Unit: "count", Better: lower},
	{Name: "symmetry.perms_per_call", Unit: "count", Better: lower},
	{Name: "visited.insert_s", Unit: "s", Better: lower},
	{Name: "visited.insert_calls", Unit: "count", Better: lower},
	{Name: "visited.fresh_frac", Unit: "fraction", Better: higher},
	{Name: "visited.bytes_per_state", Unit: "B", Better: lower},
	{Name: "visited.spill_io_s", Unit: "s", Better: lower},
	{Name: "visited.spill_write_bytes", Unit: "B", Better: lower},
	{Name: "visited.spill_read_ops", Unit: "count", Better: lower},
	{Name: "mc.driver_self_s", Unit: "s", Better: lower},
	{Name: "mc.pool_hit_frac", Unit: "fraction", Better: higher},
	{Name: "mc.peak_frontier", Unit: "count", Better: lower},
	{Name: "mc.ndfs_s", Unit: "s", Better: lower},
	{Name: "mc.ndfs_states", Unit: "count", Better: lower},
	{Name: "mc.checkpoint_io_s", Unit: "s", Better: lower},
	{Name: "mc.checkpoint_bytes", Unit: "B", Better: lower},
	{Name: "mc.checkpoint_saves", Unit: "count", Better: lower},
	{Name: "core.self_s", Unit: "s", Better: lower},
	{Name: "core.dispatches", Unit: "count", Better: lower},
	{Name: "core.dispatch_s", Unit: "s", Better: lower},
	{Name: "core.dispatch_p50_us", Unit: "us", Better: lower},
	{Name: "core.dispatch_p99_us", Unit: "us", Better: lower},
	{Name: "core.states_per_dispatch", Unit: "count", Better: lower},
	{Name: "core.skipped_per_eval", Unit: "count", Better: higher},
	{Name: "core.reverify_s", Unit: "s", Better: lower},
	{Name: "runtime.gc_cpu_frac", Unit: "fraction", Better: lower},
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: lower},
}

// selfTimeMetrics are the per-layer seconds that, with mc.driver_self_s,
// add up to the untraced wall time. Every span behind them is disjoint
// from the others: keying and inserts are timed after the Fire span
// closes, and the NDFS phase is measured whole as mc.ndfs_s.
var selfTimeMetrics = []string{
	"msi.enumerate_s", "msi.fire_s", "msi.invariant_s",
	"msi.encode_s", "statespace.hash_s", "symmetry.canon_s",
	"visited.insert_s", "visited.spill_io_s",
	"mc.ndfs_s", "mc.checkpoint_io_s", "core.self_s",
}

// layerEffect records, before any change is measured, which end-to-end
// metric a layer should move, on which workload it does the most work,
// and where the prediction is no change.
type layerEffect struct {
	Layer    string `json:"layer"`
	Modules  string `json:"modules"`
	Moves    string `json:"moves"`
	MostWork string `json:"most_work"`
	NoChange string `json:"no_change"`
}

var layerMap = []layerEffect{
	{"model", "internal/msi with internal/network", "wall_s, allocs_per_state",
		"explore (enumerate; Fire closures are most allocations), synth (invariants)",
		"none: every workload runs the model, so compare shares"},
	{"keying", "msi.State.AppendKey with internal/statespace hashing", "wall_s",
		"explore (encode and FNV hashing)", "explore-sym"},
	{"symmetry", "internal/symmetry", "wall_s",
		"explore-sym, synth", "explore, liveness-spill"},
	{"visited", "internal/visited: flat, concurrent flat and spill", "wall_s, peak_rss_mib",
		"explore (flat), liveness-spill (spill)", "synth (tiny tables)"},
	{"mc", "internal/mc: drivers, NDFS and checkpoint", "wall_s, peak_rss_mib",
		"explore (driver), liveness-spill (NDFS, checkpoint)", "NDFS and checkpoint: every workload but liveness-spill"},
	{"core", "internal/core", "evals_per_s, wall_s", "synth",
		"explore, explore-sym, liveness-spill"},
	{"runtime", "the Go runtime", "wall_s, allocs_per_state", "explore (GC)", "explore-sym"},
}

// benchmarkSpec is BENCHMARK.json, the document at the repository root
// that says how to run this benchmark and what it reports.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadWhy `json:"workloads"`
	EndToEnd   []metric      `json:"end_to_end"`
	PerLayer   []metric      `json:"per_layer"`
}

type workloadWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run measures.
const runSeconds = 25

// specJSON renders BENCHMARK.json.
func specJSON() []byte {
	sp := benchmarkSpec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		sp.Workloads = append(sp.Workloads, workloadWhy{w.name, w.why})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sp); err != nil {
		panic(err) // static data; cannot fail
	}
	return buf.Bytes()
}
