package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"verc3/internal/msi"
	"verc3/internal/ts"
)

// optionalSystemInterfaces are the optional ts interfaces a system may
// implement and the checker looks for.
var optionalSystemInterfaces = []reflect.Type{
	reflect.TypeFor[ts.QuiescentReporter](),
	reflect.TypeFor[ts.GoalReporter](),
	reflect.TypeFor[ts.LivenessReporter](),
	reflect.TypeFor[ts.FairnessReporter](),
	reflect.TypeFor[ts.Recycler](),
	reflect.TypeFor[ts.PoolReporter](),
	reflect.TypeFor[ts.TransitionAppender](),
	reflect.TypeFor[ts.KeyDecoder](),
}

func TestDecoratorForwardsExactlyTheModelsInterfaces(t *testing.T) {
	model := reflect.TypeFor[*msi.System]()
	decorated := reflect.TypeFor[*probedSystem]()
	implemented := 0
	for _, it := range optionalSystemInterfaces {
		m, d := model.Implements(it), decorated.Implements(it)
		if m != d {
			t.Errorf("%v: model implements it %t, decorator %t", it, m, d)
		}
		if m {
			implemented++
		}
	}
	if implemented < 3 {
		t.Fatalf("msi.System implements only %d optional interfaces; the list is stale", implemented)
	}
}

func TestDecoratorTimesTheAppenderPath(t *testing.T) {
	p := newProbe(0, false)
	sys := p.wrap(msi.New(msi.Config{Caches: 2, Variant: msi.Complete}))
	inits := sys.Initial()
	trs := sys.AppendTransitions(nil, inits[0])
	for _, tr := range trs {
		if _, err := tr.Fire(nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.enumerate.calls.Load(); got != 2 {
		t.Errorf("enumerate calls = %d, want 2 (Initial and AppendTransitions)", got)
	}
	if got := p.fire.calls.Load(); got != uint64(len(trs)) || got == 0 {
		t.Errorf("fire calls = %d, want %d", got, len(trs))
	}
	if got := p.insert.calls.Load(); got != uint64(len(trs))+1 {
		t.Errorf("shadow inserts = %d, want %d", got, len(trs)+1)
	}
}

// smallSynth is the synth workload on the MSI-small sketch, small enough
// for a test.
func smallSynth(t *testing.T) *workload {
	w := *mustWorkload(t, "synth")
	prepare := w.prepare
	w.prepare = func(caches int, dir string) (job, error) {
		j, err := prepare(caches, dir)
		j.sys = msi.New(msi.Config{Caches: caches, Variant: msi.Small})
		return j, err
	}
	w.goldens = nil
	return &w
}

func mustWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestTracedRunsMatchUntraced(t *testing.T) {
	cases := []struct {
		w      *workload
		caches int
	}{
		{mustWorkload(t, "explore"), 3},
		{mustWorkload(t, "explore-sym"), 3},
		{mustWorkload(t, "liveness-spill"), 3},
		{smallSynth(t), 2},
	}
	for _, c := range cases {
		t.Run(c.w.name, func(t *testing.T) {
			r := newRunner(context.Background(), c.w, c.caches, t.TempDir())
			got, vals, _, err := r.traced(0.001)
			if err != nil {
				t.Fatal(err)
			}
			if r.mismatches != 0 {
				t.Fatalf("%d of %d calls mismatched: %v", r.mismatches, r.calls, r.problems)
			}
			for _, d := range perLayer {
				if _, ok := got[d.Name]; !ok {
					t.Errorf("traced run did not report %s", d.Name)
				}
			}
			if got["msi.fire_calls"] == 0 || got["visited.insert_calls"] == 0 {
				t.Errorf("no model or visited-set calls were traced: %v", got)
			}
			if got["mc.driver_self_s"] < 0 {
				t.Errorf("mc.driver_self_s = %g s", got["mc.driver_self_s"])
			}
			sum := got["mc.driver_self_s"]
			for _, k := range selfTimeMetrics {
				sum += got[k]
			}
			if wall := vals["untraced.wall_s"][0]; math.Abs(sum-wall) > 1e-9*wall {
				t.Errorf("layer self times add up to %g s, untraced wall time %g s", sum, wall)
			}
		})
	}
}

func TestWrongGoldenFails(t *testing.T) {
	w := *mustWorkload(t, "explore")
	g := w.goldens[3]
	g.Transitions++
	w.goldens = map[int]outcome{3: g}
	r := newRunner(context.Background(), &w, 3, t.TempDir())
	if _, _, err := r.endToEnd(0.001); err != nil {
		t.Fatal(err)
	}
	if r.mismatches == 0 || r.mismatches != r.calls {
		t.Fatalf("%d of %d calls mismatched a wrong golden; want all", r.mismatches, r.calls)
	}
}

func TestTimingFSPassesBytesThrough(t *testing.T) {
	root := t.TempDir()
	spill := filepath.Join(root, "spill")
	fsys := newTimingFS(spill, filepath.Join(root, "ckpt"))
	if err := fsys.MkdirAll(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 100_000)
	rand.Read(want)
	name := filepath.Join(spill, "run-1")
	f, err := fsys.Create(name + ".tmp")
	if err != nil {
		t.Fatal(err)
	}
	for chunk := want; len(chunk) > 0; chunk = chunk[min(len(chunk), 4096):] {
		if _, err := f.Write(chunk[:min(len(chunk), 4096)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename(name+".tmp", name); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(name); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("file on disk differs from the bytes written (err %v)", err)
	}
	r, err := fsys.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make([]byte, 1000)
	if _, err := r.ReadAt(got, 5000); err != nil || !bytes.Equal(got, want[5000:6000]) {
		t.Fatalf("ReadAt differs from the bytes written (err %v)", err)
	}
	ents, err := fsys.ReadDir(spill)
	if err != nil || len(ents) != 1 || ents[0].Name() != "run-1" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	c := fsys.classes[0]
	if c.writeBytes.Load() != int64(len(want)) || c.readBytes.Load() != 1000 || c.reads.Load() != 1 || c.renames.Load() != 1 {
		t.Errorf("spill class counted %d B written, %d B in %d reads, %d renames",
			c.writeBytes.Load(), c.readBytes.Load(), c.reads.Load(), c.renames.Load())
	}
	if c.ns.Load() <= 0 || fsys.classes[1].ns.Load() != 0 || fsys.other.ns.Load() != 0 {
		t.Errorf("I/O time attributed wrongly: spill %d ns, ckpt %d ns, other %d ns",
			c.ns.Load(), fsys.classes[1].ns.Load(), fsys.other.ns.Load())
	}
	if err := fsys.RemoveAll(spill); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(spill); !os.IsNotExist(err) {
		t.Fatalf("RemoveAll left %s: %v", spill, err)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{7, 13, 9, 12, 8, 14, 10, 6, 11, 13}
	cases := []struct {
		name     string
		old, cur []float64
		better   string
		bound    float64
		want     string
	}{
		{"faster", base, scale(base, 0.8), lower, 0.1, improved},
		{"higher throughput", base, scale(base, 1.2), higher, 0.1, improved},
		{"slower beyond bound", base, scale(base, 1.3), lower, 0.1, regressed},
		{"slower within bound", base, scale(base, 1.05), lower, 0.1, noChange},
		{"same", base, base, lower, 0.1, noChange},
		{"spread exceeds bound", base, noisy, lower, 0.1, unresolved},
		{"per-layer, no bound", base, scale(base, 1.01), lower, 0, "-"},
	}
	for _, c := range cases {
		if got := judge(c.old, c.cur, c.better, c.bound); got.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.verdict, c.want, got)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %g", m)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g, %g; want 0.75, 2.25", q1, q3)
	}
}

func TestCompareRefusesDifferentDefinitions(t *testing.T) {
	w := mustWorkload(t, "explore")
	doc := document{Schema: schema, Workload: w.definition(5), Env: currentEnv(),
		Metrics: map[string]value{"wall_s": {10, "s"}}}
	write := func(d document) string {
		f := filepath.Join(t.TempDir(), "out.txt")
		var buf bytes.Buffer
		buf.WriteString("some human-readable line\n")
		b, err := jsonLine(d)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		if err := os.WriteFile(f, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return f
	}
	old := write(doc)
	var out strings.Builder
	if _, err := compareSets(&out, old, write(doc)); err != nil {
		t.Fatalf("identical definitions refused: %v", err)
	}
	if !strings.Contains(out.String(), "wall_s") {
		t.Errorf("comparison does not list wall_s:\n%s", out.String())
	}
	otherCommit := doc
	otherCommit.Env.Commit = "another"
	if _, err := compareSets(&out, old, write(otherCommit)); err != nil {
		t.Errorf("a different commit was refused: %v", err)
	}
	otherEnv := doc
	otherEnv.Env.GOMAXPROCS++
	if _, err := compareSets(&out, old, write(otherEnv)); err == nil {
		t.Error("a different environment was compared")
	}
	otherSize := doc
	otherSize.Workload = w.definition(4)
	if _, err := compareSets(&out, old, write(otherSize)); err == nil {
		t.Error("a different workload definition was compared")
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := specJSON(); !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with --spec:\n%s", want)
	}
}
