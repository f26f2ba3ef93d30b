package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
)

// Verdicts of a comparison.
const (
	improved   = "improved"
	noChange   = "no change"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judgement compares one metric of one workload across two result sets.
type judgement struct {
	oldMed, oldQ1, oldQ3 float64
	newMed, newQ1, newQ3 float64
	change               float64 // (new-old)/old of the medians
	wins                 float64 // share of pairs the new side won
	verdict              string
}

// judge applies the pair-win and quartile rule. Run i of the old set is
// paired with run i of the new set. The new side improved when it wins at
// least nine tenths of the pairs and its median differs from the old one by
// more than the old side's interquartile range, or when every new run reads
// better than every old run. Otherwise the metric is unresolved when either
// side's spread (interquartile range over median) exceeds the bound,
// regressed when the median worsened by more than the bound, and unchanged
// otherwise. Per-layer metrics have no bound (0); they get no verdict
// beyond improved and regressed by the pair rule.
func judge(old, cur []float64, better string, bound float64) judgement {
	j := judgement{oldMed: median(old), newMed: median(cur)}
	j.oldQ1, j.oldQ3 = quartiles(old)
	j.newQ1, j.newQ3 = quartiles(cur)
	j.change = relChange(j.oldMed, j.newMed)
	beats := func(a, b float64) bool { // a is better than b
		if better == higher {
			return a > b
		}
		return a < b
	}
	pairs, wins, losses := min(len(old), len(cur)), 0, 0
	for i := range pairs {
		switch {
		case beats(cur[i], old[i]):
			wins++
		case beats(old[i], cur[i]):
			losses++
		}
	}
	if pairs > 0 {
		j.wins = float64(wins) / float64(pairs)
	}
	lost := 0.0
	if pairs > 0 {
		lost = float64(losses) / float64(pairs)
	}
	oldIQR := j.oldQ3 - j.oldQ1
	beyondSpread := math.Abs(j.newMed-j.oldMed) > oldIQR
	all := func(a, b []float64) bool { // every value of a beats every value of b
		for _, x := range a {
			for _, y := range b {
				if !beats(x, y) {
					return false
				}
			}
		}
		return len(a) > 0 && len(b) > 0
	}
	worse := j.change // positive means worse
	if better == higher {
		worse = -worse
	}
	switch {
	case (j.wins >= 0.9 && beyondSpread && worse < 0) || all(cur, old):
		j.verdict = improved
	case bound == 0 && ((lost >= 0.9 && beyondSpread && worse > 0) || all(old, cur)):
		j.verdict = regressed
	case bound == 0:
		j.verdict = "-"
	case all(old, cur) && worse > bound:
		j.verdict = regressed
	case spread(j.oldMed, oldIQR) > bound || spread(j.newMed, j.newQ3-j.newQ1) > bound:
		j.verdict = unresolved
	case worse > bound:
		j.verdict = regressed
	default:
		j.verdict = noChange
	}
	return j
}

func relChange(old, cur float64) float64 {
	if old == cur {
		return 0
	}
	if old == 0 {
		return math.Inf(1)
	}
	return (cur - old) / math.Abs(old)
}

func spread(med, iqr float64) float64 {
	if iqr == 0 {
		return 0
	}
	if med == 0 {
		return math.Inf(1)
	}
	return iqr / math.Abs(med)
}

// loadSet reads the result documents in path: a file of saved run output,
// or a directory of them (read in name order, which pairs runs by order).
func loadSet(path string) ([]document, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		ents, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range ents {
			if e.Type().IsRegular() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	var docs []document
	for _, f := range files {
		ds, err := readDocs(f)
		if err != nil {
			return nil, err
		}
		docs = append(docs, ds...)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s: no %s result documents", path, schema)
	}
	return docs, nil
}

// readDocs extracts the result documents from one saved output.
func readDocs(path string) ([]document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []document
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Bytes()
		if !strings.Contains(string(line), `"schema":"`+schema+`"`) {
			continue
		}
		var d document
		if err := json.Unmarshal(line, &d); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		docs = append(docs, d)
	}
	return docs, sc.Err()
}

// compareSets judges every metric of every workload present in both sets
// and reports whether any end-to-end metric regressed. It refuses sets
// whose environments (other than the commit) or workload definitions
// differ.
func compareSets(w io.Writer, oldPath, newPath string) (bool, error) {
	oldDocs, err := loadSet(oldPath)
	if err != nil {
		return false, err
	}
	newDocs, err := loadSet(newPath)
	if err != nil {
		return false, err
	}
	ref := oldDocs[0]
	for _, d := range append(append([]document(nil), oldDocs...), newDocs...) {
		if !d.Env.comparable(ref.Env) {
			return false, fmt.Errorf("refusing to compare: environments differ (%+v vs %+v)", ref.Env, d.Env)
		}
	}
	group := func(docs []document) map[string][]document {
		g := map[string][]document{}
		for _, d := range docs {
			k := fmt.Sprintf("%s trace=%t", d.Workload.Name, d.Trace)
			g[k] = append(g[k], d)
		}
		return g
	}
	og, ng := group(oldDocs), group(newDocs)
	defs := map[string]metric{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		defs[m.Name] = m
	}
	anyRegressed := false
	for _, key := range sortedKeys(og) {
		olds, news := og[key], ng[key]
		if len(news) == 0 {
			continue
		}
		for _, d := range append(olds[1:], news...) {
			if !reflect.DeepEqual(d.Workload, olds[0].Workload) {
				return false, fmt.Errorf("refusing to compare %s: workload definitions differ (%+v vs %+v)",
					key, olds[0].Workload, d.Workload)
			}
		}
		fmt.Fprintf(w, "%s: %d old runs, %d new runs\n", key, len(olds), len(news))
		fmt.Fprintf(w, "  %-26s %-34s %-34s %8s %5s  %s\n", "metric", "old median [q1, q3]", "new median [q1, q3]", "change", "wins", "verdict")
		for _, name := range sortedKeys(olds[0].Metrics) {
			m, ok := defs[name]
			if !ok {
				continue
			}
			var ov, nv []float64
			for _, d := range olds {
				ov = append(ov, d.Metrics[name].Value)
			}
			for _, d := range news {
				nv = append(nv, d.Metrics[name].Value)
			}
			j := judge(ov, nv, m.Better, m.Bound)
			if j.verdict == regressed && m.Bound > 0 {
				anyRegressed = true
			}
			fmt.Fprintf(w, "  %-26s %-34s %-34s %+7.1f%% %5.2f  %s\n", name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", j.oldMed, j.oldQ1, j.oldQ3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", j.newMed, j.newQ1, j.newQ3),
				100*j.change, j.wins, j.verdict)
		}
	}
	return anyRegressed, nil
}
