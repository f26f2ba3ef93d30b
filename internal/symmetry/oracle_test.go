package symmetry_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"verc3/internal/msi"
	"verc3/internal/mutex"
	"verc3/internal/spec"
	"verc3/internal/statespace"
	"verc3/internal/symmetry"
	"verc3/internal/ts"
)

// bruteMin is the exhaustive canonical encoding the sorting canonicalizer
// must reproduce: the lexicographically smallest AppendKey over all N!
// fresh Permute calls. It shares nothing with Fingerprint but the
// permutation table.
func bruteMin(s ts.Permutable, perms [][]int) []byte {
	var best []byte
	for _, perm := range perms {
		enc := s.Permute(perm).(ts.KeyAppender).AppendKey(nil)
		if best == nil || bytes.Compare(enc, best) < 0 {
			best = enc
		}
	}
	return best
}

// fixedChooser resolves every hole to action k modulo its arity, so a
// sketch explores one complete candidate's space.
type fixedChooser int

func (k fixedChooser) Choose(_ string, actions []string) (int, error) {
	return int(k) % len(actions), nil
}

// checkReachable explores sys breadth-first (deduplicating by the
// brute-force canonical encoding) and demands, for every distinct initial
// state and fired successor, that Fingerprint equals the fingerprint of
// the brute-force minimum. It returns the number of orbits reached.
func checkReachable(t *testing.T, sys ts.System, env *ts.Env) int {
	t.Helper()
	inits := sys.Initial()
	n := inits[0].(ts.Permutable).NumAgents()
	c := symmetry.NewCanonicalizer(n)
	perms := symmetry.Permutations(n)
	seen := map[string]bool{}    // brute-force canonical encodings reached
	checked := map[string]bool{} // raw encodings already compared
	var queue []ts.State
	offer := func(s ts.State) {
		raw := string(s.(ts.KeyAppender).AppendKey(nil))
		if checked[raw] {
			return
		}
		checked[raw] = true
		want := bruteMin(s.(ts.Permutable), perms)
		if got := c.Fingerprint(s); got != statespace.OfBytes(want) {
			t.Fatalf("%s: Fingerprint(%s) = %x, brute force %x", sys.Name(), s.Key(), got, statespace.OfBytes(want))
		}
		if !seen[string(want)] {
			seen[string(want)] = true
			queue = append(queue, s)
		}
	}
	for _, s := range inits {
		offer(s)
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, tr := range sys.Transitions(s) {
			next, err := tr.Fire(env)
			if errors.Is(err, ts.ErrWildcard) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			offer(next)
		}
	}
	return len(seen)
}

// TestFingerprintMatchesBruteForce is the bit-identity oracle: over the
// whole reachable space of every symmetric model — msi-complete at 2..5
// caches, Peterson's mutex, the committed symmetric specs and a synthetic
// spec exercising every signature rule — the sorted canonical fingerprint
// equals the exhaustive minimum's. Orbit counts pin the explored spaces.
func TestFingerprintMatchesBruteForce(t *testing.T) {
	maxCaches := 5
	if testing.Short() {
		maxCaches = 4
	}
	for n, orbits := range map[int]int{2: 176, 3: 1097, 4: 5440, 5: 23224} {
		if n > maxCaches {
			continue
		}
		if got := checkReachable(t, msi.New(msi.Config{Caches: n, Variant: msi.Complete}), nil); got != orbits {
			t.Errorf("msi-complete-%d: %d orbits, want %d", n, got, orbits)
		}
	}
	checkReachable(t, mutex.New(false), nil)
	for _, file := range []string{"mutex.json", "mutex-sketch.json"} {
		m, err := spec.LoadFile(filepath.Join("../../examples/specs", file))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			checkReachable(t, m.System(), ts.NewEnv(fixedChooser(k)))
		}
	}
	m, err := spec.Parse([]byte(signatureSpec))
	if err != nil {
		t.Fatal(err)
	}
	if got := checkReachable(t, m.System(), nil); got < 100 {
		t.Errorf("synthetic spec: only %d orbits reached", got)
	}
}

// signatureSpec is a symmetric model built to stress the spec signature
// rules: a non-pid scalar before the arrays, a 4-byte array cell whose
// little-endian bytes order 256 before 44, a second signature array, then
// a pid scalar and arrays after it that the signature must not include.
const signatureSpec = `{
  "format": "verc3_model_v1",
  "name": "signature-stress",
  "processes": 3,
  "symmetric": true,
  "vars": [
    {"name": "round", "type": "int", "min": 0, "max": 2},
    {"name": "st", "type": "enum", "values": ["A", "B", "C"], "array": true},
    {"name": "cnt", "type": "int", "min": 0, "max": 300, "array": true},
    {"name": "owner", "type": "pid", "nullable": true, "init": "none"},
    {"name": "ptr", "type": "pid", "nullable": true, "init": "none", "array": true},
    {"name": "tail", "type": "bool", "array": true}
  ],
  "rules": [
    {"name": "p%d: acquire", "per_process": true,
     "guard": "owner == none && st[i] == A",
     "action": ["owner = i", "st[i] = B"]},
    {"name": "p%d: bump", "per_process": true,
     "guard": "st[i] == B && cnt[i] == 0",
     "action": ["cnt[i] = 256"]},
    {"name": "p%d: shrink", "per_process": true,
     "guard": "cnt[i] == 256",
     "action": ["cnt[i] = 44"]},
    {"name": "p%d: point", "per_process": true,
     "guard": "st[i] != A",
     "action": ["ptr[i] = owner", "tail[i] = !tail[i]"]},
    {"name": "p%d: release", "per_process": true,
     "guard": "owner == i",
     "action": ["owner = none", "st[i] = C",
       {"if": "round < 2", "then": ["round = round + 1"], "else": ["round = 0"]}]},
    {"name": "p%d: reset", "per_process": true,
     "guard": "st[i] == C",
     "action": ["st[i] = A", "cnt[i] = 0", "ptr[i] = none"]}
  ]
}`
