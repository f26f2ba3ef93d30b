package msi_test

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"

	"verc3/internal/msi"
	"verc3/internal/statespace"
	"verc3/internal/symmetry"
	"verc3/internal/ts"
)

// canonicalGoldens pins canonical fingerprints of msi-complete states at 5
// caches, recorded before canonicalization switched from trying all N!
// permutations to sorting by cache signature. Each entry is one reachable
// state (not necessarily its orbit's representative) as its AppendKey
// bytes in hex, and its canonical fingerprint. A change here changes every
// fingerprint on disk — checkpoints and spill runs — and must come with a
// checkpoint format version bump.
var canonicalGoldens = []struct {
	key string
	fp  uint64
}{
	{"0500000000000000000000000000000000ffff0000000000", 0x7cc6ed89cd2035c2},
	{"0503000000000000000000000000000000ffff000000010447657453000a01000000", 0xb8dacf00c35c8648},
	{"0504000000000000000000000000000003ff000000000104446174610a0001000000", 0x8c392e5b9f3c8c74},
	{"0506000003000000000000000000000004ff000000000204446174610a000100000447657453020a01000000", 0x775b117d2b0e1d59},
	{"0504000003000003000005000204000004ff030000000604446174610a02010000044765744d000a010000044765744d080a0100000447657453040a01000003496e760a0206000006496e7641636b000601000000", 0x9e9b5dc543c0afae},
	{"0504000001010006010004000004000004ff030001010704446174610a06010602044765744d000a010000044765744d040a010000044765744d080a01000003496e760a0206000003496e760a0406000006496e7641636b000601000000", 0x1d96b7caf22ddb86},
	{"0506010004000000000006010004000204ff040001010604446174610a08010802044765744d000a010000044765744d020a010000044765744d060a01000003496e760a0008000003496e760a0608000000", 0x5e8c75fa80417ab4},
	{"05040100040100060000040100060000050402000000060444617461080a010000044765744d000a010000044765744d020a010000044765744d040a010000044765744d060a010000044765744d080a01000000", 0xb26d55b2b82c7db4},
}

// TestCanonicalFingerprintGoldens: the canonical form is unchanged.
func TestCanonicalFingerprintGoldens(t *testing.T) {
	sys := msi.New(msi.Config{Caches: 5})
	c := symmetry.NewCanonicalizer(5)
	for i, g := range canonicalGoldens {
		data, err := hex.DecodeString(g.key)
		if err != nil {
			t.Fatal(err)
		}
		s, rest, err := sys.DecodeKey(data)
		if err != nil || len(rest) != 0 {
			t.Fatalf("golden %d: decode: %v (%d bytes left)", i, err, len(rest))
		}
		if got := c.Fingerprint(s); uint64(got) != g.fp {
			t.Errorf("golden %d: fingerprint %#016x, want %#016x", i, uint64(got), g.fp)
		}
	}
}

// FuzzCanonicalMatchesBruteForce decodes a well-formed MSI state of 1..5
// caches from the fuzz bytes (the first byte is the cache count, as
// AppendKey writes it), renames it by a random permutation π, and demands
// that the sorting canonicalizer agrees with the exhaustive minimum over
// all N! Permute calls and that Fingerprint(π s) == Fingerprint(s).
func FuzzCanonicalMatchesBruteForce(f *testing.F) {
	for _, g := range canonicalGoldens {
		data, _ := hex.DecodeString(g.key)
		f.Add(data, int64(1))
	}
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 5; n++ {
		f.Add(randomState(rng, n).AppendKey(nil), int64(n))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 || data[0] < 1 || data[0] > 5 {
			return
		}
		n := int(data[0])
		st, _, err := msi.New(msi.Config{Caches: n}).DecodeKey(data)
		if err != nil {
			return
		}
		s := st.(*msi.State)
		// Only well-formed states, on which the identity renaming is the
		// identity, are in scope: DecodeKey also accepts unreachable ones
		// (sharer bits beyond the cache count, an unsorted network) that
		// Permute normalizes even under the identity.
		perms := symmetry.Permutations(n) // identity first
		if !bytes.Equal(s.Permute(perms[0]).(ts.KeyAppender).AppendKey(nil), s.AppendKey(nil)) {
			return
		}
		var want []byte
		for _, perm := range perms {
			enc := s.Permute(perm).(ts.KeyAppender).AppendKey(nil)
			if want == nil || bytes.Compare(enc, want) < 0 {
				want = enc
			}
		}
		c := symmetry.NewCanonicalizer(n)
		fp := c.Fingerprint(s)
		if fp != statespace.OfBytes(want) {
			t.Fatalf("Fingerprint(%s) = %x, brute force %x", s.Key(), fp, statespace.OfBytes(want))
		}
		pi := rand.New(rand.NewSource(seed)).Perm(n)
		if got := c.Fingerprint(s.Permute(pi)); got != fp {
			t.Fatalf("Fingerprint(π s) = %x, Fingerprint(s) = %x (π = %v, s = %s)", got, fp, pi, s.Key())
		}
	})
}
