// Package symmetry implements scalarset-style symmetry reduction in the
// spirit of Ip & Dill ("Better Verification Through Symmetry", CHDL 1993),
// which the paper's embedded model checker supports.
//
// Symmetric agents (e.g. the replicated cache controllers of the MSI case
// study) are interchangeable: permuting their identities maps reachable
// states to reachable states and preserves all properties. The model checker
// therefore stores only one canonical representative per orbit, and
// canonicalization is exact, so it gets the full reduction factor.
//
// Canonicalization has two tiers mirroring the keying pipeline. Key
// minimizes formatted Key() strings over all |S|! permutations — the
// trace/debug path and the brute-force oracle, one clone and one string
// per permutation. Fingerprint minimizes ts.KeyAppender binary encodings
// by sorting: agents are ordered by their permutation-invariant
// ts.InPlacePermuter.AgentSignature, and only the permutations inside
// blocks of tied signatures are encoded and compared (the scalarset
// normalization of Ip & Dill and Murphi). Candidates are written into
// pooled per-worker scratch (one reusable clone mutated in place, two
// ping-pong key buffers, the signature and order arrays) and the minimum
// is hashed without ever being materialized: the exploration hot path,
// with zero steady-state allocations.
package symmetry

import (
	"bytes"
	"sync"

	"verc3/internal/statespace"
	"verc3/internal/ts"
)

// Permutations returns all permutations of [0, n) in a deterministic order,
// the identity first.
// n must be small (factorial growth); protocol scalarsets are.
func Permutations(n int) [][]int {
	if n < 0 {
		panic("symmetry: negative scalarset size")
	}
	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			p := make([]int, n)
			copy(p, base)
			out = append(out, p)
			return
		}
		for i := k; i < n; i++ {
			base[k], base[i] = base[i], base[k]
			rec(k + 1)
			base[k], base[i] = base[i], base[k]
		}
	}
	rec(0)
	return out
}

// Identity reports whether perm is the identity permutation.
func Identity(perm []int) bool {
	for i, v := range perm {
		if i != v {
			return false
		}
	}
	return true
}

// Compose returns the permutation r where r[i] = a[b[i]].
func Compose(a, b []int) []int {
	r := make([]int, len(a))
	for i := range r {
		r[i] = a[b[i]]
	}
	return r
}

// Invert returns the inverse permutation of perm.
func Invert(perm []int) []int {
	r := make([]int, len(perm))
	for i, v := range perm {
		r[v] = i
	}
	return r
}

// Canonicalizer computes canonical state keys and fingerprints for a
// scalarset of a fixed size.
//
// A Canonicalizer is safe for concurrent use: the parallel exploration
// driver (internal/mc with Options.Workers > 1) shares one canonicalizer
// across all workers. The permutation table of the string tier is built
// once, on first use, and is immutable afterwards; the only other mutable
// state is a sync.Pool of per-worker scratch, which Fingerprint checks out
// for the duration of a call, so workers never contend and the hot path
// allocates nothing in steady state. Building a canonicalizer allocates
// only its own struct, so a synthesis run can afford one per dispatch.
type Canonicalizer struct {
	n     int
	once  sync.Once
	perms [][]int // all permutations, identity first (Key, Orbit); built lazily
	pool  sync.Pool
}

// inlineAgents and inlineKey size the arrays that live inside the pooled
// scratch struct — the per-agent arrays for scalarsets up to inlineAgents,
// and the starting capacity of each encoding buffer — so the first
// checkout of a fresh canonicalizer's scratch is a single allocation.
// Larger scalarsets and longer encodings fall back to ordinary slices.
const (
	inlineAgents = 8
	inlineKey    = 256
)

// scratch is the reusable per-call canonicalization state: a permuted
// clone mutated in place by ts.InPlacePermuter states, the two encoding
// buffers Fingerprint ping-pongs between while tracking the lexicographic
// minimum, and the per-agent signature, sort order and candidate
// permutation.
type scratch struct {
	dst   ts.State // lazily created from InPlacePermuter.Scratch; nil until then
	cur   []byte
	best  []byte
	sig   []uint64 // sig[i] is agent i's signature
	order []int    // agents in signature order; tie blocks are permuted in place
	perm  []int    // the candidate: agent order[k] is renamed to k

	sigBuf   [inlineAgents]uint64
	orderBuf [inlineAgents]int
	permBuf  [inlineAgents]int
	keyBuf   [2 * inlineKey]byte
}

// NewCanonicalizer builds a canonicalizer for a scalarset of n agents.
func NewCanonicalizer(n int) *Canonicalizer {
	if n < 0 {
		panic("symmetry: negative scalarset size")
	}
	c := &Canonicalizer{n: n}
	c.pool.New = func() any {
		sc := &scratch{}
		sc.best, sc.cur = sc.keyBuf[:0:inlineKey], sc.keyBuf[inlineKey:inlineKey]
		if n <= inlineAgents {
			sc.sig, sc.order, sc.perm = sc.sigBuf[:n], sc.orderBuf[:n], sc.permBuf[:n]
		} else {
			sc.sig, sc.order, sc.perm = make([]uint64, n), make([]int, n), make([]int, n)
		}
		return sc
	}
	return c
}

// permutations returns the string tier's permutation table, identity
// first, building it on first use.
func (c *Canonicalizer) permutations() [][]int {
	c.once.Do(func() { c.perms = Permutations(c.n) })
	return c.perms
}

// Key returns the canonical key of s: the lexicographically smallest Key()
// over all permutations of s's agents. If s does not implement
// ts.Permutable, its plain key is returned.
//
// This is the string tier of the keying pipeline — the path traces, tools
// and the legacy-keying ablation use, and a brute-force oracle for
// Fingerprint's sorting. The exploration hot path uses Fingerprint
// instead, which never materializes a string.
func (c *Canonicalizer) Key(s ts.State) string {
	p, ok := s.(ts.Permutable)
	if !ok {
		return s.Key()
	}
	best := s.Key()
	for _, perm := range c.permutations()[1:] {
		if k := p.Permute(perm).Key(); k < best {
			best = k
		}
	}
	return best
}

// Fingerprint returns the 64-bit fingerprint of s's canonical binary
// encoding: the lexicographically smallest AppendKey output over the
// candidate permutations of s's agents — those that list the agents in
// ascending ts.InPlacePermuter.AgentSignature order, i.e. every ordering
// of each block of tied signatures.
//
// This is exact for any permutation-invariant signature: every member of
// an orbit has the same candidate set of permuted states (renaming s
// renames its signatures along with its agents), and the minimum is a
// member of the orbit, so all members of an orbit agree on one
// fingerprint and distinct orbits disagree (AppendKey is injective). For
// the repo's models the signature is also a prefix of the agent's
// encoded bytes, so sorting discards only permutations the exhaustive
// minimum would reject and the canonical bytes equal the minimum over all
// N! permutations — fingerprints match those of a brute-force search.
// States implementing only ts.Permutable have no signature: every agent
// ties and all N! permutations are tried, paying a clone each.
//
// The minimum is taken over binary encodings, not Key strings, so the
// chosen orbit representative can differ from Key's — irrelevant to the
// checker, which only needs the orbit-level agreement above. States
// without ts.KeyAppender fall back to the string path (OfString ∘ Key).
//
// In steady state the call allocates nothing: the scratch clone, the two
// encoding buffers and the per-agent arrays are pooled on the
// canonicalizer, and the identity candidate is encoded from s itself.
func (c *Canonicalizer) Fingerprint(s ts.State) statespace.Fingerprint {
	a, appends := s.(ts.KeyAppender)
	if !appends {
		return statespace.OfString(c.Key(s))
	}
	sc := c.pool.Get().(*scratch)
	p, permutable := s.(ts.Permutable)
	if !permutable {
		sc.best = a.AppendKey(sc.best[:0])
		fp := statespace.OfBytes(sc.best)
		c.pool.Put(sc)
		return fp
	}
	ip, inPlace := s.(ts.InPlacePermuter)
	var dstAppender ts.KeyAppender // the scratch clone, asserted once
	if inPlace {
		if sc.dst == nil {
			sc.dst = ip.Scratch()
		}
		dstAppender = sc.dst.(ts.KeyAppender)
	}
	for i := range sc.order {
		sc.order[i] = i
		sc.sig[i] = 0
		if inPlace {
			sc.sig[i] = ip.AgentSignature(i)
		}
	}
	sortBySignature(sc.order, sc.sig)
	best, cur := sc.best, sc.cur
	for first := true; ; first = false {
		identity := true
		for k, agent := range sc.order {
			sc.perm[agent] = k
			identity = identity && agent == k
		}
		enc := a
		switch {
		case identity:
		case inPlace:
			ip.PermuteInto(sc.dst, sc.perm)
			enc = dstAppender
		default:
			enc = p.Permute(sc.perm).(ts.KeyAppender)
		}
		if first {
			best = enc.AppendKey(best[:0])
		} else if cur = enc.AppendKey(cur[:0]); bytes.Compare(cur, best) < 0 {
			best, cur = cur, best
		}
		if !nextTiePermutation(sc.order, sc.sig) {
			break
		}
	}
	fp := statespace.OfBytes(best)
	sc.best, sc.cur = best, cur
	c.pool.Put(sc)
	return fp
}

// sortBySignature stably sorts the agents in order by ascending signature
// (insertion sort: scalarsets are small). Stability leaves every tie block
// in ascending agent order, the first arrangement nextTiePermutation
// visits.
func sortBySignature(order []int, sig []uint64) {
	for k := 1; k < len(order); k++ {
		agent := order[k]
		j := k
		for ; j > 0 && sig[order[j-1]] > sig[agent]; j-- {
			order[j] = order[j-1]
		}
		order[j] = agent
	}
}

// nextTiePermutation advances order to the next arrangement in the product
// of its tie blocks' permutations, treating the blocks as the digits of an
// odometer (the first block turns fastest). It reports false, with every
// block back in ascending order, once all arrangements have been visited.
func nextTiePermutation(order []int, sig []uint64) bool {
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && sig[order[hi]] == sig[order[lo]] {
			hi++
		}
		if nextPermutation(order[lo:hi]) {
			return true
		}
		lo = hi
	}
	return false
}

// nextPermutation rearranges a into its lexicographic successor and
// reports true, or, when a is the last (descending) arrangement, resets it
// to ascending order and reports false.
func nextPermutation(a []int) bool {
	i := len(a) - 2
	for i >= 0 && a[i] >= a[i+1] {
		i--
	}
	if i >= 0 {
		j := len(a) - 1
		for a[j] <= a[i] {
			j--
		}
		a[i], a[j] = a[j], a[i]
	}
	for l, r := i+1, len(a)-1; l < r; l, r = l+1, r-1 {
		a[l], a[r] = a[r], a[l]
	}
	return i >= 0
}

// Orbit returns the number of distinct keys in the symmetry orbit of s
// (useful in tests: reduction factor = mean orbit size).
func (c *Canonicalizer) Orbit(s ts.State) int {
	p, ok := s.(ts.Permutable)
	if !ok {
		return 1
	}
	perms := c.permutations()
	seen := make(map[string]struct{}, len(perms))
	for _, perm := range perms {
		seen[p.Permute(perm).Key()] = struct{}{}
	}
	return len(seen)
}
