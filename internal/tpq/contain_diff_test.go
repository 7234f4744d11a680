package tpq

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The tests below use eval_test.go's randomPattern generator; the
// returned patterns start out unindexed, so they also exercise the lazy
// single-owner reindex path.

// TestContainedMatchesReference checks the optimized Contained (interval
// labels, prefilters, pooled checker) against the frozen reference
// implementation on random pattern pairs — including wildcard patterns.
func TestContainedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabets := [][]string{
		{"a", "b", "c"},
		{"a", "b", Wildcard},
		{"a"},
	}
	checked := 0
	for trial := 0; trial < 700; trial++ {
		alphabet := alphabets[trial%len(alphabets)]
		q := randomPattern(rng, alphabet, 8)
		qp := randomPattern(rng, alphabet, 8)
		got := Contained(q, qp)
		want := containedReference(q, qp)
		if got != want {
			t.Fatalf("Contained(%s, %s) = %v, reference says %v", q.Canonical(), qp.Canonical(), got, want)
		}
		// Also check the reflexive direction: every pattern is contained
		// in itself.
		if !Contained(q, q) {
			t.Fatalf("Contained(%s, itself) = false", q.Canonical())
		}
		checked++
	}
	if checked < 500 {
		t.Fatalf("only %d instances checked, want >= 500", checked)
	}
}

// TestIsAncestorOfMatchesWalk checks the O(1) interval ancestor test
// against the parent-chain walk on all node pairs of random patterns,
// both within one pattern and across two (cross-pattern pairs must
// never report ancestry via stale labels).
func TestIsAncestorOfMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	alphabet := []string{"a", "b"}
	for trial := 0; trial < 200; trial++ {
		p := randomPattern(rng, alphabet, 10)
		o := randomPattern(rng, alphabet, 10)
		pn, on := p.Nodes(), o.Nodes()
		for _, n := range pn {
			for _, m := range pn {
				if got, want := n.IsAncestorOf(m), isAncestorOfWalk(n, m); got != want {
					t.Fatalf("IsAncestorOf within %s = %v, walk says %v", p.Canonical(), got, want)
				}
			}
			for _, m := range on {
				if n.IsAncestorOf(m) {
					t.Fatalf("cross-pattern IsAncestorOf reported true between %s and %s", p.Canonical(), o.Canonical())
				}
			}
		}
	}
}

// applyRandomMutation performs one random structured-mutation operation
// on p and returns a description of it (for failure messages).
func applyRandomMutation(rng *rand.Rand, p *Pattern) string {
	nodes := p.Nodes()
	n := nodes[rng.Intn(len(nodes))]
	switch op := rng.Intn(5); op {
	case 0:
		p.SetOutput(n)
		return "SetOutput"
	case 1:
		n.SetAxis(Axis(rng.Intn(2)))
		return "SetAxis"
	case 2:
		if len(n.Children) > 0 {
			n.RemoveChildAt(rng.Intn(len(n.Children)))
			// The output may have been detached with the subtree; repoint
			// it so the pattern stays valid.
			p.SetOutput(p.Root)
			return "RemoveChildAt"
		}
		return "noop"
	case 3:
		if len(n.Children) > 0 {
			donor := n.Children[rng.Intn(len(n.Children))]
			n.AdoptChildren(donor)
			return "AdoptChildren"
		}
		return "noop"
	default:
		if len(n.Children) > 0 {
			n.SpliceAbove(rng.Intn(len(n.Children)), Axis(rng.Intn(2)), "s")
			return "SpliceAbove"
		}
		return "noop"
	}
}

// TestMutationMaintainsLabels interleaves random structured mutations
// with label-dependent queries and checks each against a freshly
// reindexed clone: the mutation API must leave no stale interval labels
// behind.
func TestMutationMaintainsLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	alphabet := []string{"a", "b", "c"}
	for trial := 0; trial < 300; trial++ {
		p := randomPattern(rng, alphabet, 8)
		for step := 0; step < 4; step++ {
			op := applyRandomMutation(rng, p)
			// Read the form before anything reindexes p: the entry cached
			// before the mutation must not be served.
			dirty := p.Canonical()
			if err := p.Validate(); err != nil {
				t.Fatalf("after %s: %v", op, err)
			}
			// A fresh clone is indexed from scratch; the mutated pattern
			// must agree with it on every derived quantity.
			fresh, m := p.Clone()
			if got, want := p.Canonical(), fresh.Canonical(); got != want || dirty != want {
				t.Fatalf("after %s: Canonical %q (%q before reindexing), fresh clone says %q", op, got, dirty, want)
			}
			if got, want := p.Size(), fresh.Size(); got != want {
				t.Fatalf("after %s: Size %d, fresh clone says %d", op, got, want)
			}
			for i, n := range p.Nodes() {
				if got := p.Preorder(n); got != i {
					t.Fatalf("after %s: Preorder = %d, want %d", op, got, i)
				}
				for _, k := range p.Nodes() {
					if got, want := n.IsAncestorOf(k), m[n].IsAncestorOf(m[k]); got != want {
						t.Fatalf("after %s: IsAncestorOf = %v, fresh clone says %v", op, got, want)
					}
				}
				if got, want := p.OnDistinguishedPath(n), fresh.OnDistinguishedPath(m[n]); got != want {
					t.Fatalf("after %s: OnDistinguishedPath = %v, fresh clone says %v", op, got, want)
				}
			}
			// Fill the canonical-form cache of the reindexed pattern, so
			// the next mutation must invalidate a cached entry.
			p.Canonical()
		}
	}
}

// TestDescendantsWindow checks the contiguous-window Descendants view
// against the definition via IsAncestorOf.
func TestDescendantsWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	alphabet := []string{"a", "b"}
	for trial := 0; trial < 100; trial++ {
		p := randomPattern(rng, alphabet, 12)
		for _, n := range p.Nodes() {
			want := map[*Node]bool{}
			for _, m := range p.Nodes() {
				if n.IsAncestorOf(m) {
					want[m] = true
				}
			}
			got := p.Descendants(n)
			if len(got) != len(want) {
				t.Fatalf("Descendants returned %d nodes, want %d", len(got), len(want))
			}
			for _, m := range got {
				if !want[m] {
					t.Fatalf("Descendants returned a non-descendant")
				}
			}
		}
	}
	// Nodes outside the pattern yield nil.
	p := MustParse("//a/b")
	if p.Descendants(&Node{Tag: "x"}) != nil {
		t.Fatalf("Descendants of a foreign node should be nil")
	}
}

// TestContainedConcurrent hammers the pooled homomorphism checker and
// the lazily-built pattern caches from many goroutines; run with -race
// this verifies the sync.Pool reuse and atomic cache publication.
func TestContainedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	alphabet := []string{"a", "b", "c"}
	ps := make([]*Pattern, 16)
	for i := range ps {
		ps[i] = randomPattern(rng, alphabet, 10)
		ps[i].Reindex() // the concurrency contract: shared patterns are pre-indexed
	}
	// Sequential ground truth first.
	want := make(map[string]bool)
	for i, q := range ps {
		for j, qp := range ps {
			want[fmt.Sprintf("%d-%d", i, j)] = containedReference(q, qp)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, q := range ps {
					for j, qp := range ps {
						if got := Contained(q, qp); got != want[fmt.Sprintf("%d-%d", i, j)] {
							t.Errorf("goroutine %d: Contained(%d, %d) = %v, want %v", g, i, j, got, !got)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
