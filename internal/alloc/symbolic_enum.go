package alloc

import (
	"math/big"
	"sort"

	"repro/internal/boolfunc"
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// EnumerateSymbolic is Enumerate driven by the symbolic characteristic
// function instead of the exhaustive subset scan: the possible-set BDD
// (conjoined with the useless-bus rule unless IncludeUselessComm) is
// walked by boolfunc's cost-ordered enumeration, which visits only
// subset-tree nodes whose subtree still contains a possible allocation.
// The emitted Candidate stream — order, costs, allocations — is
// bit-identical to Enumerate's, so the two producers are
// interchangeable mid-stream; only the effort statistics differ (see
// EnumerateSymbolicRange).
func EnumerateSymbolic(s *spec.Spec, opts Options, fn func(Candidate) bool) Stats {
	return EnumerateSymbolicRange(s, opts, 0, fn)
}

// EnumerateSymbolicRange is EnumerateRange's symbolic twin: the same
// possible-candidate stream and range addressing (the first start
// possible candidates are skipped without materializing their
// allocation maps), produced by pruned search instead of a 2^n scan.
//
// Statistics differ from the bitset scan where they measure effort
// rather than the stream: Scanned counts BDD search nodes visited
// (MaxScan bounds that count — an enumerator-specific effort budget,
// not a stream position), and PrunedComm is always 0 because
// useless-bus subsets are never generated in the first place — the rule
// is conjoined into the characteristic function. Possible and
// SearchSpace match the bitset scan exactly.
func EnumerateSymbolicRange(s *spec.Spec, opts Options, start int, fn func(Candidate) bool) Stats {
	m, f, units := Symbolic(s)
	n := len(units)
	stats := Stats{SearchSpace: SearchSpace(n)}
	if !opts.IncludeUselessComm {
		f = m.Apply(boolfunc.And, f, commConstraint(s, m, units))
	}
	costs := make([]float64, n)
	for i, u := range units {
		costs[i] = u.Cost
	}
	e := m.NewCostEnum(f, costs)
	e.MaxVisits = opts.MaxScan
	for {
		idx, cost, ok := e.Next()
		if !ok {
			break
		}
		stats.Possible++
		if stats.Possible <= start {
			// Before the range: counted, never materialized.
			continue
		}
		a := make(spec.Allocation, len(idx))
		for _, k := range idx {
			a[units[k].ID] = true
		}
		if !fn(Candidate{Allocation: a, Cost: cost}) {
			break
		}
	}
	stats.Scanned = e.Visited()
	return stats
}

// commConstraint encodes the useless-bus rule as a BDD: every allocated
// bus unit must connect at least two allocated functional units — the
// same adjacency and threshold the bitset scan tests per subset
// (scanScratch.uselessComm), here conjoined once into the
// characteristic function.
func commConstraint(s *spec.Spec, m *boolfunc.Manager, units []Unit) *boolfunc.Node {
	pos := make(map[hgraph.ID]int, len(units))
	for k, u := range units {
		pos[u.ID] = k
	}
	adj := commAdjacency(s, units)
	out := m.True()
	for k, u := range units {
		if !u.Comm {
			continue
		}
		var neigh []int
		for other := range adj[u.ID] {
			neigh = append(neigh, pos[other])
		}
		sort.Ints(neigh)
		// at-least-two as the usual one/two accumulation chain.
		one, two := m.False(), m.False()
		for _, j := range neigh {
			x := m.Var(j)
			two = m.Apply(boolfunc.Or, two, m.Apply(boolfunc.And, one, x))
			one = m.Apply(boolfunc.Or, one, x)
		}
		out = m.Apply(boolfunc.And, out, m.Apply(boolfunc.Or, m.NotVar(k), two))
	}
	return out
}

// CountPossibleBig returns the exact number of possible resource
// allocations as a big integer — exact at any unit count, where the
// float64 CountPossible rounds beyond 2^53.
func CountPossibleBig(s *spec.Spec) *big.Int {
	m, f, _ := Symbolic(s)
	return m.SatCountBig(f)
}
