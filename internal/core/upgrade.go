package core

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/spec"
)

// Upgrade explores the incremental-design question the paper raises
// when discussing Pop et al. [10]: how to extend an already deployed
// platform for more functionality *with a guarantee* that the running
// behaviours keep working. Candidates are restricted to supersets of
// the base allocation, so every behaviour feasible on the base remains
// feasible (its bindings and timing are untouched by added resources);
// implemented flexibility is therefore monotone along the upgrade path.
//
// The returned front contains the Pareto-optimal upgrades with strictly
// more flexibility than the base implementation (the base itself is the
// front's implicit origin and is not repeated).
func Upgrade(s *spec.Spec, base spec.Allocation, opts Options) *Result {
	return UpgradeContext(context.Background(), s, base, opts)
}

// UpgradeContext is Upgrade under a context, with the same anytime
// semantics as ExploreContext: an interrupted run returns the
// Pareto-optimal upgrades over the explored cost-ordered prefix. It is
// EXPLORE's scan over the extensions of base with the flexibility
// bound starting at the base's flexibility.
func UpgradeContext(ctx context.Context, s *spec.Spec, base spec.Allocation, opts Options) *Result {
	if base == nil {
		base = spec.Allocation{}
	}
	sc := newScan(ctx, s, opts)
	// A resumed scan's counters already include the base's
	// implementation effort.
	st := &sc.Stats
	if opts.Resume != nil {
		st = &Stats{}
	}
	pol := sc.explorePolicy()
	if im := sc.ev.implement(base, bitset.Set{}, false, st); im != nil {
		pol.fcur, pol.floor = im.Flexibility, im.Flexibility
	}
	sc.run(base, pol)
	return sc.result(pol)
}
