package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
)

// point is one front entry as the correctness check compares it: the
// allocation, its cost and flexibility, and the implemented clusters.
// Behaviour witnesses (which binding was found first) are not compared;
// cached and uncached evaluation may pick different ones.
type point struct {
	alloc    string
	cost     float64
	flex     float64
	clusters string
}

type front []point

func frontOf(r *core.Result) front {
	out := make(front, 0, len(r.Front))
	for _, im := range r.Front {
		var ids, cls []string
		for _, id := range im.Allocation.IDs() {
			ids = append(ids, string(id))
		}
		for _, c := range im.Clusters {
			cls = append(cls, string(c))
		}
		out = append(out, point{
			alloc: strings.Join(ids, " "), cost: im.Cost, flex: im.Flexibility,
			clusters: strings.Join(cls, " "),
		})
	}
	return out
}

// decodeResult decodes a /jobs/{id}/result body (the core.Result wire
// form): its front, the effort counters it carries, and whether the run
// was interrupted.
func decodeResult(body []byte) (front, core.Stats, bool, error) {
	var res struct {
		Interrupted bool `json:"interrupted"`
		Front       []struct {
			Allocation  []string `json:"allocation"`
			Cost        float64  `json:"cost"`
			Flexibility float64  `json:"flexibility"`
			Clusters    []string `json:"clusters"`
		} `json:"front"`
		Stats struct {
			Scanned             int             `json:"scanned"`
			PossibleAllocations int             `json:"possibleAllocations"`
			Attempted           int             `json:"attempted"`
			Feasible            int             `json:"feasible"`
			ECSTested           int             `json:"ecsTested"`
			BindingRuns         int             `json:"bindingRuns"`
			BindingNodes        int             `json:"bindingNodes"`
			Cache               core.CacheStats `json:"cache"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, core.Stats{}, false, fmt.Errorf("decoding result: %w", err)
	}
	out := make(front, 0, len(res.Front))
	for _, e := range res.Front {
		out = append(out, point{
			alloc: strings.Join(e.Allocation, " "), cost: e.Cost, flex: e.Flexibility,
			clusters: strings.Join(e.Clusters, " "),
		})
	}
	st := res.Stats
	return out, core.Stats{
		Scanned: st.Scanned, PossibleAllocations: st.PossibleAllocations,
		Attempted: st.Attempted, Feasible: st.Feasible, ECSTested: st.ECSTested,
		BindingRuns: st.BindingRuns, BindingNodes: st.BindingNodes, Cache: st.Cache,
	}, res.Interrupted, nil
}

// check reports how got differs from the reference front f.
func (f front) check(name string, got front) error {
	if len(got) != len(f) {
		return fmt.Errorf("%s: front has %d entries, reference %d", name, len(got), len(f))
	}
	for i := range f {
		if got[i] != f[i] {
			return fmt.Errorf("%s: front entry %d is %+v, reference %+v", name, i, got[i], f[i])
		}
	}
	return nil
}

// paperRows are the (cost, flexibility) rows of the paper's Section 5
// Pareto table for the Set-Top box.
var paperRows = [][2]float64{{100, 2}, {120, 3}, {230, 4}, {290, 5}, {360, 7}, {430, 8}}

// checkPaper reports whether a Set-Top box front has the paper's rows.
func checkPaper(got front) error {
	if len(got) != len(paperRows) {
		return fmt.Errorf("settop: front has %d entries, the paper %d", len(got), len(paperRows))
	}
	for i, row := range paperRows {
		if got[i].cost != row[0] || got[i].flex != row[1] {
			return fmt.Errorf("settop: row %d is (%g, %g), the paper (%g, %g)",
				i, got[i].cost, got[i].flex, row[0], row[1])
		}
	}
	return nil
}
