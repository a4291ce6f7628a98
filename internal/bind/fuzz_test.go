package bind

import (
	"fmt"
	"testing"

	"repro/internal/hgraph"
	"repro/internal/spec"
)

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzInstance decodes a small binding instance: up to five processes
// (timed or not), up to five resources (some buses), mapping edges with
// fractional latencies, problem dependences, architecture links, a
// present-resource set and solver options.
func fuzzInstance(data []byte) (*spec.Spec, *hgraph.FlatGraph, *spec.ArchView, Options, error) {
	in := fuzzBytes(data)
	np, nr := 1+in.next()%5, 1+in.next()%5
	pb := hgraph.NewBuilder("fuzz-problem", "P")
	for i := 0; i < np; i++ {
		if in.next()%2 == 0 {
			pb.Root().Vertex(hgraph.ID(fmt.Sprintf("p%d", i)))
		} else {
			pb.Root().Vertex(hgraph.ID(fmt.Sprintf("p%d", i)), spec.AttrPeriod, float64(10+in.next()%40))
		}
	}
	for i := 0; i < np; i++ {
		for j := i + 1; j < np; j++ {
			if in.next()%3 == 0 {
				pb.Root().Edge(hgraph.ID(fmt.Sprintf("p%d", i)), hgraph.ID(fmt.Sprintf("p%d", j)))
			}
		}
	}
	ab := hgraph.NewBuilder("fuzz-arch", "A")
	for r := 0; r < nr; r++ {
		if in.next()%3 == 0 {
			ab.Root().Vertex(hgraph.ID(fmt.Sprintf("r%d", r)), spec.AttrCost, 1, spec.AttrComm, 1)
		} else {
			ab.Root().Vertex(hgraph.ID(fmt.Sprintf("r%d", r)), spec.AttrCost, 1)
		}
	}
	for a := 0; a < nr; a++ {
		for b := a + 1; b < nr; b++ {
			if in.next()%2 == 0 {
				ab.Root().Edge(hgraph.ID(fmt.Sprintf("r%d", a)), hgraph.ID(fmt.Sprintf("r%d", b)))
			}
		}
	}
	var ms []*spec.Mapping
	for i := 0; i < np; i++ {
		for r := 0; r < nr; r++ {
			if in.next()%2 == 1 {
				ms = append(ms, &spec.Mapping{
					Process:  hgraph.ID(fmt.Sprintf("p%d", i)),
					Resource: hgraph.ID(fmt.Sprintf("r%d", r)),
					Latency:  float64(in.next()%64) / 4,
				})
			}
		}
	}
	present := spec.Allocation{}
	for r := 0; r < nr; r++ {
		if in.next()%4 != 0 {
			present[hgraph.ID(fmt.Sprintf("r%d", r))] = true
		}
	}
	opts := Options{Timing: TimingPolicy(in.next() % 6), MaxNodes: []int{0, 1, 3, 0}[in.next()%4]}

	problem, err := pb.Build()
	if err != nil {
		return nil, nil, nil, opts, err
	}
	arch, err := ab.Build()
	if err != nil {
		return nil, nil, nil, opts, err
	}
	s, err := spec.New("fuzz", problem, arch, ms)
	if err != nil {
		return nil, nil, nil, opts, err
	}
	fp, err := s.Problem.Flatten(nil)
	if err != nil {
		return nil, nil, nil, opts, err
	}
	av, err := s.ArchViewFor(present, nil)
	return s, fp, av, opts, err
}

// FuzzSolveMatchesReference decodes a small instance from the fuzz
// bytes and requires Find and FindMinLatency to reproduce the map-based
// reference (binding, nodes, truncation), and Check to agree with the
// reference validator on the found binding and on one rebinding.
func FuzzSolveMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 20, 1, 30, 1, 5, 0, 0, 1, 0, 1, 1, 9, 1, 13, 1, 7, 1, 1, 1, 0, 0})
	f.Add([]byte{4, 4, 1, 1, 1, 2, 1, 3, 1, 4, 0, 0, 0, 3, 0, 1, 0, 0, 2, 1, 7, 1, 30, 1, 60, 1, 2, 1, 1})
	f.Add([]byte{255, 255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244, 243, 242, 241})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, fp, av, opts, err := fuzzInstance(data)
		if err != nil {
			return
		}
		want, wok := refFind(s, fp, av, opts)
		got, ok := Find(s, fp, av, opts)
		if ok != wok || !sameResult(got, want) {
			t.Fatalf("%+v: Find = %v %+v, reference %v %+v", opts, ok, got, wok, want)
		}
		wantMin, wok := refFindMinLatency(s, fp, av, opts)
		gotMin, ok := FindMinLatency(s, fp, av, opts)
		if ok != wok || !sameResult(gotMin, wantMin) {
			t.Fatalf("%+v: FindMinLatency = %v %+v, reference %v %+v", opts, ok, gotMin, wok, wantMin)
		}
		if want.Binding == nil {
			return
		}
		mb := want.Binding.Clone()
		mb[fp.Vertices[0].ID] = hgraph.ID(fmt.Sprintf("r%d", len(data)%5))
		for _, b := range []Binding{want.Binding, mb} {
			if got, want := Check(s, fp, av, b, opts) == nil, refCheck(s, fp, av, b, opts) == nil; got != want {
				t.Fatalf("%+v: Check accepts %v = %v, reference %v", opts, b, got, want)
			}
		}
	})
}
