package main

import (
	"math/rand"
	"testing"

	"cgraph"
	"cgraph/model"
	"cgraph/server"
)

// runJobs runs specs to convergence on a fresh System over edges and
// returns each job's values.
func runJobs(t *testing.T, n int, edges []model.Edge, specs []jobSpec, opts ...cgraph.Option) [][]float64 {
	t.Helper()
	sys := cgraph.NewSystem(append([]cgraph.Option{cgraph.WithWorkers(2)}, opts...)...)
	if err := sys.LoadEdges(n, edges); err != nil {
		t.Fatal(err)
	}
	reg := server.DefaultRegistry()
	jobs := make([]*cgraph.Job, len(specs))
	for i, s := range specs {
		prog, err := reg.Build(s.algo, server.ProgramParams{Source: model.VertexID(s.source)})
		if err != nil {
			t.Fatal(err)
		}
		var jo []cgraph.JobOption
		if s.async {
			jo = append(jo, cgraph.WithExecMode(cgraph.ExecAsync))
		}
		if jobs[i], err = sys.Submit(prog, jo...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, len(jobs))
	for i, j := range jobs {
		v, err := j.Results()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

func TestOracleAcceptsEngineAndRejectsPerturbation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := map[string][]model.Edge{
		"social": rmatEdges(rng, 300, 4000),
		"web":    webEdges(rng, 300, 4000),
	}
	for name, edges := range graphs {
		ref := newRefGraph(300, edges)
		specs := batchJobs()
		for _, s := range []jobSpec{{algo: "sssp", source: 5}, {algo: "pagerank"}, {algo: "wcc"}} {
			s.async = true
			specs = append(specs, s)
		}
		for i, got := range runJobs(t, 300, edges, specs) {
			s := specs[i]
			if err := ref.check(s, got); err != nil {
				t.Errorf("%s %s (async %v): engine result rejected: %v", name, s.algo, s.async, err)
			}
			if err := ref.selfTest(s, got); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

func TestOracleWCCLabelsIsolatedVerticesWithTheirOwnID(t *testing.T) {
	// Vertices 3 and 4 have no edges.
	edges := []model.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 1, Weight: 1}}
	ref := newRefGraph(5, edges)
	got := runJobs(t, 5, edges, []jobSpec{{algo: "wcc"}})[0]
	if err := ref.check(jobSpec{algo: "wcc"}, got); err != nil {
		t.Fatal(err)
	}
	if got[3] != 3 || got[4] != 4 {
		t.Fatalf("isolated vertices labelled %v, %v", got[3], got[4])
	}
}
