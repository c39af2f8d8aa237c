package main

import (
	"math/rand"
	"testing"
	"time"

	"cgraph"
	"cgraph/api"
	"cgraph/model"
	"cgraph/server"
)

// TestDeltaMirrorReplay streams a short delta sequence into an in-process
// System, pins jobs to the snapshots its acks name, and checks every result
// against the oracle built from the mirror's replay of that snapshot.
func TestDeltaMirrorReplay(t *testing.T) {
	const n = 400
	rng := rand.New(rand.NewSource(11))
	base := webEdges(rng, n, 8000)
	sys := cgraph.NewSystem(
		cgraph.WithWorkers(2),
		cgraph.WithCoreSubgraph(false),
		cgraph.WithPartitions(8),
		cgraph.WithIngestBatch(100),
		cgraph.WithIngestWindow(time.Hour),
	)
	if err := sys.LoadEdges(n, base); err != nil {
		t.Fatal(err)
	}
	ops := map[api.MutationOp]cgraph.MutationOp{
		api.MutationRewrite: cgraph.MutationRewrite,
		api.MutationAdd:     cgraph.MutationAdd,
		api.MutationRemove:  cgraph.MutationRemove,
	}
	stream := newDeltaStream(rng, n, base)
	reg := server.DefaultRegistry()
	type pinned struct {
		spec jobSpec
		ts   int64
		job  *cgraph.Job
	}
	var jobs []pinned
	var latest int64
	removes := 0
	for b := 0; b < 60; b++ {
		batch := stream.next(20)
		d := cgraph.Delta{Mutations: make([]cgraph.Mutation, len(batch))}
		for i, m := range batch {
			d.Mutations[i] = cgraph.Mutation{Op: ops[m.op], Slot: m.slot, Edge: m.edge}
			if m.op == api.MutationRemove {
				removes++
			}
		}
		ack, err := sys.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		stream.commit(batch, ack.Flushed, ack.Timestamp)
		if !ack.Flushed {
			continue
		}
		latest = ack.Timestamp
		for _, s := range []jobSpec{{algo: "sssp", source: uint32(b)}, {algo: "bfs", source: 3}, {algo: "wcc"}, {algo: "pagerank"}} {
			prog, err := reg.Build(s.algo, server.ProgramParams{Source: model.VertexID(s.source)})
			if err != nil {
				t.Fatal(err)
			}
			j, err := sys.Submit(prog, cgraph.AtTimestamp(latest))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, pinned{spec: s, ts: latest, job: j})
		}
	}
	if len(stream.flushes) < 10 || removes == 0 {
		t.Fatalf("stream too tame: %d flushes, %d removes", len(stream.flushes), removes)
	}
	if st := sys.IngestStats(); st.Coalesced != 0 || st.RemoveMisses != 0 || st.Cancelled != 0 {
		t.Fatalf("stream was ambiguous: %+v", st)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[int64]bool{}
	for _, p := range jobs {
		want[p.ts] = true
	}
	checked := 0
	stream.snapshots(base, want, func(ts int64, edges []model.Edge) {
		ref := newRefGraph(n, edges)
		for _, p := range jobs {
			if p.ts != ts {
				continue
			}
			got, err := p.job.Results()
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.check(p.spec, got); err != nil {
				t.Errorf("snapshot %d: %v", ts, err)
			}
			checked++
		}
	})
	if checked != len(jobs) {
		t.Fatalf("checked %d of %d pinned jobs", checked, len(jobs))
	}
}
