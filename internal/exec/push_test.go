package exec

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cgraph/algo"
	"cgraph/internal/bitset"
	"cgraph/internal/graph"
	"cgraph/internal/storage"
	"cgraph/model"
)

// pushReference is the map + sort.Slice Push the counting-sort version
// replaced, kept as the parity oracle: the same gather, SortD by (master
// partition, vertex), master set and write-back, with every working set
// allocated per call.
func (j *Job) pushReference() PushSummary {
	ident := j.Prog.Identity()
	pg := j.PG

	type entry struct {
		v          model.VertexID
		masterPart int32
		delta      float64
	}
	var entries []entry
	touched := make(map[int]bool)
	type pv struct {
		part  int32
		local uint32
	}
	masterSeen := make(map[pv]bool)
	var masters []pv

	for pid := range pg.Parts {
		states := j.PT.States[pid]
		j.PT.Received[pid].Range(func(li int) bool {
			if states[li].Delta == ident {
				return true
			}
			touched[pid] = true
			if pg.IsMaster(pid, uint32(li)) {
				key := pv{int32(pid), uint32(li)}
				if !masterSeen[key] {
					masterSeen[key] = true
					masters = append(masters, key)
				}
				return true
			}
			entries = append(entries, entry{
				v:          pg.Parts[pid].Globals[li],
				masterPart: pg.MasterPart(pid, uint32(li)),
				delta:      states[li].Delta,
			})
			states[li].Delta = ident
			return true
		})
	}

	sort.Slice(entries, func(a, b int) bool {
		if entries[a].masterPart != entries[b].masterPart {
			return entries[a].masterPart < entries[b].masterPart
		}
		return entries[a].v < entries[b].v
	})

	for _, e := range entries {
		m := pg.MasterOf[e.v]
		st := &j.PT.States[m.Part][m.Local]
		st.Delta = j.Prog.Acc(st.Delta, e.delta)
		touched[int(m.Part)] = true
		key := pv{m.Part, m.Local}
		if !masterSeen[key] {
			masterSeen[key] = true
			masters = append(masters, key)
		}
	}

	sort.Slice(masters, func(a, b int) bool {
		if masters[a].part != masters[b].part {
			return masters[a].part < masters[b].part
		}
		return masters[a].local < masters[b].local
	})

	for _, m := range masters {
		st := &j.PT.States[m.part][m.local]
		if st.Delta == ident || !j.Prog.IsActive(*st) {
			continue
		}
		v := pg.Parts[m.part].Globals[m.local]
		final := st.Delta
		for _, loc := range pg.ReplicaLocations(v) {
			j.PT.States[loc.Part][loc.Local].Delta = final
			j.PT.Next[loc.Part].Set(int(loc.Local))
			touched[int(loc.Part)] = true
		}
	}

	sum := PushSummary{Entries: int64(len(entries))}
	for pid := range touched {
		sum.TouchedParts = append(sum.TouchedParts, pid)
	}
	sort.Ints(sum.TouchedParts)
	j.SyncEntries += sum.Entries
	return sum
}

// registryPrograms builds one of every program the service registry
// exposes, sourced at src; fresh per call (SCC and HITS keep job-private
// bookkeeping). sum reports whether the accumulator adds floats, so
// results may differ in the last bits with the fold order.
func registryPrograms(src model.VertexID) []struct {
	prog model.Program
	sum  bool
} {
	return []struct {
		prog model.Program
		sum  bool
	}{
		{algo.NewPageRank(), true},
		{algo.NewPPR(src), true},
		{algo.NewSSSP(src), false},
		{algo.NewBFS(src), false},
		{algo.NewSSWP(src), false},
		{algo.NewWCC(), false},
		{algo.NewSCC(), false},
		{algo.NewKCore(2), true},
		{algo.NewDegree(), true},
		{algo.NewHITS(), true},
		{algo.NewKatz(), true},
	}
}

// randomCut draws a small random graph and vertex-cuts it.
func randomCut(t *testing.T, seed int64, parts int) *graph.PGraph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 40 + rng.Intn(60)
	m := 3*n + rng.Intn(4*n)
	edges := make([]model.Edge, m)
	for i := range edges {
		edges[i] = model.Edge{
			Src:    model.VertexID(rng.Intn(n)),
			Dst:    model.VertexID(rng.Intn(n)),
			Weight: float32(1 + rng.Intn(9)),
		}
	}
	return buildPG(t, edges, n, parts)
}

// clonePT copies the state Push reads and writes: vertex states and the
// Received and Next sets.
func clonePT(pt *storage.PrivateTable) *storage.PrivateTable {
	c := *pt
	c.States = make([][]model.State, len(pt.States))
	c.Received = make([]*bitset.Set, len(pt.Received))
	c.Next = make([]*bitset.Set, len(pt.Next))
	for pid := range pt.States {
		c.States[pid] = append([]model.State(nil), pt.States[pid]...)
		c.Received[pid] = bitset.New(pt.Received[pid].Cap())
		c.Received[pid].CopyFrom(pt.Received[pid])
		c.Next[pid] = bitset.New(pt.Next[pid].Cap())
		c.Next[pid].CopyFrom(pt.Next[pid])
	}
	return &c
}

// closeWithParity is FinishIteration with every push checked: the
// reference push runs on a clone of the pre-push table, and the two
// outcomes are compared before the job advances. It returns the number of
// pushes checked.
func closeWithParity(t *testing.T, j *Job, sumProg bool) int {
	t.Helper()
	if j.Mode == ModeDelayed {
		if _, skipped := j.closeIterationDelayed(); skipped {
			return 0
		}
	}
	ref := &Job{Prog: j.Prog, PG: j.PG, PT: clonePT(j.PT)}
	want := ref.pushReference()
	got := j.Push()

	name := j.Prog.Name()
	if got.Entries != want.Entries {
		t.Fatalf("%s iter %d: Entries %d, reference %d", name, j.Iterations, got.Entries, want.Entries)
	}
	if len(got.TouchedParts) != len(want.TouchedParts) {
		t.Fatalf("%s iter %d: TouchedParts %v, reference %v", name, j.Iterations, got.TouchedParts, want.TouchedParts)
	}
	for i := range got.TouchedParts {
		if got.TouchedParts[i] != want.TouchedParts[i] {
			t.Fatalf("%s iter %d: TouchedParts %v, reference %v", name, j.Iterations, got.TouchedParts, want.TouchedParts)
		}
	}
	for pid := range j.PG.Parts {
		if j.push.masters[pid].Any() || j.push.touched[pid] {
			t.Fatalf("%s iter %d: partition %d push flags not cleared", name, j.Iterations, pid)
		}
		n := j.PG.Parts[pid].NumVertices()
		for li := 0; li < n; li++ {
			if g, w := j.PT.Next[pid].Test(li), ref.PT.Next[pid].Test(li); g != w {
				t.Fatalf("%s iter %d: Next[%d][%d] = %v, reference %v", name, j.Iterations, pid, li, g, w)
			}
			gs, ws := j.PT.States[pid][li], ref.PT.States[pid][li]
			if !stateMatch(gs.Value, ws.Value, sumProg) || !stateMatch(gs.Delta, ws.Delta, sumProg) {
				t.Fatalf("%s iter %d: state[%d][%d] = %+v, reference %+v", name, j.Iterations, pid, li, gs, ws)
			}
		}
	}

	j.PT.Advance()
	j.Iterations++
	if !j.PT.HasActive() {
		j.advancePhaseOrFinish()
	}
	return 1
}

// stateMatch is exact equality for min/max programs and 1e-12 relative
// agreement for sum programs, whose master folds may reassociate.
func stateMatch(got, want float64, sumProg bool) bool {
	if got == want || (math.IsNaN(got) && math.IsNaN(want)) {
		return true
	}
	if !sumProg || math.IsInf(got, 0) || math.IsInf(want, 0) {
		return false
	}
	return math.Abs(got-want) <= 1e-12*math.Max(math.Abs(got), math.Abs(want))
}

// TestPushMatchesReference runs every registry program to convergence on
// random cut graphs of 1, 4 and 16 partitions, on the BSP path and in
// delayed mode (whose forced barriers push parked deltas), checking each
// push against pushReference.
func TestPushMatchesReference(t *testing.T) {
	for _, parts := range []int{1, 4, 16} {
		for seed := int64(1); seed <= 3; seed++ {
			pg := randomCut(t, seed*31+int64(parts), parts)
			for _, mode := range []Mode{ModeBSP, ModeDelayed} {
				for _, p := range registryPrograms(model.VertexID(seed)) {
					j := NewJob(0, p.prog, pg)
					j.Mode = mode
					j.Staleness = 2
					sc := &Scratch{}
					pushes := 0
					for r := 0; r < 5000 && !j.Done; r++ {
						for pid := range pg.Parts {
							if j.PT.ActiveCount[pid] == 0 {
								continue
							}
							if mode == ModeBSP {
								j.ProcessPartition(pid, sc)
							} else {
								j.ProcessPartitionFresh(pid, sc)
							}
						}
						pushes += closeWithParity(t, j, p.sum)
					}
					if !j.Done {
						t.Fatalf("%s parts=%d seed=%d %s: did not converge", p.prog.Name(), parts, seed, mode)
					}
					if pushes == 0 {
						t.Fatalf("%s parts=%d seed=%d %s: no push checked", p.prog.Name(), parts, seed, mode)
					}
					if err := j.CheckReplicaConsistency(); err != nil {
						t.Fatalf("%s parts=%d seed=%d %s: %v", p.prog.Name(), parts, seed, mode, err)
					}
				}
			}
		}
	}
}

// TestPushSteadyStateAllocatesNothing pins the job-owned Push buffers: once
// a first call has sized them, pushing the same pre-push table again
// allocates nothing.
func TestPushSteadyStateAllocatesNothing(t *testing.T) {
	edges, n := testGraph(21)
	pg := buildPG(t, edges, n, 8)
	j := NewJob(0, algo.NewPageRank(), pg)
	sc := &Scratch{}
	for pid := range pg.Parts {
		j.ProcessPartition(pid, sc)
	}
	saved := clonePT(j.PT)
	restore := func() {
		for pid := range pg.Parts {
			copy(j.PT.States[pid], saved.States[pid])
			j.PT.Next[pid].CopyFrom(saved.Next[pid])
		}
	}
	if sum := j.Push(); sum.Entries == 0 {
		t.Fatal("multi-partition PageRank must produce sync entries")
	}
	allocs := testing.AllocsPerRun(20, func() {
		restore()
		j.Push()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push allocated %.1f times per call, want 0", allocs)
	}
}
