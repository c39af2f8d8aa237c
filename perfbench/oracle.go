package main

import (
	"container/heap"
	"fmt"
	"math"

	"cgraph/algo"
	"cgraph/model"
)

// refGraph is the oracle's view of one graph version: the edge multiset a
// job read, in CSR form, with reference results cached per job kind.
type refGraph struct {
	n      int
	edges  []model.Edge
	off    []int32 // CSR offsets into dst/w by source
	dst    []int32
	w      []float32
	outDeg []int32
	cache  map[jobSpec][]float64
	scc    []int32
}

func newRefGraph(n int, edges []model.Edge) *refGraph {
	g := &refGraph{n: n, edges: edges, off: make([]int32, n+1), outDeg: make([]int32, n), cache: map[jobSpec][]float64{}}
	for _, e := range edges {
		g.outDeg[e.Src]++
	}
	for v := 0; v < n; v++ {
		g.off[v+1] = g.off[v] + g.outDeg[v]
	}
	g.dst = make([]int32, len(edges))
	g.w = make([]float32, len(edges))
	next := append([]int32(nil), g.off[:n]...)
	for _, e := range edges {
		i := next[e.Src]
		next[e.Src]++
		g.dst[i], g.w[i] = int32(e.Dst), e.Weight
	}
	return g
}

// check compares one job's converged values against the reference.
//   - SSSP, BFS, SSWP and WCC must match exactly. WCC labels every vertex
//     with the minimum ID of its weak component, so a vertex without edges
//     carries its own ID.
//   - SCC must induce the same grouping of vertices into components.
//   - PageRank and PPR must be fixed points within the program's ε: at
//     every vertex, rank − ((1−d)·restart + d·Σ_in rank(u)/outdeg(u))
//     stays within ε plus float rounding of that sum.
func (g *refGraph) check(s jobSpec, got []float64) error {
	if len(got) != g.n {
		return fmt.Errorf("%s: %d values for %d vertices", s.algo, len(got), g.n)
	}
	switch s.algo {
	case "pagerank":
		p := algo.NewPageRank()
		return g.checkRank(got, p.Damping, p.Epsilon, -1)
	case "ppr":
		p := algo.NewPPR(model.VertexID(s.source))
		return g.checkRank(got, p.Damping, p.Epsilon, int(s.source))
	case "scc":
		return g.checkSCC(got)
	}
	want := g.reference(s)
	for v, x := range got {
		if x != want[v] {
			return fmt.Errorf("%s(%d): vertex %d = %v, want %v", s.algo, s.source, v, x, want[v])
		}
	}
	return nil
}

// reference returns the exact result of an SSSP, BFS, SSWP or WCC job.
func (g *refGraph) reference(s jobSpec) []float64 {
	key := jobSpec{algo: s.algo, source: s.source}
	if s.algo == "wcc" {
		key.source = 0
	}
	if r, ok := g.cache[key]; ok {
		return r
	}
	var r []float64
	switch s.algo {
	case "sssp":
		r = g.dijkstra(s.source, func(d float64, w float32) float64 { return d + float64(w) }, false)
	case "bfs":
		r = g.dijkstra(s.source, func(d float64, _ float32) float64 { return d + 1 }, false)
	case "sswp":
		r = g.dijkstra(s.source, func(d float64, w float32) float64 { return math.Min(d, float64(w)) }, true)
	case "wcc":
		r = g.wcc()
	default:
		panic("perfbench: no exact reference for " + s.algo)
	}
	g.cache[key] = r
	return r
}

type item struct {
	v int32
	d float64
}

type itemHeap struct {
	items []item
	max   bool
}

func (h *itemHeap) Len() int { return len(h.items) }
func (h *itemHeap) Less(i, j int) bool {
	if h.max {
		return h.items[i].d > h.items[j].d
	}
	return h.items[i].d < h.items[j].d
}
func (h *itemHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *itemHeap) Push(x any)    { h.items = append(h.items, x.(item)) }
func (h *itemHeap) Pop() any {
	it := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return it
}

// dijkstra is label-setting search from src with the given path extension:
// shortest paths (min, sums) or, with widest set, widest paths (max,
// bottlenecks). Unreached vertices keep the programs' initial values: +Inf
// for shortest paths, 0 for widest paths.
func (g *refGraph) dijkstra(src uint32, extend func(float64, float32) float64, widest bool) []float64 {
	dist := make([]float64, g.n)
	better := func(a, b float64) bool { return a < b }
	start, unreached := 0.0, math.Inf(1)
	if widest {
		better = func(a, b float64) bool { return a > b }
		start, unreached = math.Inf(1), 0
	}
	for i := range dist {
		dist[i] = unreached
	}
	dist[src] = start
	h := &itemHeap{max: widest, items: []item{{v: int32(src), d: start}}}
	for h.Len() > 0 {
		it := heap.Pop(h).(item)
		if it.d != dist[it.v] {
			continue
		}
		for i := g.off[it.v]; i < g.off[it.v+1]; i++ {
			u := g.dst[i]
			if d := extend(it.d, g.w[i]); better(d, dist[u]) {
				dist[u] = d
				heap.Push(h, item{v: u, d: d})
			}
		}
	}
	return dist
}

// wcc labels each vertex with the minimum vertex ID of its weak component.
func (g *refGraph) wcc() []float64 {
	parent := make([]int32, g.n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range g.edges {
		a, b := find(int32(e.Src)), find(int32(e.Dst))
		if a < b {
			parent[b] = a
		} else if b < a {
			parent[a] = b
		}
	}
	out := make([]float64, g.n)
	for v := range out {
		out[v] = float64(find(int32(v)))
	}
	return out
}

// checkRank verifies a delta-accumulative PageRank (restart < 0) or PPR
// result is a fixed point within eps.
func (g *refGraph) checkRank(rank []float64, d, eps float64, restart int) error {
	in := make([]float64, g.n)
	mag := make([]float64, g.n)
	for _, e := range g.edges {
		c := d * rank[e.Src] / float64(g.outDeg[e.Src])
		in[e.Dst] += c
		mag[e.Dst] += math.Abs(c)
	}
	for v := range rank {
		base := 0.0
		if restart < 0 || v == restart {
			base = 1 - d
		}
		res := math.Abs(rank[v] - base - in[v])
		// Summation order differs from the engine's; allow the rounding
		// of a sum of this magnitude, far below eps.
		if tol := eps + 1e-12*(1+mag[v]+math.Abs(rank[v])); !(res <= tol) {
			return fmt.Errorf("rank(restart %d): vertex %d residual %.3g exceeds ε %.3g", restart, v, res, eps)
		}
	}
	return nil
}

// checkSCC compares strongly connected components by grouping: two
// vertices share an engine label exactly when they share a reference one.
func (g *refGraph) checkSCC(got []float64) error {
	ref := g.sccLabels()
	fwd := map[float64]int32{}
	back := map[int32]float64{}
	for v, x := range got {
		r := ref[v]
		if y, ok := fwd[x]; ok && y != r {
			return fmt.Errorf("scc: vertex %d grouped with component %d, want %d", v, y, r)
		}
		if y, ok := back[r]; ok && y != x {
			return fmt.Errorf("scc: vertex %d labelled %v, its component is labelled %v", v, x, y)
		}
		fwd[x], back[r] = r, x
	}
	return nil
}

// sccLabels is iterative Tarjan: each vertex gets its component's index.
func (g *refGraph) sccLabels() []int32 {
	if g.scc != nil {
		return g.scc
	}
	const unvisited = -1
	index := make([]int32, g.n)
	low := make([]int32, g.n)
	comp := make([]int32, g.n)
	onStack := make([]bool, g.n)
	for i := range index {
		index[i], comp[i] = unvisited, unvisited
	}
	var stack []int32
	type frame struct{ v, edge int32 }
	var calls []frame
	next, ncomp := int32(0), int32(0)
	for root := 0; root < g.n; root++ {
		if index[root] != unvisited {
			continue
		}
		calls = append(calls[:0], frame{v: int32(root), edge: g.off[root]})
		index[root], low[root] = next, next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(calls) > 0 {
			f := &calls[len(calls)-1]
			v := f.v
			if f.edge < g.off[v+1] {
				u := g.dst[f.edge]
				f.edge++
				if index[u] == unvisited {
					index[u], low[u] = next, next
					next++
					stack = append(stack, u)
					onStack[u] = true
					calls = append(calls, frame{v: u, edge: g.off[u]})
				} else if onStack[u] {
					low[v] = min(low[v], index[u])
				}
				continue
			}
			if low[v] == index[v] {
				for {
					u := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[u] = false
					comp[u] = ncomp
					if u == v {
						break
					}
				}
				ncomp++
			}
			calls = calls[:len(calls)-1]
			if len(calls) > 0 {
				p := calls[len(calls)-1].v
				low[p] = min(low[p], low[v])
			}
		}
	}
	g.scc = comp
	return comp
}

// perturb returns a copy of a verified result with one vertex changed in a
// way every check must reject; the benchmark runs it against each kind of
// job it verifies, so an oracle that accepts anything fails the run.
func (g *refGraph) perturb(s jobSpec, got []float64) []float64 {
	bad := append([]float64(nil), got...)
	v := int(s.source) % g.n
	switch s.algo {
	case "pagerank", "ppr":
		bad[v] += 0.01 + 0.01*math.Abs(bad[v])
	case "scc":
		// Split the vertex off its component with a label no vertex ID
		// uses, or, when it is alone, merge it into another component.
		ref := g.sccLabels()
		bad[v] = -1
		alone := true
		for u := range bad {
			if u != v && ref[u] == ref[v] {
				alone = false
			}
		}
		for u := range bad {
			if alone && ref[u] != ref[v] {
				bad[v] = bad[u]
				break
			}
		}
	default:
		if math.IsInf(bad[v], 0) {
			bad[v] = 0
		} else {
			bad[v]++
		}
	}
	return bad
}

// selfTest checks that the oracle rejects a one-vertex perturbation of a
// result it accepted.
func (g *refGraph) selfTest(s jobSpec, got []float64) error {
	if err := g.check(s, g.perturb(s, got)); err == nil {
		return fmt.Errorf("oracle self-test: a perturbed %s result passed", s.algo)
	}
	return nil
}
