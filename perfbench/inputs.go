package main

import (
	"math/rand"

	"cgraph/model"
)

// graphShape is one of the repository's Table 1 stand-in shapes. The
// benchmark generates its own edges from the run's seed with the same
// generator families, so a change to the program cannot change the inputs.
type graphShape struct {
	name string
	v, e int
	web  bool
}

var (
	hyperlink14 = graphShape{name: "hyperlink14-sim", v: 10600, e: 400000, web: true}
	twitter     = graphShape{name: "twitter-sim", v: 1050, e: 35000}
	ukunion     = graphShape{name: "ukunion-sim", v: 3350, e: 137500, web: true}
)

// generate draws the shape's edge list from rng: a host-locality web crawl
// (sources advance in crawl order, 85% of links land within a short ID
// distance) or an R-MAT social graph (quadrants 0.57/0.19/0.19). Weights
// are uniform in [1, 10).
func (g graphShape) generate(rng *rand.Rand) []model.Edge {
	if g.web {
		return webEdges(rng, g.v, g.e)
	}
	return rmatEdges(rng, g.v, g.e)
}

func weight(rng *rand.Rand) float32 { return 1 + rng.Float32()*9 }

// nearDst picks a destination near src: the same-host link of a web crawl.
func nearDst(rng *rand.Rand, n, src int) int {
	d := 1 + int(rng.ExpFloat64()*8)
	if rng.Intn(2) == 0 {
		d = -d
	}
	return min(max(src+d, 0), n-1)
}

func webEdges(rng *rand.Rand, n, m int) []model.Edge {
	edges := make([]model.Edge, m)
	for i := range edges {
		src := i * n / m
		dst := rng.Intn(n)
		if rng.Float64() < 0.85 {
			dst = nearDst(rng, n, src)
		}
		edges[i] = model.Edge{Src: model.VertexID(src), Dst: model.VertexID(dst), Weight: weight(rng)}
	}
	return edges
}

func rmatEdges(rng *rand.Rand, n, m int) []model.Edge {
	levels := 0
	for 1<<levels < n {
		levels++
	}
	edges := make([]model.Edge, 0, m)
	for len(edges) < m {
		src, dst := 0, 0
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			switch {
			case r < 0.57:
			case r < 0.76:
				dst |= 1 << l
			case r < 0.95:
				src |= 1 << l
			default:
				src |= 1 << l
				dst |= 1 << l
			}
		}
		if src >= n || dst >= n {
			continue
		}
		edges = append(edges, model.Edge{Src: model.VertexID(src), Dst: model.VertexID(dst), Weight: weight(rng)})
	}
	return edges
}

// jobSpec is one job the benchmark submits: an algorithm name from the
// server registry, its source vertex, and its execution mode.
type jobSpec struct {
	algo   string
	source uint32
	async  bool
}

// batchJobs is the batch-8job mix, the paper's concurrent-jobs scenario.
func batchJobs() []jobSpec {
	return []jobSpec{
		{algo: "pagerank"}, {algo: "ppr", source: 0}, {algo: "sssp", source: 0},
		{algo: "sssp", source: 17}, {algo: "bfs", source: 0}, {algo: "wcc"},
		{algo: "scc"}, {algo: "sswp", source: 0},
	}
}

// jobSchedule deals a workload's jobs from a fixed cycle that interleaves
// the mix as evenly as it can, so every run offers each algorithm at the
// same share and spacing; the seed draws the sources. Every asyncEvery-th
// job runs async, the positions rotating by one each cycle so every
// algorithm gets its share of async jobs. The arrival pattern is fixed
// because a shuffled one makes the overlap of heavy jobs, and with it the
// latency percentiles, vary from run to run far more than any change the
// benchmark should detect.
type jobSchedule struct {
	rng        *rand.Rand
	cycle      []string
	asyncEvery int // 0: no async jobs
	sources    []uint32
	n          int
}

// newJobSchedule interleaves the (count, algorithm) mix by smooth weighted
// round robin. Sources are drawn from the graph's largest strongly
// connected component, so every traversal reaches the same vertices and a
// job's cost does not hinge on its source landing in a dead end.
func newJobSchedule(rng *rand.Rand, n int, edges []model.Edge, asyncEvery int, mix ...any) *jobSchedule {
	type entry struct {
		algo          string
		weight, score int
	}
	var es []*entry
	total := 0
	for i := 0; i < len(mix); i += 2 {
		es = append(es, &entry{algo: mix[i+1].(string), weight: mix[i].(int)})
		total += mix[i].(int)
	}
	s := &jobSchedule{rng: rng, asyncEvery: asyncEvery}
	for range total {
		best := es[0]
		for _, e := range es {
			e.score += e.weight
			if e.score > best.score {
				best = e
			}
		}
		best.score -= total
		s.cycle = append(s.cycle, best.algo)
	}
	s.sources = giantSCC(n, edges)
	return s
}

// giantSCC lists the vertices of the largest strongly connected component.
func giantSCC(n int, edges []model.Edge) []uint32 {
	comp := newRefGraph(n, edges).sccLabels()
	size := map[int32]int{}
	big := comp[0]
	for _, c := range comp {
		if size[c]++; size[c] > size[big] {
			big = c
		}
	}
	var out []uint32
	for v, c := range comp {
		if c == big {
			out = append(out, uint32(v))
		}
	}
	return out
}

func (s *jobSchedule) next() jobSpec {
	i, cycle := s.n%len(s.cycle), s.n/len(s.cycle)
	s.n++
	return jobSpec{
		algo:   s.cycle[i],
		source: s.sources[s.rng.Intn(len(s.sources))],
		async:  s.asyncEvery > 0 && (i+cycle)%s.asyncEvery == 0,
	}
}
