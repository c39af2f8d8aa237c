package main

import (
	"math/rand"

	"cgraph/api"
	"cgraph/model"
)

// mutation is one streamed edge mutation, as sent and as mirrored.
type mutation struct {
	op   api.MutationOp
	slot int
	edge model.Edge
}

func pairOf(e model.Edge) uint64 { return uint64(e.Src)<<32 | uint64(e.Dst) }

// flushPoint ties a snapshot timestamp from an ack to the mirror's log:
// the snapshot holds exactly the first logLen mutations.
type flushPoint struct {
	ts     int64
	logLen int
}

// deltaStream generates serve-evolving's mutation batches and mirrors the
// edge multiset the service holds after every acknowledged batch. The
// stream is built so that the multiset alone determines every snapshot,
// whatever slot placement and coalescing the service does:
//   - no coalescing key (rewritten slot, added or removed pair) repeats
//     within a flush window, so nothing coalesces;
//   - adds use fresh pairs, absent from the multiset, so a live added pair
//     has exactly one edge;
//   - removes take only pairs that were added and already flushed;
//   - rewrites touch only base slots and never write a live added pair, so
//     a remove can only ever match the added edge.
type deltaStream struct {
	rng *rand.Rand
	n   int
	// slots are the base slots with rewrites applied; count is the live
	// multiplicity of every (src, dst) pair; added holds the live added
	// edges by pair.
	slots []model.Edge
	count map[uint64]int32
	added map[uint64]model.Edge
	// removable lists flushed added pairs (pos indexes it); unflushed the
	// pairs added in the open flush window.
	removable []uint64
	pos       map[uint64]int
	unflushed []uint64
	// winSlots and winPairs are the coalescing keys used in the open
	// flush window.
	winSlots map[int]bool
	winPairs map[uint64]bool

	log     []mutation
	flushes []flushPoint
}

func newDeltaStream(rng *rand.Rand, n int, base []model.Edge) *deltaStream {
	d := &deltaStream{
		rng:      rng,
		n:        n,
		slots:    append([]model.Edge(nil), base...),
		count:    make(map[uint64]int32, len(base)),
		added:    map[uint64]model.Edge{},
		pos:      map[uint64]int{},
		winSlots: map[int]bool{},
		winPairs: map[uint64]bool{},
	}
	for _, e := range base {
		d.count[pairOf(e)]++
	}
	return d
}

// next draws one batch of size mutations from the mirror's current state
// without changing it: a clustered run of base-slot rewrites (about half
// the batch, so a flush touches few partitions), then removes of flushed
// added pairs and adds of fresh pairs in equal measure.
func (d *deltaStream) next(size int) []mutation {
	batch := make([]mutation, 0, size)
	pairs := map[uint64]bool{}
	usable := func(p uint64) bool { return !d.winPairs[p] && !pairs[p] }
	start := d.rng.Intn(len(d.slots))
	for i := 0; len(batch) < size/2 && i < len(d.slots); i++ {
		slot := (start + i) % len(d.slots)
		if d.winSlots[slot] {
			continue
		}
		src := d.rng.Intn(d.n)
		e := model.Edge{Src: model.VertexID(src), Dst: model.VertexID(nearDst(d.rng, d.n, src)), Weight: weight(d.rng)}
		p := pairOf(e)
		if _, live := d.added[p]; live || !usable(p) {
			continue
		}
		pairs[p] = true
		batch = append(batch, mutation{op: api.MutationRewrite, slot: slot, edge: e})
	}
	removes := (size - len(batch)) / 2
	for tries := 0; removes > 0 && tries < 4*size && len(d.removable) > 0; tries++ {
		p := d.removable[d.rng.Intn(len(d.removable))]
		if !usable(p) {
			continue
		}
		pairs[p] = true
		removes--
		batch = append(batch, mutation{op: api.MutationRemove, edge: d.added[p]})
	}
	for len(batch) < size {
		e := model.Edge{Src: model.VertexID(d.rng.Intn(d.n)), Dst: model.VertexID(d.rng.Intn(d.n)), Weight: weight(d.rng)}
		p := pairOf(e)
		if d.count[p] != 0 || !usable(p) {
			continue
		}
		pairs[p] = true
		batch = append(batch, mutation{op: api.MutationAdd, edge: e})
	}
	return batch
}

// commit mirrors an acknowledged batch; flushed and ts come from its ack.
func (d *deltaStream) commit(batch []mutation, flushed bool, ts int64) {
	for _, m := range batch {
		d.apply(m)
		d.log = append(d.log, m)
	}
	if flushed {
		d.flush(ts)
	}
}

func (d *deltaStream) apply(m mutation) {
	p := pairOf(m.edge)
	switch m.op {
	case api.MutationRewrite:
		d.count[pairOf(d.slots[m.slot])]--
		d.slots[m.slot] = m.edge
		d.count[p]++
		d.winSlots[m.slot] = true
	case api.MutationAdd:
		d.count[p]++
		d.added[p] = m.edge
		d.unflushed = append(d.unflushed, p)
		d.winPairs[p] = true
	case api.MutationRemove:
		d.count[p]--
		delete(d.added, p)
		i := d.pos[p]
		last := d.removable[len(d.removable)-1]
		d.removable[i], d.pos[last] = last, i
		d.removable = d.removable[:len(d.removable)-1]
		delete(d.pos, p)
		d.winPairs[p] = true
	}
}

// flush closes the window: its adds become removable.
func (d *deltaStream) flush(ts int64) {
	for _, p := range d.unflushed {
		d.pos[p] = len(d.removable)
		d.removable = append(d.removable, p)
	}
	d.unflushed = d.unflushed[:0]
	clear(d.winSlots)
	clear(d.winPairs)
	d.flushes = append(d.flushes, flushPoint{ts: ts, logLen: len(d.log)})
}

// edges materializes the mirrored multiset.
func (d *deltaStream) edges() []model.Edge {
	out := make([]model.Edge, 0, len(d.slots)+len(d.added))
	out = append(out, d.slots...)
	for _, e := range d.added {
		out = append(out, e)
	}
	return out
}

// snapshots replays the log of a finished stream from base and calls fn
// with the edge multiset of every flushed snapshot in want (and of the base,
// timestamp 0, if wanted), in timestamp order.
func (d *deltaStream) snapshots(base []model.Edge, want map[int64]bool, fn func(ts int64, edges []model.Edge)) {
	r := newDeltaStream(nil, d.n, base)
	if want[0] {
		fn(0, r.edges())
	}
	for _, f := range d.flushes {
		for len(r.log) < f.logLen {
			m := d.log[len(r.log)]
			r.apply(m)
			r.log = append(r.log, m)
		}
		r.flush(f.ts)
		if want[f.ts] {
			fn(f.ts, r.edges())
		}
	}
}
