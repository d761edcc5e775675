// Package doorgraph builds the directed door connectivity graph of an
// indoor space — nodes are doors, and an edge d -> d' with weight
// fd2d(v, d, d') exists when one can enter partition v through d and leave
// it through d' — and runs single-source Dijkstra in either direction.
// It is the construction-time substrate of IDINDEX and IP/VIP-TREE.
//
// Both directions are stored in compressed-sparse-row, struct-of-arrays
// form: a row-offset array plus flat target and weight arrays. Compared to
// the earlier [][]Edge slice-of-slices this removes one pointer chase per
// row, drops the 4 padding bytes of every 16-byte Edge (12 payload bytes per
// edge), and lays all edges out contiguously in source-door order, so a
// Dijkstra sweep scans memory forward instead of hopping between per-row
// heap allocations. Three flat arrays per direction are also exactly the
// shape a snapshot codec can write and mmap back without pointer fixups.
//
// Dijkstra state (distance, predecessor and first-hop arrays plus the
// frontier heap) lives in a reusable Scratch managed by a per-graph
// sync.Pool, so repeated sweeps — one per door during index construction —
// allocate nothing and reset in O(doors touched) rather than O(N).
package doorgraph

import (
	"math"

	"sync"

	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
)

// csr is one direction's adjacency in compressed-sparse-row form: the
// neighbors of door d are to[off[d]:off[d+1]] with weights at the same
// positions of w.
type csr struct {
	off []int32 // len N+1, ascending; off[N] == len(to)
	to  []int32
	w   []float64
}

// Graph is the door graph with forward and reverse CSR adjacency.
type Graph struct {
	N   int
	fwd csr // edges leaving each door
	rev csr // reversed edges (for distances *to* a door)

	scratch sync.Pool // *Scratch sized for N
}

// chunkRows is one build chunk's forward rows, buffered in final edge order:
// doors [lo, hi) contributed rowLen[di-lo] edges each, laid out back to back
// in to/w. Because chunk contents depend only on the doors they cover, the
// assembled CSR arrays are byte-identical for every worker count.
type chunkRows struct {
	lo, hi int
	rowLen []int32
	to     []int32
	w      []float64
}

// Build derives the door graph of a space over GOMAXPROCS workers; the
// result is identical to a sequential build. One chunked parallel pass
// computes every edge weight exactly once, buffering each chunk's rows in
// final order; row lengths are then prefix-summed into the offset array
// and the buffers copied into the flat CSR arrays — no per-row append
// growth on the final arrays and, more importantly, a single
// distance-cache lookup per edge (a separate counting pass would double
// them, and at 10^5 doors the lookups dominate the build). The reverse
// adjacency is then derived from the forward rows in ascending source-door
// order, preserving the historical edge order exactly.
func Build(sp *indoor.Space) *Graph {
	n := sp.NumDoors()
	g := &Graph{N: n}

	// Pass 1: enumerate and weigh every forward edge, chunk-buffered.
	var mu sync.Mutex
	var chunks []chunkRows
	exec.Chunks(n, func(lo, hi int) {
		b := chunkRows{lo: lo, hi: hi, rowLen: make([]int32, hi-lo)}
		for di := lo; di < hi; di++ {
			d := indoor.DoorID(di)
			var cnt int32
			for _, v := range sp.Door(d).Enterable {
				for _, nd := range sp.Partition(v).Leave {
					if nd == d {
						continue
					}
					w, _ := sp.WithinDoorsCached(v, d, nd)
					if math.IsInf(w, 1) {
						continue
					}
					b.to = append(b.to, int32(nd))
					b.w = append(b.w, w)
					cnt++
				}
			}
			b.rowLen[di-lo] = cnt
		}
		mu.Lock()
		chunks = append(chunks, b)
		mu.Unlock()
	})

	// Exact prefix sum over the buffered row lengths.
	off := make([]int32, n+1)
	for _, b := range chunks {
		for i, c := range b.rowLen {
			off[b.lo+i+1] = c
		}
	}
	var total int64
	for i := 0; i < n; i++ {
		total += int64(off[i+1])
		if total > math.MaxInt32 {
			panic("doorgraph: edge count overflows int32 CSR offsets")
		}
		off[i+1] = int32(total)
	}
	m := int(total)
	g.fwd = csr{off: off, to: make([]int32, m), w: make([]float64, m)}

	// Pass 2: each chunk's buffer is its doors' rows in final order, so
	// assembly is one contiguous copy per array per chunk.
	for _, b := range chunks {
		copy(g.fwd.to[off[b.lo]:off[b.hi]], b.to)
		copy(g.fwd.w[off[b.lo]:off[b.hi]], b.w)
	}

	// Reverse adjacency, derived deterministically: scanning sources in
	// ascending order writes each rev row in exactly the order the old
	// sequential build appended it.
	roff := make([]int32, n+1)
	for _, t := range g.fwd.to {
		roff[t+1]++
	}
	for i := 0; i < n; i++ {
		roff[i+1] += roff[i]
	}
	g.rev = csr{off: roff, to: make([]int32, m), w: make([]float64, m)}
	pos := make([]int32, n)
	copy(pos, roff[:n])
	for di := 0; di < n; di++ {
		for i := off[di]; i < off[di+1]; i++ {
			t := g.fwd.to[i]
			p := pos[t]
			pos[t] = p + 1
			g.rev.to[p] = int32(di)
			g.rev.w[p] = g.fwd.w[i]
		}
	}

	Metrics.Doors.Store(int64(n))
	Metrics.Edges.Store(int64(m))
	Metrics.Bytes.Store(g.SizeBytes())
	return g
}

// NumEdges returns the number of directed edges (counted once; the reverse
// adjacency mirrors the same edge set).
func (g *Graph) NumEdges() int { return len(g.fwd.to) }

// FwdRow returns door d's outgoing edges as parallel target/weight slices.
// The slices alias the graph's CSR arrays and must not be modified.
func (g *Graph) FwdRow(d int) (to []int32, w []float64) {
	lo, hi := g.fwd.off[d], g.fwd.off[d+1]
	return g.fwd.to[lo:hi], g.fwd.w[lo:hi]
}

// RevRow returns the reversed edges into door d (sources and weights of the
// forward edges pointing at d), in ascending source order.
func (g *Graph) RevRow(d int) (to []int32, w []float64) {
	lo, hi := g.rev.off[d], g.rev.off[d+1]
	return g.rev.to[lo:hi], g.rev.w[lo:hi]
}

// SizeBytes returns the exact CSR footprint: two offset arrays of N+1
// int32s and, per direction, one int32 target plus one float64 weight per
// edge. There are no per-row slice headers to estimate.
func (g *Graph) SizeBytes() int64 {
	m := int64(len(g.fwd.to))
	offs := int64(len(g.fwd.off) + len(g.rev.off))
	return offs*4 + 2*m*(4+8)
}

// Dijkstra computes single-source shortest distances over the door graph.
// With reverse = false, dist[t] is the distance from src to t and prev[t]
// is t's predecessor on that path. With reverse = true, dist[t] is the
// distance from t to src and prev[t] is t's successor on that path.
// Unreachable doors have dist +Inf and prev -1.
//
// The unreached encoding is exact, not approximate: the sweep stamps a
// door's scratch record only on a strict distance improvement, so a door no
// finite-weight path reaches is never stamped, and CopyDist/CopyPrev
// synthesize exactly +Inf / -1 for it. Consumers may therefore treat
// dist[t] == +Inf as "no path" with no epsilon, and reachability summaries
// (internal/reach) built from the same CSR agree bit-for-bit with these
// matrices. TestUnreachedEncoding pins this contract.
//
// The returned slices are freshly allocated; construction loops that sweep
// many sources should use AcquireScratch and Scratch.Run instead.
func (g *Graph) Dijkstra(src int32, reverse bool) (dist []float64, prev []int32) {
	s := g.AcquireScratch()
	defer g.ReleaseScratch(s)
	s.Run(g, src, reverse)
	dist = make([]float64, g.N)
	prev = make([]int32, g.N)
	s.CopyDist(dist)
	s.CopyPrev(prev)
	return dist, prev
}
