package iptree

import (
	"math"
	"sort"

	"indoorsq/internal/indoor"
	"indoorsq/internal/obs"
	"indoorsq/internal/pq"
	"indoorsq/internal/query"
	"indoorsq/internal/reach"
)

// dvec is a distance-only access-door vector.
type dvec []float64

func infDvec(n int) dvec {
	v := make(dvec, n)
	for i := range v {
		v[i] = math.Inf(1)
	}
	return v
}

func (v dvec) min() float64 {
	m := math.Inf(1)
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}

// nodeCand is a best-first traversal entry: a node with the p-vector over
// its access doors.
type nodeCand struct {
	id  int32
	vec dvec
}

// leafDoorDists runs the within-leaf Dijkstra from p and returns the
// distance from p to each door of the leaf along paths that stay inside.
func (t *Tree) leafDoorDists(L int32, vp indoor.PartitionID, p indoor.Point, st *query.Stats) dvec {
	leaf := &t.nodes[L]
	n := len(leaf.doors)
	dist := infDvec(n)
	done := make([]bool, n)
	for _, d := range t.sp.Partition(vp).Leave {
		if i, ok := leaf.doorIdx[d]; ok {
			if w := t.sp.WithinPointDoor(vp, p, d); w < dist[i] {
				dist[i] = w
			}
		}
	}
	for {
		u, bu := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < bu {
				u, bu = i, dist[i]
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		st.Door()
		if st.Interrupted() != nil {
			break // the caller surfaces the cause; the partial vector is dead
		}
		du := leaf.doors[u]
		for _, v := range t.sp.Door(du).Enterable {
			if t.partLeaf[v] != L {
				continue
			}
			for _, nd := range t.sp.Partition(v).Leave {
				i, ok := leaf.doorIdx[nd]
				if !ok || done[i] {
					continue
				}
				w, hit := t.sp.WithinDoorsCached(v, du, nd)
				st.Cache(hit)
				if cand := bu + w; cand < dist[i] {
					dist[i] = cand
				}
			}
		}
	}
	st.Alloc(int64(n) * 9)
	return dist
}

// homeLeafDoorDists combines the within-leaf Dijkstra with the out-and-back
// access-door routes to yield exact p-to-door distances for p's own leaf.
func (t *Tree) homeLeafDoorDists(L int32, vp indoor.PartitionID, p indoor.Point, pvec dvec, st *query.Stats) dvec {
	leaf := &t.nodes[L]
	pd := t.leafDoorDists(L, vp, p, st)
	na := len(leaf.ad)
	for di := range leaf.doors {
		for ai := 0; ai < na; ai++ {
			if cand := pvec[ai] + leaf.ma2d[ai*len(leaf.doors)+di]; cand < pd[di] {
				pd[di] = cand
			}
		}
	}
	return pd
}

// pDvecLeaf is the distance-only leaf vector.
func (t *Tree) pDvecLeaf(L int32, vp indoor.PartitionID, p indoor.Point, st *query.Stats) dvec {
	leaf := &t.nodes[L]
	vec := infDvec(len(leaf.ad))
	for _, d := range t.sp.Partition(vp).Leave {
		w := t.sp.WithinPointDoor(vp, p, d)
		st.Door()
		for i, a := range leaf.ad {
			if cand := w + leaf.leafD2A(d, a); cand < vec[i] {
				vec[i] = cand
			}
		}
	}
	return vec
}

// liftDvec lifts a distance vector from node cur onto target access doors
// through the parent matrix m of node `via`.
func (t *Tree) liftDvec(vec dvec, cur *node, via *node, targetAD []indoor.DoorID, st *query.Stats) dvec {
	out := infDvec(len(targetAD))
	for j, a2 := range targetAD {
		st.Door()
		for i, a1 := range cur.ad {
			if math.IsInf(vec[i], 1) {
				continue
			}
			if cand := vec[i] + via.mAt(a1, a2); cand < out[j] {
				out[j] = cand
			}
		}
	}
	return out
}

// scanLeafObjects qualifies the objects of leaf L given pd, the exact
// distance from p to every leaf door, offering each to emit. directPart, if
// valid, is p's host partition, whose objects also have the direct
// intra-partition distance.
func (t *Tree) scanLeafObjects(L int32, pd dvec, directPart indoor.PartitionID, p indoor.Point, limit func() float64, emit func(id int32, dist float64)) {
	leaf := &t.nodes[L]
	for _, v := range leaf.parts {
		bucket := t.store.Bucket(v)
		if len(bucket) == 0 {
			continue
		}
		best := make(dvec, len(bucket))
		if v == directPart {
			c := t.sp.Ref(v, p)
			for bi, oi := range bucket {
				best[bi] = t.sp.RefDist(c, t.store.Ref(oi))
			}
		} else {
			for i := range best {
				best[i] = math.Inf(1)
			}
		}
		lim := limit()
		for _, dq := range t.sp.Partition(v).Enter {
			i, ok := leaf.doorIdx[dq]
			if !ok || math.IsInf(pd[i], 1) {
				continue
			}
			// Doors already farther than the pruning limit cannot yield a
			// qualifying object (object dist >= door dist).
			if pd[i] > lim {
				continue
			}
			for bi, oi := range bucket {
				if cand := pd[i] + t.store.DistToDoor(t.sp, oi, dq); cand < best[bi] {
					best[bi] = cand
				}
			}
		}
		for bi, oi := range bucket {
			if !math.IsInf(best[bi], 1) {
				emit(t.store.At(oi).ID, best[bi])
			}
		}
	}
}

// forEachLeafByBound drives the object search shared by Range and KNN:
// it visits leaves in (roughly) increasing lower-bound order, calling
// scanLeafObjects for every leaf whose bound does not exceed limit() at the
// time it is considered. IP-TREE uses best-first tree traversal with
// on-the-fly access-door vector computation; VIP-TREE computes leaf bounds
// directly from its materialized ancestor matrices.
func (t *Tree) forEachLeafByBound(p indoor.Point, st *query.Stats, limit func() float64, emit func(id int32, dist float64)) error {
	endHost := st.Span(obs.StageHost)
	vp, ok := t.sp.HostPartition(p)
	if !ok {
		endHost()
		return query.ErrNoHost
	}
	Lp := t.leafOf(vp)
	endHost()

	// p's own leaf first: exact door distances via Dijkstra + out-and-back.
	endExpand := st.Span(obs.StageExpand)
	pvec := t.pDvecLeaf(Lp, vp, p, st)
	pd := t.homeLeafDoorDists(Lp, vp, p, pvec, st)
	endExpand()
	t.scanLeafObjects(Lp, pd, vp, p, limit, emit)
	st.Alloc(int64(len(pd)) * 8)
	if err := st.Interrupted(); err != nil {
		return err
	}

	// The remaining leaves are reached through precomputed ancestor
	// matrices: an index probe, no Dijkstra.
	endProbe := st.Span(obs.StageProbe)
	defer endProbe()

	// Reachability seed set for subtree skipping (multi-SCC venues only):
	// a leaf none of whose partitions is reachable from p's leaveable
	// doors can only ever produce +Inf object distances.
	var from reach.From
	usePrune := false
	if rc := t.reach; rc != nil && rc.NumSCCs() > 1 {
		from = rc.FromDoors(t.sp.Partition(vp).Leave, nil)
		usePrune = true
	}
	if t.opt.VIP {
		return t.vipLeafSweep(Lp, vp, p, pvec, from, usePrune, st, limit, emit)
	}
	var hits, skips int64
	if usePrune {
		defer func() {
			reach.Metrics.PruneHits.Add(hits)
			reach.Metrics.PruneSkips.Add(skips)
		}()
	}

	// IP-TREE: best-first descent from the siblings of the path to the root.
	var h pq.Heap[nodeCand]
	cur := Lp
	vec := pvec
	for cur != t.root {
		parID := t.nodes[cur].parent
		par := &t.nodes[parID]
		for _, sib := range par.children {
			if sib == cur {
				continue
			}
			svec := t.liftDvec(vec, &t.nodes[cur], par, t.nodes[sib].ad, st)
			// An all-+Inf vector means no door of the sibling subtree is
			// reachable: descending could only generate more +Inf vectors
			// and no emissions, so the subtree is dropped outright.
			if b := svec.min(); !math.IsInf(b, 1) {
				h.Push(nodeCand{id: sib, vec: svec}, b)
			}
		}
		vec = t.liftDvec(vec, &t.nodes[cur], par, par.ad, st)
		cur = parID
	}
	for h.Len() > 0 {
		c, bound := h.Pop()
		if bound > limit() {
			break
		}
		if err := st.Interrupted(); err != nil {
			return err
		}
		n := &t.nodes[c.id]
		if n.leaf {
			if usePrune && !from.AnyPart(n.parts) {
				hits++
				continue
			}
			if usePrune {
				skips++
			}
			// Exact distance to every leaf door through the access doors.
			pd := infDvec(len(n.doors))
			na := len(n.ad)
			for di := range n.doors {
				for ai := 0; ai < na; ai++ {
					if cand := c.vec[ai] + n.ma2d[ai*len(n.doors)+di]; cand < pd[di] {
						pd[di] = cand
					}
				}
			}
			t.scanLeafObjects(c.id, pd, indoor.NoPartition, p, limit, emit)
			continue
		}
		for _, ch := range n.children {
			cvec := t.liftDvec(c.vec, n, n, t.nodes[ch].ad, st)
			if b := cvec.min(); !math.IsInf(b, 1) {
				h.Push(nodeCand{id: ch, vec: cvec}, b)
			}
		}
	}
	st.Alloc(int64(h.Cap()) * 32)
	return nil
}

// vipLeafSweep visits every other leaf ordered by a lower bound computed
// from the VIP materialization: p-side vectors are read straight from p's
// leaf matrices, lifted once through the LCA, and landed on the target
// leaf's ancestor matrices.
func (t *Tree) vipLeafSweep(Lp int32, vp indoor.PartitionID, p indoor.Point, pvecLeaf dvec, from reach.From, usePrune bool, st *query.Stats, limit func() float64, emit func(id int32, dist float64)) error {
	var hits, skips int64
	if usePrune {
		defer func() {
			reach.Metrics.PruneHits.Add(hits)
			reach.Metrics.PruneSkips.Add(skips)
		}()
	}
	// p-side vectors for every node on the path Lp -> root.
	path := []int32{Lp}
	for id := Lp; t.nodes[id].parent >= 0; {
		id = t.nodes[id].parent
		path = append(path, id)
	}
	pvecs := make([]dvec, len(path))
	pvecs[0] = pvecLeaf
	leaf := &t.nodes[Lp]
	for li := 1; li < len(path); li++ {
		anc := &t.nodes[path[li]]
		vec := infDvec(len(anc.ad))
		na := len(anc.ad)
		for _, d := range t.sp.Partition(vp).Leave {
			w := t.sp.WithinPointDoor(vp, p, d)
			di := leaf.doorIdx[d]
			for i := range anc.ad {
				if cand := w + leaf.vipD2A[li-1][int(di)*na+i]; cand < vec[i] {
					vec[i] = cand
				}
			}
		}
		pvecs[li] = vec
		st.Alloc(int64(na) * 8)
	}
	depthIdx := make(map[int32]int, len(path)) // node id -> index in path
	for i, id := range path {
		depthIdx[id] = i
	}

	// First pass: a cheap lower bound per leaf (distance to the leaf's
	// enclosing child-of-LCA access doors), so far-away leaves never pay
	// for full door vectors.
	type leafCand struct {
		id    int32
		cL    int32
		bound float64
		dv    dvec
	}
	var cands []leafCand
	for i := range t.nodes {
		n := &t.nodes[i]
		if !n.leaf || n.id == Lp {
			continue
		}
		if usePrune && !from.AnyPart(n.parts) {
			hits++
			continue
		}
		if usePrune {
			skips++
		}
		lcaID, cp, cL := t.lca(Lp, n.id)
		lcaNode := &t.nodes[lcaID]
		// p-side vector at cp (a path node), lifted once through the LCA
		// matrix onto AD(cL).
		pv := pvecs[depthIdx[cp]]
		cpAD := t.nodes[cp].ad
		cLAD := t.nodes[cL].ad
		dv := infDvec(len(cLAD))
		for j, b := range cLAD {
			st.Door()
			for i2, a := range cpAD {
				if math.IsInf(pv[i2], 1) {
					continue
				}
				if cand := pv[i2] + lcaNode.mAt(a, b); cand < dv[j] {
					dv[j] = cand
				}
			}
		}
		cands = append(cands, leafCand{id: n.id, cL: cL, bound: dv.min(), dv: dv})
		if err := st.Interrupted(); err != nil {
			return err
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].bound < cands[j].bound })
	st.Alloc(int64(len(cands)) * 40)

	// Second pass, in bound order: materialize the exact door vector from
	// the leaf's VIP ancestor matrices only while the bound qualifies.
	for _, c := range cands {
		// A +Inf bound means the leaf's access doors are unreachable, so
		// every object distance would be +Inf too; bounds are sorted, so
		// nothing after it can qualify either.
		if math.IsInf(c.bound, 1) || c.bound > limit() {
			break
		}
		if err := st.Interrupted(); err != nil {
			return err
		}
		n := &t.nodes[c.id]
		pd := infDvec(len(n.doors))
		if c.cL == c.id {
			na := len(n.ad)
			for di := range n.doors {
				for ai := 0; ai < na; ai++ {
					if cand := c.dv[ai] + n.ma2d[ai*len(n.doors)+di]; cand < pd[di] {
						pd[di] = cand
					}
				}
			}
		} else {
			lvl := t.ancestorLevel(c.id, c.cL)
			for di := range n.doors {
				for ai := range c.dv {
					if cand := c.dv[ai] + n.vipA2D[lvl][ai*len(n.doors)+di]; cand < pd[di] {
						pd[di] = cand
					}
				}
			}
		}
		t.scanLeafObjects(c.id, pd, indoor.NoPartition, p, limit, emit)
	}
	return nil
}

// Range implements query.Engine.
func (t *Tree) Range(p indoor.Point, r float64, st *query.Stats) ([]int32, error) {
	res := make(map[int32]struct{})
	err := t.forEachLeafByBound(p, st,
		func() float64 { return r },
		func(id int32, dist float64) {
			if dist <= r {
				res[id] = struct{}{}
			}
		})
	if err != nil {
		return nil, err
	}
	st.Alloc(int64(len(res)) * 8)
	endRefine := st.Span(obs.StageRefine)
	defer endRefine()
	out := make([]int32, 0, len(res))
	for id := range res {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// KNN implements query.Engine.
func (t *Tree) KNN(p indoor.Point, k int, st *query.Stats) ([]query.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	tk := query.NewTopK(k, t.store.Len())
	err := t.forEachLeafByBound(p, st,
		tk.Bound,
		func(id int32, dist float64) { tk.Offer(id, dist) })
	if err != nil {
		return nil, err
	}
	st.Alloc(tk.SizeBytes())
	endRefine := st.Span(obs.StageRefine)
	defer endRefine()
	return tk.Results(), nil
}
