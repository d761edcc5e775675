// Package iptree implements IP-TREE and VIP-TREE (Shao et al., VLDB 2016;
// Sec. 3.4 of the paper): a tree over topologically adjacent indoor
// partitions. Each leaf groups adjacent partitions with at most one
// "crucial" partition (door count exceeding the γ threshold, Sec. 5.3);
// adjacent nodes merge hierarchically into a root. Every node carries a
// distance matrix over its access doors — the border doors connecting it to
// the rest of the space:
//
//   - a leaf stores the distances (and first-hop information) between every
//     door of the leaf and every access door of the leaf;
//   - a non-leaf stores the distances between every pair of its children's
//     access doors;
//   - VIP-TREE additionally materializes, per leaf, the distances between
//     every leaf door and every access door of all its ancestors, which
//     turns shortest-distance queries into O(ρ²) lookups.
//
// Distances honour door directionality, so each matrix stores both
// directions (doubling storage, as the paper notes).
package iptree

import (
	"fmt"
	"math"
	"sort"

	"indoorsq/internal/doorgraph"
	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/reach"
)

// Options configure tree construction.
type Options struct {
	// Gamma is the crucial-partition threshold: a partition is crucial when
	// it has more than Gamma doors. Values <= 0 default to 6.
	Gamma int
	// LeafSize is the maximum number of partitions per leaf (default 8).
	LeafSize int
	// Fanout is the maximum number of children per non-leaf node; the
	// minimum children degree is 2, as suggested by the paper (default 4).
	Fanout int
	// VIP enables the VIP-TREE leaf materialization.
	VIP bool
}

func (o Options) withDefaults() Options {
	if o.Gamma <= 0 {
		o.Gamma = 6
	}
	if o.LeafSize <= 0 {
		o.LeafSize = 8
	}
	if o.Fanout < 2 {
		o.Fanout = 4
	}
	return o
}

// node is one IP-tree node.
type node struct {
	id       int32
	parent   int32 // -1 at the root
	children []int32
	depth    int32 // root = 0

	// ad is the node's access-door set; adIdx maps door id -> position.
	ad    []indoor.DoorID
	adIdx map[indoor.DoorID]int32

	// Leaf fields.
	leaf    bool
	parts   []indoor.PartitionID
	doors   []indoor.DoorID
	doorIdx map[indoor.DoorID]int32
	// md2a[d*len(ad)+a]: global shortest dist door d -> access door a.
	// ma2d[a*len(doors)+d]: access door a -> door d.
	md2a, ma2d []float64
	// vipD2A[lvl], vipA2D[lvl]: as md2a/ma2d but against the access doors of
	// the ancestor at distance lvl+1 above the leaf (VIP-TREE only).
	vipD2A, vipA2D [][]float64

	// Non-leaf fields: uad is the union of the children's access doors and
	// m the square matrix of pairwise distances (row -> col).
	uad    []indoor.DoorID
	uadIdx map[indoor.DoorID]int32
	m      []float64
}

// route holds the path-reconstruction tables of one access door a:
// next[d] is the door after d on the shortest path d -> a;
// prev[d] is the door before d on the shortest path a -> d.
type route struct {
	next, prev []int32
}

// Tree is the IP-TREE (or VIP-TREE) engine.
type Tree struct {
	sp       *indoor.Space
	opt      Options
	nodes    []node
	root     int32
	partLeaf []int32 // partition id -> leaf node id
	routes   map[indoor.DoorID]*route
	store    *query.ObjectStore

	// reach condenses the same door graph the matrices were swept from, so
	// "summary says unreachable" coincides exactly with "matrix entry is
	// +Inf"; SetReach(nil) disables pruning.
	reach *reach.Reach

	size int64
}

// New builds an IP-TREE (or VIP-TREE when opt.VIP is set) over a space.
func New(sp *indoor.Space, opt Options) *Tree {
	t := &Tree{sp: sp, opt: opt.withDefaults()}
	t.buildLeaves()
	t.buildHierarchy()
	t.computeAccessDoors()
	t.fillMatrices()
	t.accountSize()
	return t
}

// Name implements query.Engine.
func (t *Tree) Name() string {
	if t.opt.VIP {
		return "VIPTree"
	}
	return "IPTree"
}

// SetObjects implements query.Engine.
func (t *Tree) SetObjects(objs []query.Object) {
	t.store = query.NewObjectStore(t.sp, objs)
}

// SizeBytes implements query.Engine.
func (t *Tree) SizeBytes() int64 { return t.size }

// NumLeaves returns the number of leaf nodes.
func (t *Tree) NumLeaves() int {
	n := 0
	for i := range t.nodes {
		if t.nodes[i].leaf {
			n++
		}
	}
	return n
}

// Depth returns the tree depth (root = 1).
func (t *Tree) Depth() int {
	max := int32(0)
	for i := range t.nodes {
		if t.nodes[i].depth > max {
			max = t.nodes[i].depth
		}
	}
	return int(max) + 1
}

// crucial reports whether partition v is crucial under γ.
func (t *Tree) crucial(v indoor.PartitionID) bool {
	return len(t.sp.Partition(v).Doors) > t.opt.Gamma
}

// partNeighbors returns the partitions adjacent to v through any door.
func (t *Tree) partNeighbors(v indoor.PartitionID) []indoor.PartitionID {
	var out []indoor.PartitionID
	seen := map[indoor.PartitionID]bool{v: true}
	for _, d := range t.sp.Partition(v).Doors {
		for _, u := range t.sp.Door(d).Parts {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}

// buildLeaves groups topologically adjacent partitions into leaves with at
// most one crucial partition each, seeding from crucial partitions first.
func (t *Tree) buildLeaves() {
	np := t.sp.NumPartitions()
	t.partLeaf = make([]int32, np)
	for i := range t.partLeaf {
		t.partLeaf[i] = -1
	}

	var seeds []indoor.PartitionID
	for v := 0; v < np; v++ {
		if t.crucial(indoor.PartitionID(v)) {
			seeds = append(seeds, indoor.PartitionID(v))
		}
	}
	for v := 0; v < np; v++ {
		if !t.crucial(indoor.PartitionID(v)) {
			seeds = append(seeds, indoor.PartitionID(v))
		}
	}

	for _, seed := range seeds {
		if t.partLeaf[seed] >= 0 {
			continue
		}
		id := int32(len(t.nodes))
		group := []indoor.PartitionID{seed}
		t.partLeaf[seed] = id
		hasCrucial := t.crucial(seed)
		// BFS growth.
		for qi := 0; qi < len(group) && len(group) < t.opt.LeafSize; qi++ {
			for _, nb := range t.partNeighbors(group[qi]) {
				if len(group) >= t.opt.LeafSize {
					break
				}
				if t.partLeaf[nb] >= 0 {
					continue
				}
				if t.crucial(nb) {
					if hasCrucial {
						continue
					}
					hasCrucial = true
				}
				t.partLeaf[nb] = id
				group = append(group, nb)
			}
		}
		t.nodes = append(t.nodes, node{id: id, parent: -1, leaf: true, parts: group})
	}

	// Leaf door lists.
	for i := range t.nodes {
		l := &t.nodes[i]
		l.doorIdx = make(map[indoor.DoorID]int32)
		for _, v := range l.parts {
			for _, d := range t.sp.Partition(v).Doors {
				if _, ok := l.doorIdx[d]; !ok {
					l.doorIdx[d] = int32(len(l.doors))
					l.doors = append(l.doors, d)
				}
			}
		}
	}
}

// buildHierarchy merges adjacent nodes level by level until a root forms.
func (t *Tree) buildHierarchy() {
	current := make([]int32, 0, len(t.nodes))
	for i := range t.nodes {
		current = append(current, t.nodes[i].id)
	}
	for len(current) > 1 {
		owner := make(map[int32]bool, len(current))
		for _, id := range current {
			owner[id] = true
		}
		// Node adjacency at this level.
		partOwner := t.levelOwner(current)
		adj := make(map[int32]map[int32]bool, len(current))
		for di := 0; di < t.sp.NumDoors(); di++ {
			parts := t.sp.Door(indoor.DoorID(di)).Parts
			if len(parts) != 2 {
				continue
			}
			a, b := partOwner[parts[0]], partOwner[parts[1]]
			if a == b {
				continue
			}
			if adj[a] == nil {
				adj[a] = make(map[int32]bool)
			}
			if adj[b] == nil {
				adj[b] = make(map[int32]bool)
			}
			adj[a][b] = true
			adj[b][a] = true
		}

		// Sorted neighbor lists: iterating the adjacency maps directly
		// would make the tree shape depend on Go's randomized map order,
		// i.e. differ between two builds of the same space.
		nbs := make(map[int32][]int32, len(adj))
		for id, set := range adj {
			l := make([]int32, 0, len(set))
			for nb := range set {
				l = append(l, nb)
			}
			sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
			nbs[id] = l
		}

		assigned := make(map[int32]int32, len(current)) // node -> parent
		var parents []int32
		for _, seed := range current {
			if _, ok := assigned[seed]; ok {
				continue
			}
			pid := int32(len(t.nodes))
			group := []int32{seed}
			assigned[seed] = pid
			for qi := 0; qi < len(group) && len(group) < t.opt.Fanout; qi++ {
				for _, nb := range nbs[group[qi]] {
					if len(group) >= t.opt.Fanout {
						break
					}
					if _, ok := assigned[nb]; ok {
						continue
					}
					assigned[nb] = pid
					group = append(group, nb)
				}
			}
			if len(group) == 1 {
				// A singleton cannot form a parent: attach it to an
				// adjacent, already-formed parent to keep degree >= 2.
				attached := false
				for _, nb := range nbs[seed] {
					if ppid, ok := assigned[nb]; ok && ppid != pid {
						assigned[seed] = ppid
						t.nodes[seed].parent = ppid
						t.nodes[ppid].children = append(t.nodes[ppid].children, seed)
						attached = true
						break
					}
				}
				if attached {
					continue
				}
				// Disconnected component: promote as its own parent chain.
			}
			t.nodes = append(t.nodes, node{id: pid, parent: -1, children: group})
			for _, c := range group {
				t.nodes[c].parent = pid
			}
			parents = append(parents, pid)
		}
		if len(parents) >= len(current) {
			panic(fmt.Sprintf("iptree: hierarchy not shrinking (%d -> %d)", len(current), len(parents)))
		}
		current = parents
	}
	t.root = current[0]
	// Depths.
	var setDepth func(id, d int32)
	setDepth = func(id, d int32) {
		t.nodes[id].depth = d
		for _, c := range t.nodes[id].children {
			setDepth(c, d+1)
		}
	}
	setDepth(t.root, 0)
}

// levelOwner maps every partition to its owning node among `current`.
func (t *Tree) levelOwner(current []int32) []int32 {
	cur := make(map[int32]bool, len(current))
	for _, id := range current {
		cur[id] = true
	}
	out := make([]int32, len(t.partLeaf))
	for p, leaf := range t.partLeaf {
		id := leaf
		for !cur[id] {
			id = t.nodes[id].parent
		}
		out[p] = id
	}
	return out
}

// computeAccessDoors fills ad/adIdx for every node: the doors whose two
// partitions straddle the node boundary, i.e. the nodes whose subtree holds
// exactly one of the door's partitions. Those are the nodes on the two
// leaf-to-root chains of the door's partitions below their lowest common
// ancestor, so one walk up from both leaves per door finds them, in
// O(doors x depth) for the whole tree. Doors are visited in ascending id,
// so every node's ad ascends too.
func (t *Tree) computeAccessDoors() {
	for i := range t.nodes {
		t.nodes[i].adIdx = make(map[indoor.DoorID]int32)
	}
	add := func(id int32, d indoor.DoorID) {
		n := &t.nodes[id]
		n.adIdx[d] = int32(len(n.ad))
		n.ad = append(n.ad, d)
	}
	for di := 0; di < t.sp.NumDoors(); di++ {
		d := indoor.DoorID(di)
		parts := t.sp.Door(d).Parts
		if len(parts) != 2 {
			continue
		}
		a, b := t.partLeaf[parts[0]], t.partLeaf[parts[1]]
		for a != b {
			if t.nodes[a].depth >= t.nodes[b].depth {
				add(a, d)
				a = t.nodes[a].parent
			} else {
				add(b, d)
				b = t.nodes[b].parent
			}
		}
	}
	// Union access-door sets for non-leaf nodes.
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.leaf {
			continue
		}
		n.uadIdx = make(map[indoor.DoorID]int32)
		for _, c := range n.children {
			for _, a := range t.nodes[c].ad {
				if _, ok := n.uadIdx[a]; !ok {
					n.uadIdx[a] = int32(len(n.uad))
					n.uad = append(n.uad, a)
				}
			}
		}
	}
}

// ancestors returns the ancestor chain of a node, nearest first.
func (t *Tree) ancestors(id int32) []int32 {
	var out []int32
	for p := t.nodes[id].parent; p >= 0; p = t.nodes[p].parent {
		out = append(out, p)
	}
	return out
}

// fillMatrices runs two Dijkstras per distinct access door over the door
// graph and populates every node matrix, the VIP materialization, and the
// path-reconstruction routing tables.
func (t *Tree) fillMatrices() {
	dg := doorgraph.Build(t.sp)
	t.reach = reach.FromGraph(dg, t.sp)

	// Every door that appears as an access door anywhere.
	need := make(map[indoor.DoorID]bool)
	for i := range t.nodes {
		for _, a := range t.nodes[i].ad {
			need[a] = true
		}
	}

	// Allocate matrices.
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.leaf {
			n.md2a = make([]float64, len(n.doors)*len(n.ad))
			n.ma2d = make([]float64, len(n.ad)*len(n.doors))
			if t.opt.VIP {
				anc := t.ancestors(n.id)
				n.vipD2A = make([][]float64, len(anc))
				n.vipA2D = make([][]float64, len(anc))
				for li, aid := range anc {
					na := len(t.nodes[aid].ad)
					n.vipD2A[li] = make([]float64, len(n.doors)*na)
					n.vipA2D[li] = make([]float64, na*len(n.doors))
				}
			}
		} else {
			n.m = make([]float64, len(n.uad)*len(n.uad))
		}
	}

	// One forward and one reverse Dijkstra per distinct access door, in
	// parallel: each door owns disjoint matrix rows/columns (leaf matrices
	// are indexed by the door's own position; non-leaf rows by the door),
	// so workers never write the same element.
	doors := make([]indoor.DoorID, 0, len(need))
	for a := range need {
		doors = append(doors, a)
	}
	sort.Slice(doors, func(i, j int) bool { return doors[i] < doors[j] })
	routesArr := make([]*route, len(doors))

	// Chunked index ranges instead of one channel op per door; each chunk
	// writes matrix rows owned by its doors only, so any worker count
	// produces identical matrices.
	exec.Chunks(len(doors), func(lo, hi int) {
		// Two pooled scratches per chunk: the forward and reverse
		// sweeps of one door must be readable at the same time while
		// the matrices are filled.
		sFwd := dg.AcquireScratch()
		defer dg.ReleaseScratch(sFwd)
		sRev := dg.AcquireScratch()
		defer dg.ReleaseScratch(sRev)
		for ji := lo; ji < hi; ji++ {
			a := doors[ji]
			sFwd.Run(dg, int32(a), false) // a -> d
			sRev.Run(dg, int32(a), true)  // d -> a
			// The routing tables outlive the scratch; copy them out.
			r := &route{next: make([]int32, dg.N), prev: make([]int32, dg.N)}
			sRev.CopyPrev(r.next)
			sFwd.CopyPrev(r.prev)
			routesArr[ji] = r

			for i := range t.nodes {
				n := &t.nodes[i]
				if n.leaf {
					if ai, ok := n.adIdx[a]; ok {
						na := len(n.ad)
						for dIdx, d := range n.doors {
							n.md2a[dIdx*na+int(ai)] = sRev.DistAt(int(d))
							n.ma2d[int(ai)*len(n.doors)+dIdx] = sFwd.DistAt(int(d))
						}
					}
					if t.opt.VIP {
						for li, aid := range t.ancestors(n.id) {
							anc := &t.nodes[aid]
							if ai, ok := anc.adIdx[a]; ok {
								na := len(anc.ad)
								for dIdx, d := range n.doors {
									n.vipD2A[li][dIdx*na+int(ai)] = sRev.DistAt(int(d))
									n.vipA2D[li][int(ai)*len(n.doors)+dIdx] = sFwd.DistAt(int(d))
								}
							}
						}
					}
				} else if ri, ok := n.uadIdx[a]; ok {
					// Row a -> every uad door; the reverse direction is
					// covered by that door's own worker writing its row.
					nu := len(n.uad)
					for ci, c := range n.uad {
						n.m[int(ri)*nu+ci] = sFwd.DistAt(int(c))
					}
				}
			}
		}
	})

	t.routes = make(map[indoor.DoorID]*route, len(doors))
	for ji, a := range doors {
		t.routes[a] = routesArr[ji]
	}
}

func (t *Tree) accountSize() {
	var sz int64
	for i := range t.nodes {
		n := &t.nodes[i]
		sz += 96
		sz += int64(len(n.children))*4 + int64(len(n.ad))*8
		sz += int64(len(n.md2a)+len(n.ma2d)+len(n.m)) * 8
		sz += int64(len(n.doors)) * 8
		sz += int64(len(n.uad)) * 8
		for li := range n.vipD2A {
			sz += int64(len(n.vipD2A[li])+len(n.vipA2D[li])) * 8
		}
	}
	for _, r := range t.routes {
		sz += int64(len(r.next)+len(r.prev)) * 4
	}
	sz += int64(len(t.partLeaf)) * 4
	sz += t.sp.BaseSizeBytes() + t.sp.GeomSizeBytes()
	sz += t.reach.SizeBytes()
	t.size = sz
}

// Reach returns the tree's reachability summary (nil after SetReach(nil)).
func (t *Tree) Reach() *reach.Reach { return t.reach }

// SetReach swaps the reachability summary used to prune query processing
// (nil disables pruning — an ablation knob). Results are bit-identical
// either way.
func (t *Tree) SetReach(r *reach.Reach) { t.reach = r }

// leafOf returns the leaf node id hosting partition v.
func (t *Tree) leafOf(v indoor.PartitionID) int32 { return t.partLeaf[v] }

// lca returns the lowest common ancestor of nodes x and y, plus the children
// of the LCA on each side (cx on x's side, cy on y's side). When x == y the
// LCA is x itself and cx = cy = x.
func (t *Tree) lca(x, y int32) (lca, cx, cy int32) {
	for t.nodes[x].depth > t.nodes[y].depth {
		x = t.nodes[x].parent
	}
	for t.nodes[y].depth > t.nodes[x].depth {
		y = t.nodes[y].parent
	}
	if x == y {
		return x, x, y
	}
	for t.nodes[x].parent != t.nodes[y].parent {
		x = t.nodes[x].parent
		y = t.nodes[y].parent
	}
	return t.nodes[x].parent, x, y
}

// mAt looks up the non-leaf matrix entry from door a to door b in node n.
func (n *node) mAt(a, b indoor.DoorID) float64 {
	i, ok := n.uadIdx[a]
	if !ok {
		return math.Inf(1)
	}
	j, ok := n.uadIdx[b]
	if !ok {
		return math.Inf(1)
	}
	return n.m[int(i)*len(n.uad)+int(j)]
}

// leafD2A returns the global distance from leaf door d to access door a.
func (n *node) leafD2A(d, a indoor.DoorID) float64 {
	di, ok := n.doorIdx[d]
	if !ok {
		return math.Inf(1)
	}
	ai, ok := n.adIdx[a]
	if !ok {
		return math.Inf(1)
	}
	return n.md2a[int(di)*len(n.ad)+int(ai)]
}

// leafA2D returns the global distance from access door a to leaf door d.
func (n *node) leafA2D(a, d indoor.DoorID) float64 {
	di, ok := n.doorIdx[d]
	if !ok {
		return math.Inf(1)
	}
	ai, ok := n.adIdx[a]
	if !ok {
		return math.Inf(1)
	}
	return n.ma2d[int(ai)*len(n.doors)+int(di)]
}

// ensureStore lazily creates an empty object store.
func (t *Tree) ensureStore() *query.ObjectStore {
	if t.store == nil {
		t.store = query.NewObjectStore(t.sp, nil)
	}
	return t.store
}

// InsertObject implements query.ObjectUpdater.
func (t *Tree) InsertObject(o query.Object) bool {
	return t.ensureStore().Insert(t.sp, o)
}

// DeleteObject implements query.ObjectUpdater.
func (t *Tree) DeleteObject(id int32) bool {
	return t.ensureStore().Delete(id)
}

// MoveObject implements query.ObjectUpdater.
func (t *Tree) MoveObject(id int32, loc indoor.Point, part indoor.PartitionID) bool {
	return t.ensureStore().Move(t.sp, id, loc, part)
}
