package iptree

import (
	"fmt"
	"sort"

	"indoorsq/internal/indoor"
	"indoorsq/internal/reach"
	"indoorsq/internal/snapshot"
)

// AppendTo writes the full materialization — tree shape, access-door sets,
// every node matrix, the VIP per-leaf ancestor matrices, and the
// path-reconstruction routing tables — under the given tag (TagIPTree or
// TagVIPTree; one snapshot can carry both trees side by side). Routing
// tables are emitted in ascending door order, mirroring the deterministic
// construction order.
func (t *Tree) AppendTo(w *snapshot.Writer, tag uint32) {
	sec := w.Begin(tag)
	sec.I64(int64(t.opt.Gamma))
	sec.I64(int64(t.opt.LeafSize))
	sec.I64(int64(t.opt.Fanout))
	sec.Bool(t.opt.VIP)
	sec.I64(0) // v1 slot of the retired construction worker count; always 0
	sec.I64(int64(t.root))
	sec.I32s(t.partLeaf)
	sec.U64(uint64(len(t.nodes)))
	for i := range t.nodes {
		n := &t.nodes[i]
		sec.I64(int64(n.parent))
		sec.I64(int64(n.depth))
		sec.I32s(n.children)
		sec.I32s(doorsToI32(n.ad))
		sec.Bool(n.leaf)
		if n.leaf {
			sec.I32s(partsToI32(n.parts))
			sec.I32s(doorsToI32(n.doors))
			sec.F64s(n.md2a)
			sec.F64s(n.ma2d)
			sec.U64(uint64(len(n.vipD2A)))
			for li := range n.vipD2A {
				sec.F64s(n.vipD2A[li])
				sec.F64s(n.vipA2D[li])
			}
		} else {
			sec.I32s(doorsToI32(n.uad))
			sec.F64s(n.m)
		}
	}
	routeDoors := make([]indoor.DoorID, 0, len(t.routes))
	for d := range t.routes {
		routeDoors = append(routeDoors, d)
	}
	sort.Slice(routeDoors, func(i, j int) bool { return routeDoors[i] < routeDoors[j] })
	sec.U64(uint64(len(routeDoors)))
	for _, d := range routeDoors {
		r := t.routes[d]
		sec.I64(int64(d))
		sec.I32s(r.next)
		sec.I32s(r.prev)
	}
}

// LoadFrom reconstructs the engine from the given tag's section over an
// already-loaded space, adopting rch (typically the snapshot's FromGraph
// summary). This skips the expensive pass entirely — two Dijkstra sweeps per
// distinct access door; the matrices and routing tables may alias the
// snapshot buffer, and only the lookup maps are rebuilt.
func LoadFrom(r *snapshot.Reader, tag uint32, sp *indoor.Space, rch *reach.Reach) (*Tree, error) {
	sec, err := r.Section(tag)
	if err != nil {
		return nil, err
	}
	t := &Tree{sp: sp}
	t.opt.Gamma = int(sec.I64())
	t.opt.LeafSize = int(sec.I64())
	t.opt.Fanout = int(sec.I64())
	t.opt.VIP = sec.Bool()
	sec.I64() // retired v1 slot (see AppendTo)
	t.root = int32(sec.I64())
	t.partLeaf = sec.I32s()
	numNodes := sec.Int()
	if err := sec.Err(); err != nil {
		return nil, err
	}
	if len(t.partLeaf) != sp.NumPartitions() {
		return nil, fmt.Errorf("iptree: snapshot partition map sized %d, want %d", len(t.partLeaf), sp.NumPartitions())
	}
	if numNodes <= 0 || int(t.root) >= numNodes {
		return nil, fmt.Errorf("iptree: snapshot has %d nodes, root %d", numNodes, t.root)
	}
	nd := sp.NumDoors()
	t.nodes = make([]node, numNodes)
	for i := range t.nodes {
		n := &t.nodes[i]
		n.id = int32(i)
		n.parent = int32(sec.I64())
		n.depth = int32(sec.I64())
		n.children = sec.I32s()
		n.ad = i32ToDoors(sec.I32s())
		n.leaf = sec.Bool()
		n.adIdx = make(map[indoor.DoorID]int32, len(n.ad))
		for j, a := range n.ad {
			n.adIdx[a] = int32(j)
		}
		if n.leaf {
			n.parts = i32ToParts(sec.I32s())
			n.doors = i32ToDoors(sec.I32s())
			n.md2a = sec.F64s()
			n.ma2d = sec.F64s()
			nvip := sec.Int()
			if sec.Err() != nil {
				break
			}
			if nvip < 0 || nvip > numNodes {
				return nil, fmt.Errorf("iptree: snapshot node %d has %d VIP levels", i, nvip)
			}
			if nvip > 0 {
				n.vipD2A = make([][]float64, nvip)
				n.vipA2D = make([][]float64, nvip)
				for li := 0; li < nvip; li++ {
					n.vipD2A[li] = sec.F64s()
					n.vipA2D[li] = sec.F64s()
				}
			}
			n.doorIdx = make(map[indoor.DoorID]int32, len(n.doors))
			for j, d := range n.doors {
				n.doorIdx[d] = int32(j)
			}
			if len(n.md2a) != len(n.doors)*len(n.ad) || len(n.ma2d) != len(n.md2a) {
				return nil, fmt.Errorf("iptree: snapshot leaf %d matrices sized %d/%d, want %d", i, len(n.md2a), len(n.ma2d), len(n.doors)*len(n.ad))
			}
		} else {
			n.uad = i32ToDoors(sec.I32s())
			n.m = sec.F64s()
			n.uadIdx = make(map[indoor.DoorID]int32, len(n.uad))
			for j, a := range n.uad {
				n.uadIdx[a] = int32(j)
			}
			if len(n.m) != len(n.uad)*len(n.uad) {
				return nil, fmt.Errorf("iptree: snapshot node %d matrix sized %d, want %d^2", i, len(n.m), len(n.uad))
			}
		}
	}
	numRoutes := sec.Int()
	if err := sec.Err(); err != nil {
		return nil, err
	}
	if numRoutes < 0 || numRoutes > nd {
		return nil, fmt.Errorf("iptree: snapshot has %d routes for %d doors", numRoutes, nd)
	}
	t.routes = make(map[indoor.DoorID]*route, numRoutes)
	for ri := 0; ri < numRoutes; ri++ {
		d := indoor.DoorID(sec.I64())
		rt := &route{next: sec.I32s(), prev: sec.I32s()}
		if sec.Err() != nil {
			break
		}
		if int(d) < 0 || int(d) >= nd || len(rt.next) != nd || len(rt.prev) != nd {
			return nil, fmt.Errorf("iptree: snapshot route %d corrupt", ri)
		}
		t.routes[d] = rt
	}
	if err := sec.Err(); err != nil {
		return nil, err
	}
	// Structural sanity over the loaded shape (cheap; matrices are guarded
	// by the section CRC and the sizes checked above).
	for i := range t.nodes {
		n := &t.nodes[i]
		if int(n.parent) >= numNodes || (n.parent < 0 && int32(i) != t.root) {
			return nil, fmt.Errorf("iptree: snapshot node %d has parent %d", i, n.parent)
		}
		for _, c := range n.children {
			if int(c) < 0 || int(c) >= numNodes {
				return nil, fmt.Errorf("iptree: snapshot node %d has child %d", i, c)
			}
		}
	}
	for _, l := range t.partLeaf {
		if int(l) < 0 || int(l) >= numNodes || !t.nodes[l].leaf {
			return nil, fmt.Errorf("iptree: snapshot maps a partition to non-leaf %d", l)
		}
	}
	t.reach = rch
	t.accountSize()
	return t, nil
}

func doorsToI32(v []indoor.DoorID) []int32 {
	out := make([]int32, len(v))
	for i, d := range v {
		out[i] = int32(d)
	}
	return out
}

func i32ToDoors(v []int32) []indoor.DoorID {
	out := make([]indoor.DoorID, len(v))
	for i, d := range v {
		out[i] = indoor.DoorID(d)
	}
	return out
}

func partsToI32(v []indoor.PartitionID) []int32 {
	out := make([]int32, len(v))
	for i, p := range v {
		out[i] = int32(p)
	}
	return out
}

func i32ToParts(v []int32) []indoor.PartitionID {
	out := make([]indoor.PartitionID, len(v))
	for i, p := range v {
		out[i] = indoor.PartitionID(p)
	}
	return out
}
