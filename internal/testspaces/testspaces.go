// Package testspaces builds small indoor spaces with hand-computable
// distances, shared by the test suites of every model/index engine.
package testspaces

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"indoorsq/internal/geom"
	"indoorsq/internal/indoor"
)

// Strip is a single-floor space with a straight hallway and seven rooms:
//
//	y=10 +----+----+----+----+
//	     | R1 | R2 | R3 | R4 |
//	y=6  +-d1-+-d2-+-d3-+-d4-+
//	     |       Hall        |
//	y=4  +-d5-+-d6-+----d7---+
//	     | R5 | R6 |   R7    |
//	y=0  +----+-d8>+---------+
//	    x=0   5   10   15   20
//
// All doors are bidirectional except D8, which only allows R6 -> R7.
type Strip struct {
	Space                          *indoor.Space
	Hall                           indoor.PartitionID
	R1, R2, R3, R4, R5, R6, R7     indoor.PartitionID
	D1, D2, D3, D4, D5, D6, D7, D8 indoor.DoorID
}

// NewStrip builds the Strip fixture.
func NewStrip() *Strip {
	b := indoor.NewBuilder("strip", 1)
	f := &Strip{}
	rect := func(x0, y0, x1, y1 float64) geom.Polygon {
		return geom.RectPoly(geom.R(x0, y0, x1, y1))
	}
	f.Hall = b.AddHallway(0, rect(0, 4, 20, 6))
	f.R1 = b.AddRoom(0, rect(0, 6, 5, 10))
	f.R2 = b.AddRoom(0, rect(5, 6, 10, 10))
	f.R3 = b.AddRoom(0, rect(10, 6, 15, 10))
	f.R4 = b.AddRoom(0, rect(15, 6, 20, 10))
	f.R5 = b.AddRoom(0, rect(0, 0, 5, 4))
	f.R6 = b.AddRoom(0, rect(5, 0, 10, 4))
	f.R7 = b.AddRoom(0, rect(10, 0, 20, 4))

	f.D1 = b.AddDoor(geom.Pt(2.5, 6), 0)
	b.ConnectBoth(f.D1, f.Hall, f.R1)
	f.D2 = b.AddDoor(geom.Pt(7.5, 6), 0)
	b.ConnectBoth(f.D2, f.Hall, f.R2)
	f.D3 = b.AddDoor(geom.Pt(12.5, 6), 0)
	b.ConnectBoth(f.D3, f.Hall, f.R3)
	f.D4 = b.AddDoor(geom.Pt(17.5, 6), 0)
	b.ConnectBoth(f.D4, f.Hall, f.R4)
	f.D5 = b.AddDoor(geom.Pt(2.5, 4), 0)
	b.ConnectBoth(f.D5, f.Hall, f.R5)
	f.D6 = b.AddDoor(geom.Pt(7.5, 4), 0)
	b.ConnectBoth(f.D6, f.Hall, f.R6)
	f.D7 = b.AddDoor(geom.Pt(15, 4), 0)
	b.ConnectBoth(f.D7, f.Hall, f.R7)
	f.D8 = b.AddDoor(geom.Pt(10, 2), 0)
	b.ConnectOneWay(f.D8, f.R6, f.R7) // one-way, like d12 in Figure 1

	sp, err := b.Build()
	if err != nil {
		panic(err)
	}
	f.Space = sp
	return f
}

// TwoFloor is a two-floor space: each floor has a hallway with two rooms,
// and a 5 m staircase links the hallways.
//
//	floor 1:  R1a [0,5]x[6,10] -dA1-  Hall1 [0,20]x[4,6]  -dB1- R1b [15,5]...
//	stair:    [20,4]x[22,6], doors at (20,5) on both floors
//	floor 0:  symmetric
type TwoFloor struct {
	Space          *indoor.Space
	Hall0, Hall1   indoor.PartitionID
	RoomA0, RoomB0 indoor.PartitionID
	RoomA1, RoomB1 indoor.PartitionID
	Stair          indoor.PartitionID
	DA0, DB0       indoor.DoorID
	DA1, DB1       indoor.DoorID
	DS0, DS1       indoor.DoorID
}

// NewTwoFloor builds the TwoFloor fixture.
func NewTwoFloor() *TwoFloor {
	b := indoor.NewBuilder("twofloor", 2)
	f := &TwoFloor{}
	rect := func(x0, y0, x1, y1 float64) geom.Polygon {
		return geom.RectPoly(geom.R(x0, y0, x1, y1))
	}
	f.Hall0 = b.AddHallway(0, rect(0, 4, 20, 6))
	f.RoomA0 = b.AddRoom(0, rect(0, 6, 5, 10))
	f.RoomB0 = b.AddRoom(0, rect(15, 6, 20, 10))
	f.Hall1 = b.AddHallway(1, rect(0, 4, 20, 6))
	f.RoomA1 = b.AddRoom(1, rect(0, 6, 5, 10))
	f.RoomB1 = b.AddRoom(1, rect(15, 6, 20, 10))
	f.Stair = b.AddStair(0, 1, rect(20, 4, 22, 6), 5)

	f.DA0 = b.AddDoor(geom.Pt(2.5, 6), 0)
	b.ConnectBoth(f.DA0, f.Hall0, f.RoomA0)
	f.DB0 = b.AddDoor(geom.Pt(17.5, 6), 0)
	b.ConnectBoth(f.DB0, f.Hall0, f.RoomB0)
	f.DA1 = b.AddDoor(geom.Pt(2.5, 6), 1)
	b.ConnectBoth(f.DA1, f.Hall1, f.RoomA1)
	f.DB1 = b.AddDoor(geom.Pt(17.5, 6), 1)
	b.ConnectBoth(f.DB1, f.Hall1, f.RoomB1)
	f.DS0 = b.AddDoor(geom.Pt(20, 5), 0)
	b.ConnectBoth(f.DS0, f.Hall0, f.Stair)
	f.DS1 = b.AddDoor(geom.Pt(20, 5), 1)
	b.ConnectBoth(f.DS1, f.Hall1, f.Stair)

	sp, err := b.Build()
	if err != nil {
		panic(err)
	}
	f.Space = sp
	return f
}

// LHall is a single-floor space whose hallway is a concave L shape, so
// intra-hallway distances require the visibility graph.
//
//	y=8 +--+
//	    |R1|            R1 [0,8]x[2,10] above the vertical arm
//	y=8 +dv+--------+
//	    |  vertical |
//	    |  |        |
//	y=2 |  +--------+   L hallway: [0,0]x[2,8] + [0,0]x[10,2]
//	    |   horizontal  +dh+
//	y=0 +-----------+--------+
//	                 R2 [10,0]x[12,2] right of the horizontal arm
type LHall struct {
	Space  *indoor.Space
	Hall   indoor.PartitionID
	R1, R2 indoor.PartitionID
	DV, DH indoor.DoorID
}

// NewLHall builds the LHall fixture.
func NewLHall() *LHall {
	b := indoor.NewBuilder("lhall", 1)
	f := &LHall{}
	hall := geom.Polygon{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 2),
		geom.Pt(2, 2), geom.Pt(2, 8), geom.Pt(0, 8),
	}
	f.Hall = b.AddHallway(0, hall)
	f.R1 = b.AddRoom(0, geom.RectPoly(geom.R(0, 8, 2, 10)))
	f.R2 = b.AddRoom(0, geom.RectPoly(geom.R(10, 0, 12, 2)))

	f.DV = b.AddDoor(geom.Pt(1, 8), 0)
	b.ConnectBoth(f.DV, f.Hall, f.R1)
	f.DH = b.AddDoor(geom.Pt(10, 1), 0)
	b.ConnectBoth(f.DH, f.Hall, f.R2)

	sp, err := b.Build()
	if err != nil {
		panic(err)
	}
	f.Space = sp
	return f
}

// RandomGrid builds a floors-story space. Each floor is a rows x cols grid
// of 10x10 rooms; neighboring rooms are connected by doors forming a random
// spanning tree plus extra random doors, so every space is connected and
// randomized but valid. A staircase at the east side links consecutive
// floors. With oneWay > 0, approximately that fraction of the extra
// (non-tree) doors are unidirectional.
func RandomGrid(seed int64, rows, cols, floors int, extraDoors int, oneWay float64) *indoor.Space {
	rng := rand.New(rand.NewSource(seed))
	b := indoor.NewBuilder(fmt.Sprintf("grid-%d-%dx%dx%d", seed, rows, cols, floors), floors)

	const cell = 10.0
	part := make([][][]indoor.PartitionID, floors)
	for fl := 0; fl < floors; fl++ {
		part[fl] = make([][]indoor.PartitionID, rows)
		for r := 0; r < rows; r++ {
			part[fl][r] = make([]indoor.PartitionID, cols)
			for c := 0; c < cols; c++ {
				poly := geom.RectPoly(geom.R(
					float64(c)*cell, float64(r)*cell,
					float64(c+1)*cell, float64(r+1)*cell))
				kind := indoor.Room
				if r == 0 {
					kind = indoor.Hallway
				}
				part[fl][r][c] = b.AddPartition(kind, int16(fl), poly)
			}
		}
	}

	doorAt := func(e gridEdge) geom.Point {
		// Midpoint of the shared wall.
		if e.r1 == e.r2 { // horizontal neighbors share a vertical wall
			x := float64(max(e.c1, e.c2)) * cell
			y := float64(e.r1)*cell + cell/2
			return geom.Pt(x, y)
		}
		x := float64(e.c1)*cell + cell/2
		y := float64(max(e.r1, e.r2)) * cell
		return geom.Pt(x, y)
	}

	for fl := 0; fl < floors; fl++ {
		// Spanning tree over the grid cells via randomized DFS.
		visited := make([][]bool, rows)
		for r := range visited {
			visited[r] = make([]bool, cols)
		}
		var treeEdges []gridEdge
		var dfs func(r, c int)
		dfs = func(r, c int) {
			visited[r][c] = true
			dirs := [][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}}
			rng.Shuffle(len(dirs), func(i, j int) { dirs[i], dirs[j] = dirs[j], dirs[i] })
			for _, d := range dirs {
				nr, nc := r+d[0], c+d[1]
				if nr < 0 || nr >= rows || nc < 0 || nc >= cols || visited[nr][nc] {
					continue
				}
				treeEdges = append(treeEdges, gridEdge{fl, r, c, nr, nc})
				dfs(nr, nc)
			}
		}
		dfs(0, 0)
		have := make(map[gridEdge]bool)
		for _, e := range treeEdges {
			d := b.AddDoor(doorAt(e), int16(fl))
			b.ConnectBoth(d, part[fl][e.r1][e.c1], part[fl][e.r2][e.c2])
			have[normEdge(e)] = true
		}
		// Extra doors, possibly unidirectional.
		for i := 0; i < extraDoors; i++ {
			r := rng.Intn(rows)
			c := rng.Intn(cols)
			dirs := [][2]int{{0, 1}, {1, 0}}
			d := dirs[rng.Intn(2)]
			nr, nc := r+d[0], c+d[1]
			if nr >= rows || nc >= cols {
				continue
			}
			e := gridEdge{fl, r, c, nr, nc}
			if have[normEdge(e)] {
				continue
			}
			have[normEdge(e)] = true
			// Offset door along the wall so it does not collide with a
			// tree door at the wall midpoint.
			p := doorAt(e)
			if r == nr {
				p.Y += cell / 4
			} else {
				p.X += cell / 4
			}
			id := b.AddDoor(p, int16(fl))
			if rng.Float64() < oneWay {
				id2 := part[fl][nr][nc]
				b.ConnectOneWay(id, part[fl][r][c], id2)
			} else {
				b.ConnectBoth(id, part[fl][r][c], part[fl][nr][nc])
			}
		}
	}

	// Staircases between consecutive floors at the east of row 0.
	for fl := 0; fl+1 < floors; fl++ {
		x0 := float64(cols) * cell
		poly := geom.RectPoly(geom.R(x0, 0, x0+4, cell))
		st := b.AddStair(int16(fl), int16(fl+1), poly, 6)
		d0 := b.AddDoor(geom.Pt(x0, cell/2), int16(fl))
		b.ConnectBoth(d0, part[fl][0][cols-1], st)
		d1 := b.AddDoor(geom.Pt(x0, cell/2), int16(fl+1))
		b.ConnectBoth(d1, part[fl+1][0][cols-1], st)
	}

	sp, err := b.Build()
	if err != nil {
		panic(err)
	}
	return sp
}

// gridEdge is a shared wall between two grid cells on one floor.
type gridEdge struct {
	fl, r1, c1, r2, c2 int
}

func normEdge(e gridEdge) gridEdge {
	if e.r2 < e.r1 || (e.r2 == e.r1 && e.c2 < e.c1) {
		e.r1, e.c1, e.r2, e.c2 = e.r2, e.c2, e.r1, e.c1
	}
	return e
}

// RandomGridConcave is RandomGrid with the bottom row and left column of
// each floor merged into a single L-shaped (concave) hallway, exercising
// visibility-graph distances in every engine. Extra doors connect rooms to
// their neighbors as in RandomGrid.
func RandomGridConcave(seed int64, rows, cols, floors int, extraDoors int) *indoor.Space {
	rng := rand.New(rand.NewSource(seed))
	b := indoor.NewBuilder(fmt.Sprintf("lgrid-%d-%dx%dx%d", seed, rows, cols, floors), floors)

	const cell = 10.0
	// Rooms occupy cells (r >= 1, c >= 1); the hallway is the L of row 0
	// plus column 0.
	part := make([][][]indoor.PartitionID, floors)
	halls := make([]indoor.PartitionID, floors)
	W := float64(cols) * cell
	H := float64(rows) * cell
	for fl := 0; fl < floors; fl++ {
		hallPoly := geom.Polygon{
			geom.Pt(0, 0), geom.Pt(W, 0), geom.Pt(W, cell),
			geom.Pt(cell, cell), geom.Pt(cell, H), geom.Pt(0, H),
		}
		halls[fl] = b.AddHallway(int16(fl), hallPoly)
		part[fl] = make([][]indoor.PartitionID, rows)
		part[fl][0] = nil
		for r := 1; r < rows; r++ {
			part[fl][r] = make([]indoor.PartitionID, cols)
			for c := 1; c < cols; c++ {
				poly := geom.RectPoly(geom.R(
					float64(c)*cell, float64(r)*cell,
					float64(c+1)*cell, float64(r+1)*cell))
				part[fl][r][c] = b.AddRoom(int16(fl), poly)
			}
		}
		// Every room in row 1 opens onto the hallway's horizontal arm;
		// every room in column 1 onto the vertical arm.
		for c := 1; c < cols; c++ {
			p := geom.Pt(float64(c)*cell+cell/2, cell)
			d := b.AddDoor(p, int16(fl))
			b.ConnectBoth(d, halls[fl], part[fl][1][c])
		}
		for r := 2; r < rows; r++ {
			p := geom.Pt(cell, float64(r)*cell+cell/2)
			d := b.AddDoor(p, int16(fl))
			b.ConnectBoth(d, halls[fl], part[fl][r][1])
		}
		// Room-to-room doors keep interior rooms reachable.
		for r := 1; r < rows; r++ {
			for c := 2; c < cols; c++ {
				if r == 1 && rng.Float64() < 0.3 {
					continue // row-1 rooms already reach the hallway
				}
				p := geom.Pt(float64(c)*cell, float64(r)*cell+cell/2)
				d := b.AddDoor(p, int16(fl))
				b.ConnectBoth(d, part[fl][r][c-1], part[fl][r][c])
			}
		}
		for r := 2; r < rows; r++ {
			for c := 1; c < cols; c++ {
				if c == 1 {
					continue // column-1 rooms already reach the hallway
				}
				if rng.Float64() < 0.5 {
					p := geom.Pt(float64(c)*cell+cell/2, float64(r)*cell)
					d := b.AddDoor(p, int16(fl))
					b.ConnectBoth(d, part[fl][r-1][c], part[fl][r][c])
				}
			}
		}
		_ = extraDoors
	}
	// Staircases off the hallway's east end.
	for fl := 0; fl+1 < floors; fl++ {
		poly := geom.RectPoly(geom.R(W, 0, W+4, cell))
		st := b.AddStair(int16(fl), int16(fl+1), poly, 6)
		d0 := b.AddDoor(geom.Pt(W, cell/2), int16(fl))
		b.ConnectBoth(d0, halls[fl], st)
		d1 := b.AddDoor(geom.Pt(W, cell/2), int16(fl+1))
		b.ConnectBoth(d1, halls[fl+1], st)
	}
	sp, err := b.Build()
	if err != nil {
		panic(err)
	}
	return sp
}

// CloseWing returns a copy of sp in which every door between a partition
// west of the vertical line x = cut and one east of it (by MBR center)
// only lets people walk west to east. No door of the east wing can then
// reach the west block, so the door graph splits into several SCCs and
// every sweep from a wing door leaves the west block unreached. The copy
// round-trips through indoor.EncodeSpace, so partition and door ids are
// unchanged.
func CloseWing(sp *indoor.Space, cut float64) (*indoor.Space, error) {
	var buf bytes.Buffer
	if err := indoor.EncodeSpace(&buf, sp); err != nil {
		return nil, err
	}
	var venue map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &venue); err != nil {
		return nil, err
	}
	var doors []map[string]json.RawMessage
	if err := json.Unmarshal(venue["doors"], &doors); err != nil {
		return nil, err
	}
	type link struct {
		From int32 `json:"from"`
		To   int32 `json:"to"`
	}
	west := func(v int32) bool { return sp.Partition(indoor.PartitionID(v)).MBR.Center().X < cut }
	for _, d := range doors {
		var links []link
		if err := json.Unmarshal(d["links"], &links); err != nil {
			return nil, err
		}
		kept := links[:0]
		crossing := false
		for _, l := range links {
			if west(l.From) == west(l.To) {
				kept = append(kept, l)
				continue
			}
			crossing = true
			if west(l.From) {
				kept = append(kept, l)
			}
		}
		if crossing && len(kept) == 0 {
			// A one-way door from the wing: turn it around.
			kept = append(kept, link{From: links[0].To, To: links[0].From})
		}
		raw, err := json.Marshal(kept)
		if err != nil {
			return nil, err
		}
		d["links"] = raw
	}
	raw, err := json.Marshal(doors)
	if err != nil {
		return nil, err
	}
	venue["doors"] = raw
	if raw, err = json.Marshal(venue); err != nil {
		return nil, err
	}
	return indoor.DecodeSpace(bytes.NewReader(raw))
}
