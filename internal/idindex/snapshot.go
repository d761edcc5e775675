package idindex

import (
	"fmt"

	"indoorsq/internal/indoor"
	"indoorsq/internal/reach"
	"indoorsq/internal/snapshot"
)

// AppendTo writes the three matrices (distance, order index, first hop) as
// the TagIDIndex section — the single most expensive structure the snapshot
// spares a replica from rebuilding (n full-graph Dijkstra sweeps). The
// section keeps the slot layout of the format that could also carry a
// float32 distance matrix, so artifacts stay byte-identical: the width flag
// is always true (float64), and the float32 array after the float64 matrix
// is empty.
func (ix *Index) AppendTo(w *snapshot.Writer) {
	sec := w.Begin(snapshot.TagIDIndex)
	sec.U64(uint64(ix.n))
	sec.Bool(true)
	sec.F64s(ix.d2d)
	sec.F32s(nil)
	sec.I32s(ix.idx)
	sec.I32s(ix.fh)
}

// LoadFrom reconstructs the engine from the TagIDIndex section over an
// already-loaded space, adopting rch (typically the snapshot's own
// FromGraph summary) as the pruning summary. Matrices may alias the snapshot
// buffer. The caller is responsible for the space fingerprint check; sizes
// are still validated here. A section holding a float32 distance matrix is
// rejected: only float64 matrices are served.
func LoadFrom(r *snapshot.Reader, sp *indoor.Space, rch *reach.Reach) (*Index, error) {
	sec, err := r.Section(snapshot.TagIDIndex)
	if err != nil {
		return nil, err
	}
	ix := &Index{sp: sp, n: sec.Int()}
	wide := sec.Bool()
	ix.d2d = sec.F64s()
	narrow := sec.F32s()
	ix.idx = sec.I32s()
	ix.fh = sec.I32s()
	if err := sec.Err(); err != nil {
		return nil, err
	}
	if !wide || len(narrow) != 0 {
		return nil, fmt.Errorf("idindex: snapshot holds a float32 distance matrix; rebuild the artifact")
	}
	nn := ix.n * ix.n
	if ix.n != sp.NumDoors() || len(ix.d2d) != nn || len(ix.idx) != nn || len(ix.fh) != nn {
		return nil, fmt.Errorf("idindex: snapshot matrices inconsistent with %d doors", sp.NumDoors())
	}
	ix.reach = rch
	ix.size = int64(ix.n)*int64(ix.n)*(8+4+4) + sp.BaseSizeBytes() + sp.GeomSizeBytes() + rch.SizeBytes()
	return ix, nil
}
