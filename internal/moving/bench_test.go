package moving_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"indoorsq/internal/moving"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/workload"
)

// ingestObjects is the object count of the ingest benchmark state.
const ingestObjects = 20000

// newIngestState builds the Stream state `isqperf move` builds for its
// ingest row: the ~900-door ingest venue, 2,000 range monitors (r =
// 8..16), ingestObjects placed objects, and a motion stream of steps
// updates that hops 20% of its steps to another partition.
func newIngestState(b *testing.B, steps int) (*moving.Stream, []moving.Update) {
	sp, err := spacegen.Generate(1301, spacegen.Params{Floors: 3, Rows: 12, Cols: 25, ExtraDoors: 10, Imbalance: 0.2}.Normalize())
	if err != nil {
		b.Fatal(err)
	}
	st := moving.NewStream(sp, moving.StreamOptions{})
	gen := workload.New(sp, 95*7)
	for i := range 2000 {
		p, _ := gen.PointIn()
		if _, err := st.Register(int32(i+1), p, 8+float64(i%5)*2, 0); err != nil {
			b.Fatal(err)
		}
	}
	objs := spacegen.Objects(sp, 95, ingestObjects)
	seed := make([]moving.Update, len(objs))
	for i, o := range objs {
		seed[i] = moving.Update{ID: o.ID, Loc: o.Loc, Part: o.Part, T: float64(i+1) * 1e-6}
	}
	for lo := 0; lo < len(seed); lo += 4096 {
		if _, err := st.ApplyBatch(seed[lo:min(lo+4096, len(seed))]); err != nil {
			b.Fatal(err)
		}
	}
	walk := spacegen.MotionStream(sp, 95, len(objs), steps, 1, 1e-6, 0.2)
	motions := make([]moving.Update, len(walk))
	for i, m := range walk {
		motions[i] = moving.Update{ID: m.ID, Loc: m.Loc, Part: m.Part, T: m.T}
	}
	return st, motions
}

// BenchmarkApplyBatch applies 64-update batches to a Stream in the ingest
// state (see newIngestState) from one goroutine. One op is one batch; run
// with -benchmem to see its allocations.
func BenchmarkApplyBatch(b *testing.B) {
	const batch, batches = 64, 512
	st, motions := newIngestState(b, batch*batches)
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		lo := (i % batches) * batch
		if _, err := st.ApplyBatch(motions[lo : lo+batch]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyBatchParallel applies 64-update batches to the same ingest
// state from GOMAXPROCS goroutines at once, the way concurrent /updates
// requests reach one venue's stream. Each goroutine owns a disjoint object
// id range (concurrent batches must report disjoint objects) and cycles
// through that range's motions. One op is one batch.
func BenchmarkApplyBatchParallel(b *testing.B) {
	const batch = 64
	lanes := runtime.GOMAXPROCS(0)
	st, motions := newIngestState(b, batch*512*lanes)
	defer st.Close()
	perLane := make([][]moving.Update, lanes)
	for _, u := range motions {
		l := int(u.ID) * lanes / ingestObjects
		perLane[l] = append(perLane[l], u)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		lane := perLane[int(next.Add(1)-1)%lanes]
		n := len(lane) / batch
		for i := 0; pb.Next(); i++ {
			lo := (i % n) * batch
			if _, err := st.ApplyBatch(lane[lo : lo+batch]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
