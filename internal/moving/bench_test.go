package moving_test

import (
	"testing"

	"indoorsq/internal/moving"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/workload"
)

// BenchmarkApplyBatch applies 64-update batches to a Stream in the state
// `isqperf move` builds for its ingest row: the ~900-door ingest venue,
// 2,000 range monitors (r = 8..16), 20,000 placed objects, and a motion
// stream that hops 20% of its steps to another partition. One op is one
// batch; run with -benchmem to see its allocations.
func BenchmarkApplyBatch(b *testing.B) {
	sp, err := spacegen.Generate(1301, spacegen.Params{Floors: 3, Rows: 12, Cols: 25, ExtraDoors: 10, Imbalance: 0.2}.Normalize())
	if err != nil {
		b.Fatal(err)
	}
	st := moving.NewStream(sp, moving.StreamOptions{})
	defer st.Close()
	gen := workload.New(sp, 95*7)
	for i := range 2000 {
		p, _ := gen.PointIn()
		if _, err := st.Register(int32(i+1), p, 8+float64(i%5)*2, 0); err != nil {
			b.Fatal(err)
		}
	}
	objs := spacegen.Objects(sp, 95, 20000)
	seed := make([]moving.Update, len(objs))
	for i, o := range objs {
		seed[i] = moving.Update{ID: o.ID, Loc: o.Loc, Part: o.Part, T: float64(i+1) * 1e-6}
	}
	for lo := 0; lo < len(seed); lo += 4096 {
		if _, err := st.ApplyBatch(seed[lo:min(lo+4096, len(seed))]); err != nil {
			b.Fatal(err)
		}
	}
	const batch, batches = 64, 512
	walk := spacegen.MotionStream(sp, 95, len(objs), batch*batches, 1, 1e-6, 0.2)
	motions := make([]moving.Update, len(walk))
	for i, m := range walk {
		motions[i] = moving.Update{ID: m.ID, Loc: m.Loc, Part: m.Part, T: m.T}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		lo := (i % batches) * batch
		if _, err := st.ApplyBatch(motions[lo : lo+batch]); err != nil {
			b.Fatal(err)
		}
	}
}
