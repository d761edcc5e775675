package indoor_test

import (
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/spacegen"
)

// BenchmarkHostPartition locates 4,096 object positions, cycling, on the
// ~900-door venue of `isqperf move`'s ingest row: the paper's sequential
// host scan (Sec. 4.1) that every position report without a partition
// runs.
func BenchmarkHostPartition(b *testing.B) {
	sp, err := spacegen.Generate(1301, spacegen.Params{Floors: 3, Rows: 12, Cols: 25, ExtraDoors: 10, Imbalance: 0.2}.Normalize())
	if err != nil {
		b.Fatal(err)
	}
	objs := spacegen.Objects(sp, 95, 4096)
	pts := make([]indoor.Point, len(objs))
	for i, o := range objs {
		pts[i] = o.Loc
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if _, ok := sp.HostPartition(pts[i%len(pts)]); !ok {
			b.Fatalf("no host for %v", pts[i%len(pts)])
		}
	}
}
