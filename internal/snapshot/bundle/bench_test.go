package bundle_test

import (
	"testing"

	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/spacegen"
)

// BenchmarkBuild constructs each engine through NewEngine, as Build does,
// over the airport venue of perfbench's serve_mix workload (spacegen seed
// 1102, about 930 doors), the largest term of that workload's set-up. The
// venue's distance cache fills during the first iteration, so the timed
// iterations build over a warm cache, as every engine after the first
// does inside Build.
func BenchmarkBuild(b *testing.B) {
	p := spacegen.Params{Floors: 3, Rows: 12, Cols: 25, ExtraDoors: 8, Imbalance: 0.2}.Normalize()
	sp, err := spacegen.Generate(1102, p)
	if err != nil {
		b.Fatal(err)
	}
	opt := bundle.Options{Gamma: 4}
	for _, name := range bundle.EngineNames {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bundle.NewEngine(name, sp, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
