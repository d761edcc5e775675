// Ablation and extension benchmarks. The paper's own figures (tasks A and
// B1–B7 over Table 5's grids) are measured by `go run ./cmd/isqperf paper`,
// which gates every setting's answers across the five engines and checks
// the paper's claims as bounds; these testing.B benchmarks cover the design
// choices called out in DESIGN.md and the Sec. 7 extensions, each swept
// over its own parameter. `make bench-smoke` runs every one once.
package indoorsq_test

import (
	"context"
	"fmt"
	"testing"

	"indoorsq/internal/cindex"
	"indoorsq/internal/dataset"
	"indoorsq/internal/idindex"
	"indoorsq/internal/idmodel"
	"indoorsq/internal/indoor"
	"indoorsq/internal/iptree"
	"indoorsq/internal/keyword"
	"indoorsq/internal/moving"
	"indoorsq/internal/query"
	"indoorsq/internal/route"
	"indoorsq/internal/uncertain"
	"indoorsq/internal/workload"
)

func benchObjects(info *dataset.Info, n int) []query.Object {
	return workload.New(info.Space, 1).Objects(n)
}

func benchPoints(info *dataset.Info, n int) []indoor.Point {
	return workload.New(info.Space, 2).Points(n)
}

func benchPairs(b *testing.B, info *dataset.Info, s2t float64, n int) []workload.Pair {
	pairs, err := workload.New(info.Space, 3).SPDPairs(context.Background(), s2t, n)
	if err != nil {
		b.Fatal(err)
	}
	return pairs
}

// --- Ablation benchmarks for the design choices called out in DESIGN.md ---

// BenchmarkAblationLeafSize varies the IP-tree leaf capacity: small leaves
// mean deeper trees (more lifting); large leaves mean heavier within-leaf
// Dijkstra.
func BenchmarkAblationLeafSize(b *testing.B) {
	info := dataset.Get("SYN5")
	pairs := benchPairs(b, info, info.DefaultS2T, 10)
	for _, leaf := range []int{2, 4, 8, 16} {
		tr := iptree.New(info.Space, iptree.Options{Gamma: info.Gamma, LeafSize: leaf, VIP: true})
		tr.SetObjects(nil)
		b.Run(fmt.Sprintf("leaf=%d", leaf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				if _, err := tr.SPD(pr.P, pr.Q, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.SizeBytes())/1e6, "MB")
		})
	}
}

// BenchmarkAblationGamma varies the crucial-partition threshold on MZB,
// whose >50-door corridor is exactly what γ exists for (Sec. 5.3).
func BenchmarkAblationGamma(b *testing.B) {
	info := dataset.Get("MZB")
	pairs := benchPairs(b, info, info.DefaultS2T, 10)
	for _, gamma := range []int{2, 4, 16, 1 << 20} {
		tr := iptree.New(info.Space, iptree.Options{Gamma: gamma, VIP: true})
		tr.SetObjects(nil)
		name := fmt.Sprintf("gamma=%d", gamma)
		if gamma == 1<<20 {
			name = "gamma=off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				if _, err := tr.SPD(pr.P, pr.Q, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.SizeBytes())/1e6, "MB")
		})
	}
}

// BenchmarkAblationEuclidPrune toggles CINDEX's R-tree Euclidean pruning;
// the paper finds it does not reduce visited doors under indoor topology.
func BenchmarkAblationEuclidPrune(b *testing.B) {
	info := dataset.Get("SYN5")
	objs := benchObjects(info, 1000)
	pts := benchPoints(info, 10)
	for _, prune := range []bool{true, false} {
		cx := cindex.New(info.Space)
		cx.SetEuclidPrune(prune)
		cx.SetObjects(objs)
		b.Run(fmt.Sprintf("prune=%v", prune), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cx.Range(pts[i%len(pts)], info.DefaultR, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationVIPMaterialization isolates the VIP leaf materialization
// against the plain IP-tree on the routing workload it exists for.
func BenchmarkAblationVIPMaterialization(b *testing.B) {
	info := dataset.Get("HSM")
	pairs := benchPairs(b, info, info.DefaultS2T, 10)
	for _, vip := range []bool{false, true} {
		tr := iptree.New(info.Space, iptree.Options{Gamma: info.Gamma, VIP: vip})
		tr.SetObjects(nil)
		b.Run(fmt.Sprintf("vip=%v", vip), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				if _, err := tr.SPD(pr.P, pr.Q, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.SizeBytes())/1e6, "MB")
		})
	}
}

// --- Extension benchmarks (Sec. 7 features beyond the paper's figures) ---

// BenchmarkExtKeyword measures boolean keyword kNN, and keyword-aware
// routing over 0-3 required keywords, on the CPH venue.
func BenchmarkExtKeyword(b *testing.B) {
	info := dataset.Get("CPH")
	plain := benchObjects(info, 1000)
	words := [][]string{{"cafe"}, {"cafe", "wifi"}, {"atm"}, {"shop"}}
	tagged := make([]keyword.Tagged, len(plain))
	for i, o := range plain {
		tagged[i] = keyword.Tagged{Object: o, Words: words[i%len(words)]}
	}
	kw := keyword.New(idmodel.New(info.Space), info.Space, tagged)
	pts := benchPoints(info, 10)
	b.Run("BooleanKNN", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kw.BooleanKNN(context.Background(), pts[i%len(pts)], 5, nil, "cafe", "wifi"); err != nil {
				b.Fatal(err)
			}
		}
	})
	pairs := benchPairs(b, info, info.DefaultS2T, 10)
	required := []string{"atm", "cafe", "shop"}
	for n := 0; n <= len(required); n++ {
		b.Run(fmt.Sprintf("Route/words=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				if _, err := kw.Route(context.Background(), pr.P, pr.Q, nil, required[:n]...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtUncertain measures the probabilistic range query over 5, 13
// and 25 location samples per uncertain object.
func BenchmarkExtUncertain(b *testing.B) {
	info := dataset.Get("CPH")
	plain := benchObjects(info, 500)
	uobjs := make([]uncertain.Object, len(plain))
	for i, o := range plain {
		uobjs[i] = uncertain.Object{ID: o.ID, Center: o.Loc, Radius: 5, Part: o.Part}
	}
	cx := cindex.New(info.Space)
	pts := benchPoints(info, 10)
	for _, samples := range []int{5, 13, 25} {
		ux := uncertain.New(cx, info.Space, uobjs, samples)
		b.Run(fmt.Sprintf("ProbRange/samples=%d", samples), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ux.ProbRange(context.Background(), pts[i%len(pts)], info.DefaultR, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtMoving measures continuous-query update absorption: each
// iteration moves all 200 objects in one moving.Stream.ApplyBatch, against
// 1, 5, 10 and 20 registered range monitors.
func BenchmarkExtMoving(b *testing.B) {
	info := dataset.Get("CPH")
	qPts := benchPoints(info, 20)
	// Two position sets for the same object ids, alternated so every
	// update moves its object.
	var batches [2][]moving.Update
	for j := range batches {
		for _, o := range workload.New(info.Space, int64(j+1)).Objects(200) {
			batches[j] = append(batches[j], moving.Update{ID: o.ID, Loc: o.Loc, Part: o.Part})
		}
	}
	apply := func(b *testing.B, st *moving.Stream, step int) {
		us := batches[step%2]
		for i := range us {
			us[i].T = float64(step*len(us) + i)
		}
		if _, err := st.ApplyBatch(us); err != nil {
			b.Fatal(err)
		}
	}
	for _, nq := range []int{1, 5, 10, 20} {
		b.Run(fmt.Sprintf("monitors=%d", nq), func(b *testing.B) {
			st := moving.NewStream(info.Space, moving.StreamOptions{})
			defer st.Close()
			for i := 0; i < nq; i++ {
				if _, err := st.Register(int32(i), qPts[i], info.DefaultR, 0); err != nil {
					b.Fatal(err)
				}
			}
			apply(b, st, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				apply(b, st, i+1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batches[0])), "ns/update")
		})
	}
}

// BenchmarkExtMultiStop measures Held-Karp route optimization over 2, 4, 6
// and 8 intermediate stops.
func BenchmarkExtMultiStop(b *testing.B) {
	info := dataset.Get("CPH")
	eng := idindex.New(info.Space)
	eng.SetObjects(nil)
	pl := route.New(eng)
	pts := benchPoints(info, 10)
	for _, n := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("stops=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := pl.Optimized(context.Background(), pts[0], pts[1:1+n], pts[9], nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
