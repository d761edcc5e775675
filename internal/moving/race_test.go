package moving_test

import (
	"slices"
	"sync"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/testspaces"
	"indoorsq/internal/workload"
)

// TestConcurrentMonitor hammers one Monitor from concurrent registrars,
// updaters, and readers. Run under -race (the Makefile race target includes
// this package) it proves the mutex covers every map mutation — the shape
// the multi-venue serving tier and the streaming roadmap item both imply.
func TestConcurrentMonitor(t *testing.T) {
	f := testspaces.NewStrip()
	m := moving.NewMonitor(f.Space)
	gen := workload.New(f.Space, 11)
	type spot struct {
		p indoor.Point
		v indoor.PartitionID
	}
	spots := make([]spot, 64)
	for i := range spots {
		p, v := gen.PointIn()
		spots[i] = spot{p, v}
	}

	const (
		writers  = 4
		steps    = 300
		readers  = 2
		monitors = 3
	)
	var wg sync.WaitGroup
	// Registrars: register/unregister disjoint query-id ranges.
	for g := 0; g < monitors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				qid := int32(g*1000 + i%7)
				s := spots[(g+i)%len(spots)]
				if _, err := m.Register(qid, s.p, 10, float64(i)); err == nil {
					if i%3 == 0 {
						m.Unregister(qid)
					}
				}
				if i%5 == 4 {
					m.Unregister(qid)
				}
			}
		}(g)
	}
	// Updaters: disjoint object-id ranges, valid spots only.
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				id := int32(g*100 + i%13)
				s := spots[(g*7+i)%len(spots)]
				if _, err := m.Apply(moving.Update{ID: id, Loc: s.p, Part: s.v, T: float64(i)}); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
				if i%11 == 10 {
					m.Remove(id, float64(i))
				}
			}
		}(g)
	}
	// Readers: results, counts.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < steps*2; i++ {
				m.Result(int32(i % 2000))
				m.NumQueries()
			}
		}(g)
	}
	wg.Wait()
}

// TestStreamApplyBatchConcurrentScratch has 4 goroutines, each owning a
// disjoint set of objects, call ApplyBatch on one Stream with batch sizes
// from 1 to 200, so batches overlap and pooled batch scratch is handed
// between goroutines. A range monitor's events for an object depend only
// on that object's positions, so every batch must emit exactly what a
// serial single-shard replay of the same goroutine's batches emits. Under
// -race (the Makefile race target includes this package) it also checks
// that no scratch is shared by two batches at once.
func TestStreamApplyBatchConcurrentScratch(t *testing.T) {
	sp := testspaces.RandomGrid(23, 3, 4, 2, 3, 0.2)
	gen := workload.New(sp, 29)
	type mon struct {
		p indoor.Point
		r float64
	}
	mons := make([]mon, 40)
	for i := range mons {
		p, _ := gen.PointIn()
		mons[i] = mon{p, 6 + float64(i%5)*3}
	}
	register := func(st *moving.Stream) {
		for i, m := range mons {
			if _, err := st.Register(int32(i), m.p, m.r, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	const goroutines = 4
	sizes := []int{1, 2, 7, 64, 200, 3, 131, 1, 50, 199, 16, 90}
	script := make([][][]moving.Update, goroutines)
	for g := range script {
		tick := 0
		for _, n := range sizes {
			b := make([]moving.Update, n)
			for i := range b {
				p, v := gen.PointIn()
				tick++
				b[i] = moving.Update{ID: int32(g*1000 + tick%37), Loc: p, Part: v, T: float64(tick)}
			}
			script[g] = append(script[g], b)
		}
	}
	want := make([][][]moving.Event, goroutines)
	total := 0
	for g := range script {
		ref := moving.NewStream(sp, moving.StreamOptions{Shards: 1})
		register(ref)
		for _, b := range script[g] {
			evs, err := ref.ApplyBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			want[g] = append(want[g], evs)
			total += len(evs)
		}
		ref.Close()
	}
	if total < 200 {
		t.Fatalf("the replays emit only %d events", total)
	}

	st := moving.NewStream(sp, moving.StreamOptions{Shards: 8})
	defer st.Close()
	register(st)
	var wg sync.WaitGroup
	for g := range script {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for bi, b := range script[g] {
				got, err := st.ApplyBatch(b)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want[g][bi]) {
					t.Errorf("goroutine %d batch %d (%d updates):\n got %v\nwant %v", g, bi, len(b), got, want[g][bi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
