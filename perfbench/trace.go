package main

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"indoorsq/internal/obs"
)

// numStages is the engine stage taxonomy of obs.Stage.
const numStages = int(obs.StageRefine) + 1

// layerSums accumulates the traced requests of one request kind.
type layerSums struct {
	requests int64
	handler  time.Duration // time inside the tenant handler
	bytes    int64         // response body bytes
	queries  int64         // engine queries completed (obs.QuerySummary)
	engine   time.Duration // sum of QuerySummary.Dur
	stages   [numStages]time.Duration
	doors    int64
	work     int64
}

// tracer is the benchmark's middleware around the tenant handler. A
// request carrying traceHeader gets an obs.Trace bound to its context and
// its handler time, response size, engine summaries and stage self times
// recorded; every other request passes straight through.
type tracer struct {
	next http.Handler
	mu   sync.Mutex
	sums [numKinds]layerSums
}

func newTracer(next http.Handler) *tracer { return &tracer{next: next} }

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (t *tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(traceHeader) == "" {
		t.next.ServeHTTP(w, r)
		return
	}
	tr := obs.NewTrace()
	cw := &countingWriter{ResponseWriter: w}
	r = r.WithContext(obs.WithTrace(r.Context(), tr))
	start := time.Now()
	t.next.ServeHTTP(cw, r)
	handler := time.Since(start)

	kind := pathKind(r.URL.Path)
	qs := tr.Queries()
	stages := stageSelf(tr.Spans())
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.sums[kind]
	s.requests++
	s.handler += handler
	s.bytes += cw.n
	for _, q := range qs {
		s.queries++
		s.engine += q.Dur
		s.doors += int64(q.VisitedDoors)
		s.work += q.WorkBytes
	}
	for i, d := range stages {
		s.stages[i] += d
	}
}

// snapshot returns the sums recorded so far.
func (t *tracer) snapshot() [numKinds]layerSums {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sums
}

// pathKind maps a /v1/venues/{id}/... path to its request kind.
func pathKind(path string) int {
	switch path[strings.LastIndexByte(path, '/')+1:] {
	case "range":
		return kindRange
	case "knn":
		return kindKNN
	case "spd":
		return kindSPD
	case "updates":
		return kindUpdate
	default:
		return kindRead
	}
}

// stageSelf sums each stage's self time over a trace's spans: a span's
// duration minus the part of it its nested spans cover.
func stageSelf(spans []obs.Span) [numStages]time.Duration {
	var out [numStages]time.Duration
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Dur > spans[j].Dur
	})
	child := make([]time.Duration, len(spans))
	var stack []int
	for i, sp := range spans {
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.Start+top.Dur > sp.Start {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			child[stack[len(stack)-1]] += sp.Dur
		}
		stack = append(stack, i)
	}
	for i, sp := range spans {
		if int(sp.Stage) < numStages {
			out[sp.Stage] += sp.Dur - child[i]
		}
	}
	return out
}
