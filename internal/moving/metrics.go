package moving

import (
	"sync/atomic"

	"indoorsq/internal/obs"
)

// Metrics aggregates streaming-ingestion counters across every Stream in
// the process, following the doorgraph/reach package-metrics pattern: the
// hot path touches only atomics, and the server exports them as gauges.
var Metrics struct {
	// Updates counts position updates absorbed by ApplyBatch.
	Updates atomic.Int64
	// Batches counts ApplyBatch calls that reached ingestion.
	Batches atomic.Int64
	// Events counts emitted enter/leave events.
	Events atomic.Int64
	// Touched is the per-update count of queries whose distance was
	// evaluated — the quantity the inverted index exists to keep far below
	// the number of registered queries.
	Touched obs.IntHistogram
}
