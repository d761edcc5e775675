// Package server exposes indoor spatial queries over HTTP/JSON — the thin
// LBS backend the paper's introduction motivates (POI search and routing
// services built on top of the four query types). TenantServer is the one
// serving surface: it mounts a tenant.Tier of one or more venues, each with
// any subset of the five engines behind its cost-based router (?engine= is
// the per-query deterministic override).
//
// Every request resolves its venue to the immutable *tenant.Venue
// generation published at that moment and reads everything from it — the
// space, the engines, the router, the continuous-query stream and the
// epoch — so a swap (POST .../swap, or SIGHUP in isqserve) can publish the
// next generation mid-flight without any response mixing two generations.
//
// Per-venue endpoints live under /v1/venues/{id}/. The unprefixed paths
// (/v1/info, /v1/range, /v1/knn, /v1/route = SPD, /v1/partitions,
// /v1/trace, /v1/swap, /metrics, /v1/monitors..., /v1/updates) are aliases
// that resolve to the tier's sole venue; on a multi-venue tier they answer
// 404 naming the per-venue path.
//
// Every query request takes one path: parseOp decodes it into an exec.Op,
// Venue.Query routes and runs it, and statusOf maps its error. The query
// runs under a context derived from the request: client disconnects cancel
// the traversal, per-endpoint timeouts (SetTimeout) bound it, and an
// admission budget (SetBudget) caps its work. statusOf is the one error
// table of every endpoint: invalid parameters are 400, an unknown venue,
// engine or monitor is 404, unanswerable requests (no host partition,
// unreachable target, exhausted budget, refused swap or pin) are 422 —
// interrupted queries with a partial-progress payload — conflicts with a
// monitor id or a retired stream are 409, deadline expiry is 504, and a
// client that went away is 499.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"indoorsq/internal/doorgraph"
	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/obs"
	"indoorsq/internal/query"
	"indoorsq/internal/reach"
	"indoorsq/internal/tenant"
)

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// reported when the client cancelled the request mid-query.
const StatusClientClosedRequest = 499

// TenantServer serves the venues of one tier.
type TenantServer struct {
	tier *tenant.Tier
	// sole is the venue the unprefixed aliases resolve to ("" when the tier
	// serves several; venue ids are fixed at boot).
	sole string
	// timeouts holds per-endpoint query deadlines (SetTimeout).
	timeouts map[string]time.Duration
	// budget, when non-zero, is attached to every query context as the
	// admission-control work cap.
	budget query.Budget
	// encodeErrs counts responses whose body failed to encode; the client
	// receives a 500 instead and /info surfaces the counter.
	encodeErrs atomic.Int64
}

// NewTenantServer wires the HTTP surface around a booted tier.
func NewTenantServer(tier *tenant.Tier) *TenantServer {
	s := &TenantServer{tier: tier, timeouts: make(map[string]time.Duration)}
	if ids := tier.VenueIDs(); len(ids) == 1 {
		s.sole = ids[0]
	}
	return s
}

// SetTimeout bounds queries of one endpoint ("range", "knn", "spd") with a
// per-request deadline; d <= 0 removes the bound. Call before serving
// starts.
func (s *TenantServer) SetTimeout(endpoint string, d time.Duration) {
	if d <= 0 {
		delete(s.timeouts, endpoint)
		return
	}
	s.timeouts[endpoint] = d
}

// SetBudget attaches a work budget to every query context — the admission
// cap of a shared deployment. The zero budget disables it. Call before
// serving starts.
func (s *TenantServer) SetBudget(b query.Budget) { s.budget = b }

// EncodeErrors returns how many response bodies failed to encode.
func (s *TenantServer) EncodeErrors() int64 { return s.encodeErrs.Load() }

// venueHandler serves one request against the generation it loaded.
type venueHandler func(w http.ResponseWriter, r *http.Request, v *tenant.Venue)

// Handler returns the HTTP handler with every endpoint mounted.
func (s *TenantServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/venues", s.handleVenues)
	routes := []struct {
		method, path string
		alias        string // unprefixed single-venue path ("" = none)
		h            venueHandler
	}{
		{"GET", "/info", "/v1/info", s.handleInfo},
		{"GET", "/range", "/v1/range", s.handleQuery(exec.RangeQ)},
		{"GET", "/knn", "/v1/knn", s.handleQuery(exec.KNNQ)},
		{"GET", "/spd", "/v1/route", s.handleQuery(exec.SPDQ)},
		{"GET", "/partitions", "/v1/partitions", s.handlePartitions},
		{"GET", "/trace", "/v1/trace", s.handleTrace},
		{"GET", "/route", "", s.handleRouteTable},
		{"POST", "/route", "", s.handlePin},
		{"POST", "/swap", "/v1/swap", s.handleSwap},
		{"GET", "/metrics", "/metrics", s.handleMetrics},
		{"GET", "/monitors", "/v1/monitors", s.handleMonitorList},
		{"POST", "/monitors", "/v1/monitors", s.handleMonitorCreate},
		{"DELETE", "/monitors/{mid}", "/v1/monitors/{mid}", s.handleMonitorDelete},
		{"GET", "/monitors/{mid}/result", "/v1/monitors/{mid}/result", s.handleMonitorResult},
		{"GET", "/monitors/{mid}/stream", "/v1/monitors/{mid}/stream", s.handleMonitorStream},
		{"POST", "/updates", "/v1/updates", s.handleUpdates},
	}
	for _, rt := range routes {
		mux.HandleFunc(rt.method+" /v1/venues/{id}"+rt.path, s.perVenue(rt.h))
		if rt.alias != "" {
			mux.HandleFunc(rt.method+" "+rt.alias, s.soleVenue(rt.path, rt.h))
		}
	}
	return mux
}

// perVenue resolves the {id} path segment against the tier's venue table —
// the one generation load of the request.
func (s *TenantServer) perVenue(h venueHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		v, ok := s.tier.Venue(id)
		if !ok {
			s.fail(w, fmt.Errorf("%w: unknown venue %q", errNotFound, id))
			return
		}
		h(w, r, v)
	}
}

// soleVenue serves an unprefixed alias against the tier's only venue.
func (s *TenantServer) soleVenue(path string, h venueHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, ok := s.tier.Venue(s.sole)
		if !ok {
			s.fail(w, fmt.Errorf("%w: tier serves %d venues: use /v1/venues/{id}%s",
				errNotFound, len(s.tier.VenueIDs()), path))
			return
		}
		h(w, r, v)
	}
}

// httpError is the uniform error payload. Interrupted queries additionally
// report how far they got, so a caller hitting the admission budget can see
// what the query cost before it was cut off.
type httpError struct {
	Error        string `json:"error"`
	VisitedDoors *int   `json:"visitedDoors,omitempty"`
	WorkBytes    *int64 `json:"workBytes,omitempty"`
}

// encodeJSON writes v as a buffered JSON response: encoding straight into w
// would send the status line on the first byte, so a payload that fails to
// encode mid-body would leave the client a truncated 2xx and the server a
// superfluous-WriteHeader log when the error path tried to respond.
// Buffering makes status + body atomic either way. Returns the encode error
// (the client already received a 500 when it is non-nil).
func encodeJSON(w http.ResponseWriter, code int, v any) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		writeEncodeFailure(w)
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
	return nil
}

// writeEncodeFailure answers the 500 of a response body that failed to
// encode.
func writeEncodeFailure(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = w.Write([]byte(`{"error":"response encoding failed"}` + "\n"))
}

func (s *TenantServer) writeJSON(w http.ResponseWriter, code int, v any) {
	if encodeJSON(w, code, v) != nil {
		s.encodeErrs.Add(1)
	}
}

// Request errors the server raises itself; statusOf maps them like the
// sentinels of the layers below.
var (
	errBadRequest = errors.New("bad request")
	errNotFound   = errors.New("not found")
	errRefused    = errors.New("refused")
	errTooLarge   = errors.New("request too large")
)

// Request bounds. maxBodyBytes caps every JSON request body; maxUpdateBatch
// caps the reports of one POST .../updates, 8x the largest in-repo caller
// (perfbench seeds its objects 500 reports at a time).
const (
	maxBodyBytes   = 1 << 20
	maxUpdateBatch = 4096
)

// statusTable maps every sentinel error to its HTTP status; the first entry
// the error wraps wins.
var statusTable = []struct {
	err  error
	code int
}{
	{errNotFound, http.StatusNotFound},
	{tenant.ErrUnknownEngine, http.StatusNotFound},
	{errBadRequest, http.StatusBadRequest},
	{exec.ErrInvalidOp, http.StatusBadRequest},
	{errTooLarge, http.StatusRequestEntityTooLarge},
	{errRefused, http.StatusUnprocessableEntity},
	{query.ErrNoHost, http.StatusUnprocessableEntity},
	{query.ErrUnreachable, http.StatusUnprocessableEntity},
	{query.ErrBudgetExhausted, http.StatusUnprocessableEntity},
	{moving.ErrNotIndoors, http.StatusUnprocessableEntity},
	{moving.ErrDuplicateQuery, http.StatusConflict},
	{moving.ErrStreamClosed, http.StatusConflict},
	{context.DeadlineExceeded, http.StatusGatewayTimeout},
	{context.Canceled, StatusClientClosedRequest},
}

// statusOf maps an error to its HTTP status through statusTable; anything
// it does not wrap is the server's own failure (500).
func statusOf(err error) int {
	for _, e := range statusTable {
		if errors.Is(err, e.err) {
			return e.code
		}
	}
	return http.StatusInternalServerError
}

// fail answers err with its mapped status.
func (s *TenantServer) fail(w http.ResponseWriter, err error) {
	s.writeJSON(w, statusOf(err), httpError{Error: err.Error()})
}

// failQuery is fail for a query error; interrupted queries (budget,
// deadline) attach their partial progress.
func (s *TenantServer) failQuery(w http.ResponseWriter, err error, st *query.Stats) {
	he := httpError{Error: err.Error()}
	if errors.Is(err, query.ErrBudgetExhausted) || errors.Is(err, context.DeadlineExceeded) {
		he.VisitedDoors = &st.VisitedDoors
		he.WorkBytes = &st.WorkBytes
	}
	s.writeJSON(w, statusOf(err), he)
}

// queryCtx derives one query's context: request cancellation, the endpoint
// timeout, and the admission budget. Venue.Query binds the venue registry
// and feeds the router.
func (s *TenantServer) queryCtx(r *http.Request, endpoint string) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if d, ok := s.timeouts[endpoint]; ok {
		ctx, cancel = context.WithTimeout(ctx, d)
	}
	if b := s.budget; b != (query.Budget{}) {
		ctx = query.WithBudget(ctx, b)
	}
	return ctx, cancel
}

// floatParam parses a required float query parameter.
func floatParam(q url.Values, key string) (float64, error) {
	raw := q.Get(key)
	if raw == "" {
		return 0, fmt.Errorf("%w: missing parameter %q", errBadRequest, key)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: parameter %q: %v", errBadRequest, key, err)
	}
	return v, nil
}

// floorParam parses an optional floor (default 0). A floor outside int16 is
// an error, not a wrapped floor.
func floorParam(q url.Values, key string) (int16, error) {
	raw := q.Get(key)
	if raw == "" {
		return 0, nil
	}
	floor, err := strconv.ParseInt(raw, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("%w: parameter %q: %v", errBadRequest, key, err)
	}
	return int16(floor), nil
}

// pointParam parses x/y/floor with a suffix ("" or "2").
func pointParam(q url.Values, suffix string) (indoor.Point, error) {
	x, err := floatParam(q, "x"+suffix)
	if err != nil {
		return indoor.Point{}, err
	}
	y, err := floatParam(q, "y"+suffix)
	if err != nil {
		return indoor.Point{}, err
	}
	floor, err := floorParam(q, "floor"+suffix)
	return indoor.At(x, y, floor), err
}

// parseOp decodes one query of the given kind from the request's parsed
// query string: x/y/floor, then r (range), k (kNN, default 5) or
// x2/y2/floor2 (SPD). It only parses; exec.Do rejects values no query can
// answer (a negative or NaN radius, k < 1).
func parseOp(q url.Values, kind exec.Kind) (exec.Op, error) {
	op := exec.Op{Kind: kind}
	var err error
	if op.P, err = pointParam(q, ""); err != nil {
		return op, err
	}
	switch kind {
	case exec.RangeQ:
		op.R, err = floatParam(q, "r")
	case exec.KNNQ:
		op.K = 5
		if raw := q.Get("k"); raw != "" {
			if op.K, err = strconv.Atoi(raw); err != nil {
				err = fmt.Errorf("%w: parameter \"k\": %v", errBadRequest, err)
			}
		}
	case exec.SPDQ:
		op.Q, err = pointParam(q, "2")
	}
	return op, err
}

// runQuery decodes one query of kind from q, the request's query string
// parsed once by the caller, and runs it on v under the request's query
// context (tr, when non-nil, records its spans); ?engine= comes from the
// same values. A decode failure is returned as the result's error.
func (s *TenantServer) runQuery(r *http.Request, q url.Values, v *tenant.Venue, kind exec.Kind, tr *obs.Trace) (exec.Op, exec.Result, string) {
	op, err := parseOp(q, kind)
	if err != nil {
		return op, exec.Result{Err: err}, ""
	}
	ctx, cancel := s.queryCtx(r, kind.String())
	defer cancel()
	if tr != nil {
		ctx = obs.WithTrace(ctx, tr)
	}
	res, engine := v.Query(ctx, op, q.Get("engine"))
	return op, res, engine
}

func (s *TenantServer) handleVenues(w http.ResponseWriter, r *http.Request) {
	type venueJSON struct {
		ID      string   `json:"id"`
		Epoch   uint64   `json:"epoch"`
		Engines []string `json:"engines"`
		Objects int      `json:"objects"`
		Origin  string   `json:"origin"`
	}
	out := make([]venueJSON, 0, len(s.tier.VenueIDs()))
	for _, id := range s.tier.VenueIDs() {
		v, ok := s.tier.Venue(id)
		if !ok {
			continue
		}
		out = append(out, venueJSON{
			ID:      id,
			Epoch:   v.Epoch(),
			Engines: v.EngineList(),
			Objects: len(v.Objects),
			Origin:  v.Origin,
		})
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"venues": out})
}

func (s *TenantServer) handleInfo(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	stats := v.Space.SpaceStats(v.Gamma)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"venue":      v.ID,
		"floors":     stats.Floors,
		"partitions": stats.Partitions,
		"doors":      stats.Doors,
		"engines":    v.EngineList(),
		// default is the engine every query class is pinned to ("" while
		// the router decides).
		"default":      v.Router().Default(),
		"objects":      len(v.Objects),
		"encodeErrors": s.encodeErrs.Load(),
		// Generation provenance: which generation is live (the epoch
		// advances on every successful swap), whether its engines were built
		// in this process or loaded from a snapshot artifact, and the
		// snapshot format + space-topology fingerprint identifying it.
		"epoch": v.Epoch(),
		"snapshot": map[string]any{
			"origin":        v.Origin,
			"fingerprint":   fmt.Sprintf("%016x", v.Fingerprint),
			"formatVersion": v.FormatVersion,
		},
		// Footprint of the last door graph built in this process (CSR
		// layout): node and directed-edge counts plus the exact byte size
		// of the offset/target/weight arrays.
		"doorGraph": map[string]int64{
			"doors": doorgraph.Metrics.Doors.Load(),
			"edges": doorgraph.Metrics.Edges.Load(),
			"bytes": doorgraph.Metrics.Bytes.Load(),
		},
		// Reachability pruning (internal/reach): condensation shape of the
		// last summary built plus cumulative prune decisions (hits pruned
		// work, skips passed it through).
		"reach": map[string]int64{
			"sccs":       reach.Metrics.SCCs.Load(),
			"bytes":      reach.Metrics.SummaryBytes.Load(),
			"pruneHits":  reach.Metrics.PruneHits.Load(),
			"pruneSkips": reach.Metrics.PruneSkips.Load(),
		},
	})
}

// handleQuery serves one query kind: parseOp, Venue.Query, then the kind's
// append encoder (encode.go) into a pooled buffer.
func (s *TenantServer) handleQuery(kind exec.Kind) venueHandler {
	return func(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
		op, res, engine := s.runQuery(r, r.URL.Query(), v, kind, nil)
		if res.Err != nil {
			s.failQuery(w, res.Err, &res.Stats)
			return
		}
		m := queryMeta{visitedDoors: res.Stats.VisitedDoors, engine: engine, epoch: v.Epoch()}
		bp := bodyBufs.Get().(*[]byte)
		b, ok := (*bp)[:0], true
		switch kind {
		case exec.RangeQ:
			b = appendRange(b, res.IDs, m)
		case exec.KNNQ:
			b, ok = appendKNN(b, res.Neighbors, m)
		case exec.SPDQ:
			b, ok = appendSPD(b, res.Path.Dist, res.Path.Doors, op.P, op.Q, v.Space, m)
		}
		s.writeBody(w, http.StatusOK, b, ok)
		putBodyBuf(bp, b)
	}
}

type partitionJSON struct {
	ID    int32        `json:"id"`
	Kind  string       `json:"kind"`
	Floor int16        `json:"floor"`
	Poly  [][2]float64 `json:"poly"`
}

func (s *TenantServer) handlePartitions(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	floor, err := floorParam(r.URL.Query(), "floor")
	if err != nil {
		s.fail(w, err)
		return
	}
	ids := v.Space.OnFloor(floor)
	out := make([]partitionJSON, 0, len(ids))
	for _, id := range ids {
		part := v.Space.Partition(id)
		pj := partitionJSON{ID: int32(id), Kind: part.Kind.String(), Floor: part.Floor}
		for _, pt := range part.Poly {
			pj.Poly = append(pj.Poly, [2]float64{pt.X, pt.Y})
		}
		out = append(out, pj)
	}
	s.writeJSON(w, http.StatusOK, out)
}

type traceSpan struct {
	Stage   string `json:"stage"`
	StartNs int64  `json:"startNs"`
	DurNs   int64  `json:"durNs"`
}

type traceResponse struct {
	Engine        string      `json:"engine"`
	Op            string      `json:"op"`
	Error         string      `json:"error,omitempty"`
	DurNs         int64       `json:"durNs"`
	VisitedDoors  int         `json:"visitedDoors"`
	WorkBytes     int64       `json:"workBytes"`
	PeakWorkBytes int64       `json:"peakWorkBytes"`
	CacheHits     int64       `json:"cacheHits"`
	CacheMisses   int64       `json:"cacheMisses"`
	Epoch         uint64      `json:"epoch"`
	Spans         []traceSpan `json:"spans"`
	Result        any         `json:"result,omitempty"`
}

// traceOps maps the ?op= of /trace to the query kind it runs (route is an
// alias of spd).
var traceOps = map[string]exec.Kind{
	obs.OpRange: exec.RangeQ, obs.OpKNN: exec.KNNQ, obs.OpSPD: exec.SPDQ, "route": exec.SPDQ,
}

// handleTrace runs one query with per-stage tracing and returns the span
// breakdown instead of the full result: ?op=range|knn|spd plus the target
// endpoint's usual parameters, decoded and routed like the endpoint itself.
// Query-level failures (no host, unreachable, budget) still produce a 200 —
// the trace of a failed query is the point of the endpoint — with the error
// recorded in the payload; a query that never reached an engine (bad
// parameters, an invalid op, an unknown engine) answers its statusOf code.
func (s *TenantServer) handleTrace(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	q := r.URL.Query()
	name := q.Get("op")
	kind, ok := traceOps[name]
	if !ok {
		s.fail(w, fmt.Errorf("%w: bad op %q (want range, knn, or spd)", errBadRequest, name))
		return
	}
	tr := obs.NewTrace()
	_, res, _ := s.runQuery(r, q, v, kind, tr)
	queries := tr.Queries()
	if len(queries) == 0 {
		err := res.Err
		if err == nil {
			err = errors.New("trace recorded no query")
		}
		s.failQuery(w, err, &res.Stats)
		return
	}
	q0 := queries[0]
	resp := traceResponse{
		Engine:        q0.Engine,
		Op:            q0.Op,
		Error:         q0.Err,
		DurNs:         q0.Dur.Nanoseconds(),
		VisitedDoors:  q0.VisitedDoors,
		WorkBytes:     q0.WorkBytes,
		PeakWorkBytes: q0.PeakWorkBytes,
		CacheHits:     q0.CacheHits,
		CacheMisses:   q0.CacheMisses,
		Epoch:         v.Epoch(),
		Spans:         make([]traceSpan, 0, len(tr.Spans())),
	}
	if res.Err == nil {
		switch kind {
		case exec.RangeQ:
			resp.Result = map[string]any{"objects": len(res.IDs)}
		case exec.KNNQ:
			resp.Result = map[string]any{"neighbors": len(res.Neighbors)}
		case exec.SPDQ:
			resp.Result = map[string]any{"dist": res.Path.Dist, "doors": len(res.Path.Doors)}
		}
	}
	for _, sp := range tr.Spans() {
		resp.Spans = append(resp.Spans, traceSpan{
			Stage:   sp.Stage.String(),
			StartNs: sp.Start.Nanoseconds(),
			DurNs:   sp.Dur.Nanoseconds(),
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleRouteTable is the routing introspection endpoint: the decision
// table per query class, with each parameter band's committed engine, the
// paired explore means behind it, its explore and re-explore counts and
// reason, and per engine the cumulative served and failed counts.
func (s *TenantServer) handleRouteTable(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"venue":     v.ID,
		"epoch":     v.Epoch(),
		"engines":   v.EngineList(),
		"decisions": v.Router().Decisions(),
	})
}

// pinRequest is the POST /v1/venues/{id}/route body: the deterministic
// override knob. An empty op applies to every query class; an empty engine
// removes the pin.
type pinRequest struct {
	Op     string `json:"op"`
	Engine string `json:"engine"`
}

func (s *TenantServer) handlePin(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	var req pinRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if req.Engine == "" {
		v.Router().Unpin(req.Op)
	} else if err := v.Router().Pin(req.Op, req.Engine); err != nil {
		s.fail(w, fmt.Errorf("%w: %w", errRefused, err))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"venue":     v.ID,
		"decisions": v.Router().Decisions(),
	})
}

// swapRequest is the optional POST .../swap body.
type swapRequest struct {
	// Path of the snapshot artifact to load; empty reloads the venue's own
	// snapshot (a snap: venue in isqserve).
	Path string `json:"path"`
}

// handleSwap loads a snapshot artifact and publishes it as the venue's next
// generation. The response reports the adopted generation; queries in
// flight during the load keep answering on the previous one.
func (s *TenantServer) handleSwap(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	var req swapRequest
	if err := decodeBody(w, r, &req); err != nil && !errors.Is(err, io.EOF) {
		s.fail(w, err)
		return
	}
	start := time.Now()
	nv, err := s.tier.SwapSnapshot(v.ID, req.Path)
	if err != nil {
		s.fail(w, fmt.Errorf("%w: swap: %w", errRefused, err))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"venue":         nv.ID,
		"epoch":         nv.Epoch(),
		"origin":        nv.Origin,
		"fingerprint":   fmt.Sprintf("%016x", nv.Fingerprint),
		"formatVersion": nv.FormatVersion,
		"engines":       nv.EngineList(),
		"default":       nv.Router().Default(),
		"loadMs":        time.Since(start).Milliseconds(),
	})
}

// handleMetrics scrapes one venue's registry in plain-text format: per
// engine × query class counters and p50/p95/p99 latency quantiles of the
// served queries, followed by the layer gauges.
func (s *TenantServer) handleMetrics(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = v.Registry().WriteText(w)
}
