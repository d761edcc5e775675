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
// Every query runs under a context derived from the request: client
// disconnects cancel the traversal, per-endpoint timeouts (SetTimeout)
// bound it, and an admission budget (SetBudget) caps its work. The error
// mapping is uniform: invalid parameters are 400, an unknown venue or
// engine is 404, unanswerable queries (no host partition, unreachable
// target, exhausted budget) are 422 with a partial-progress payload,
// deadline expiry is 504, and a client that went away is 499.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"indoorsq/internal/doorgraph"
	"indoorsq/internal/indoor"
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
		{"GET", "/range", "/v1/range", s.handleRange},
		{"GET", "/knn", "/v1/knn", s.handleKNN},
		{"GET", "/spd", "/v1/route", s.handleSPD},
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

// perVenue resolves the {id} path segment against the tier's current shard
// map — the one generation load of the request.
func (s *TenantServer) perVenue(h venueHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		v, ok := s.tier.Venue(id)
		if !ok {
			s.fail(w, http.StatusNotFound, "unknown venue %q", id)
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
			s.fail(w, http.StatusNotFound, "tier serves %d venues: use /v1/venues/{id}%s",
				len(s.tier.VenueIDs()), path)
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
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"response encoding failed"}` + "\n"))
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
	return nil
}

func (s *TenantServer) writeJSON(w http.ResponseWriter, code int, v any) {
	if encodeJSON(w, code, v) != nil {
		s.encodeErrs.Add(1)
	}
}

func (s *TenantServer) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, httpError{Error: fmt.Sprintf(format, args...)})
}

// errStatus maps a query error to its HTTP status: an unknown ?engine=
// override is the caller's 404, unanswerable queries are the client's
// problem (422), an expired deadline is the backend giving up (504), and a
// vanished client is 499.
func errStatus(err error) int {
	switch {
	case errors.Is(err, tenant.ErrUnknownEngine):
		return http.StatusNotFound
	case errors.Is(err, query.ErrNoHost),
		errors.Is(err, query.ErrUnreachable),
		errors.Is(err, query.ErrBudgetExhausted):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// failQuery reports a query error with the mapped status; interrupted
// queries (budget, deadline) attach their partial progress.
func (s *TenantServer) failQuery(w http.ResponseWriter, err error, st *query.Stats) {
	he := httpError{Error: err.Error()}
	if errors.Is(err, query.ErrBudgetExhausted) || errors.Is(err, context.DeadlineExceeded) {
		he.VisitedDoors = &st.VisitedDoors
		he.WorkBytes = &st.WorkBytes
	}
	s.writeJSON(w, errStatus(err), he)
}

// queryCtx derives one query's context: request cancellation, the endpoint
// timeout, and the admission budget. The venue registry is bound inside the
// venue's query methods, so the router's evidence is fed automatically.
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
func floatParam(r *http.Request, key string) (float64, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", key)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("bad parameter %q: %v", key, err)
	}
	return v, nil
}

// pointParam parses x/y/floor (floor optional, default 0) with a suffix
// ("" or "2"). A floor outside int16 is an error, not a wrapped floor.
func pointParam(r *http.Request, suffix string) (indoor.Point, error) {
	x, err := floatParam(r, "x"+suffix)
	if err != nil {
		return indoor.Point{}, err
	}
	y, err := floatParam(r, "y"+suffix)
	if err != nil {
		return indoor.Point{}, err
	}
	var floor int64
	if raw := r.URL.Query().Get("floor" + suffix); raw != "" {
		floor, err = strconv.ParseInt(raw, 10, 16)
		if err != nil {
			return indoor.Point{}, fmt.Errorf("bad parameter floor%s: %v", suffix, err)
		}
	}
	return indoor.At(x, y, int16(floor)), nil
}

// kParam parses the optional k (default 5).
func kParam(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("k")
	if raw == "" {
		return 5, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k < 0 {
		return 0, errors.New("bad k")
	}
	return k, nil
}

func (s *TenantServer) handleVenues(w http.ResponseWriter, r *http.Request) {
	type venueJSON struct {
		ID      string   `json:"id"`
		Shard   int      `json:"shard"`
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
			Shard:   s.tier.ShardOf(id),
			Epoch:   v.Epoch(),
			Engines: v.EngineList(),
			Objects: len(v.Objects),
			Origin:  v.Origin,
		})
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"shards": s.tier.NumShards(),
		"venues": out,
	})
}

func (s *TenantServer) handleInfo(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	stats := v.Space.SpaceStats(v.Gamma)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"venue":      v.ID,
		"shard":      s.tier.ShardOf(v.ID),
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

// rangeResponse, knnResponse and spdResponse carry the answer plus who
// served it and which generation answered.
type rangeResponse struct {
	Objects      []int32 `json:"objects"`
	VisitedDoors int     `json:"visitedDoors"`
	Engine       string  `json:"engine"`
	Epoch        uint64  `json:"epoch"`
}

func (s *TenantServer) handleRange(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	p, err := pointParam(r, "")
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	radius, err := floatParam(r, "r")
	if err != nil || !(radius >= 0) { // NaN fails too; +Inf means unbounded
		s.fail(w, http.StatusBadRequest, "bad radius")
		return
	}
	ctx, cancel := s.queryCtx(r, obs.OpRange)
	defer cancel()
	var qst query.Stats
	ids, engine, err := v.Range(ctx, p, radius, &qst, r.URL.Query().Get("engine"))
	if err != nil {
		s.failQuery(w, err, &qst)
		return
	}
	if ids == nil {
		ids = []int32{}
	}
	s.writeJSON(w, http.StatusOK, rangeResponse{
		Objects: ids, VisitedDoors: qst.VisitedDoors, Engine: engine, Epoch: v.Epoch(),
	})
}

type knnResponse struct {
	Neighbors    []query.Neighbor `json:"neighbors"`
	VisitedDoors int              `json:"visitedDoors"`
	Engine       string           `json:"engine"`
	Epoch        uint64           `json:"epoch"`
}

func (s *TenantServer) handleKNN(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	p, err := pointParam(r, "")
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	k, err := kParam(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.queryCtx(r, obs.OpKNN)
	defer cancel()
	var qst query.Stats
	nn, engine, err := v.KNN(ctx, p, k, &qst, r.URL.Query().Get("engine"))
	if err != nil {
		s.failQuery(w, err, &qst)
		return
	}
	if nn == nil {
		nn = []query.Neighbor{}
	}
	s.writeJSON(w, http.StatusOK, knnResponse{
		Neighbors: nn, VisitedDoors: qst.VisitedDoors, Engine: engine, Epoch: v.Epoch(),
	})
}

type spdResponse struct {
	Dist         float64      `json:"dist"`
	Doors        []int32      `json:"doors"`
	Geom         [][3]float64 `json:"geometry"` // (x, y, floor) polyline via door points
	VisitedDoors int          `json:"visitedDoors"`
	Engine       string       `json:"engine"`
	Epoch        uint64       `json:"epoch"`
}

func (s *TenantServer) handleSPD(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	p, err := pointParam(r, "")
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	q, err := pointParam(r, "2")
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.queryCtx(r, obs.OpSPD)
	defer cancel()
	var qst query.Stats
	path, engine, err := v.SPD(ctx, p, q, &qst, r.URL.Query().Get("engine"))
	if err != nil {
		s.failQuery(w, err, &qst)
		return
	}
	resp := spdResponse{
		Dist: path.Dist, Doors: make([]int32, 0, len(path.Doors)),
		VisitedDoors: qst.VisitedDoors, Engine: engine, Epoch: v.Epoch(),
	}
	resp.Geom = append(resp.Geom, [3]float64{p.X, p.Y, float64(p.Floor)})
	for _, d := range path.Doors {
		resp.Doors = append(resp.Doors, int32(d))
		dp := v.Space.DoorPoint(d)
		resp.Geom = append(resp.Geom, [3]float64{dp.X, dp.Y, float64(dp.Floor)})
	}
	resp.Geom = append(resp.Geom, [3]float64{q.X, q.Y, float64(q.Floor)})
	s.writeJSON(w, http.StatusOK, resp)
}

type partitionJSON struct {
	ID    int32        `json:"id"`
	Kind  string       `json:"kind"`
	Floor int16        `json:"floor"`
	Poly  [][2]float64 `json:"poly"`
}

func (s *TenantServer) handlePartitions(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	var floor int64
	if raw := r.URL.Query().Get("floor"); raw != "" {
		var err error
		if floor, err = strconv.ParseInt(raw, 10, 16); err != nil {
			s.fail(w, http.StatusBadRequest, "bad floor")
			return
		}
	}
	ids := v.Space.OnFloor(int16(floor))
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

// handleTrace runs one query with per-stage tracing and returns the span
// breakdown instead of the full result: ?op=range|knn|spd (route is an
// alias of spd) plus the target endpoint's usual parameters, routed like
// the endpoint itself. Query-level failures (no host, unreachable, budget)
// still produce a 200 — the trace of a failed query is the point of the
// endpoint — with the error recorded in the payload; only parameter errors
// and unknown engines are 4xx.
func (s *TenantServer) handleTrace(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	op := r.URL.Query().Get("op")
	if op == "route" {
		op = obs.OpSPD
	}
	p, err := pointParam(r, "")
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	tr := obs.NewTrace()
	ctx, cancel := s.queryCtx(r, op)
	defer cancel()
	ctx = obs.WithTrace(ctx, tr)
	override := r.URL.Query().Get("engine")
	var qst query.Stats
	var qerr error
	var result any
	switch op {
	case obs.OpRange:
		radius, err := floatParam(r, "r")
		if err != nil || !(radius >= 0) { // NaN fails too; +Inf means unbounded
			s.fail(w, http.StatusBadRequest, "bad radius")
			return
		}
		var ids []int32
		ids, _, qerr = v.Range(ctx, p, radius, &qst, override)
		result = map[string]any{"objects": len(ids)}
	case obs.OpKNN:
		k, err := kParam(r)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		var nn []query.Neighbor
		nn, _, qerr = v.KNN(ctx, p, k, &qst, override)
		result = map[string]any{"neighbors": len(nn)}
	case obs.OpSPD:
		q, err := pointParam(r, "2")
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		var path query.Path
		path, _, qerr = v.SPD(ctx, p, q, &qst, override)
		result = map[string]any{"dist": path.Dist, "doors": len(path.Doors)}
	default:
		s.fail(w, http.StatusBadRequest, "bad op %q (want range, knn, or spd)", op)
		return
	}
	if errors.Is(qerr, tenant.ErrUnknownEngine) {
		s.fail(w, http.StatusNotFound, "%v", qerr)
		return
	}
	queries := tr.Queries()
	if len(queries) == 0 {
		s.fail(w, http.StatusInternalServerError, "trace recorded no query")
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
	if qerr == nil {
		resp.Result = result
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
// table per query class with the evidence (decayed p50/p95 per engine,
// cumulative counts) behind each decision.
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
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Engine == "" {
		v.Router().Unpin(req.Op)
	} else if err := v.Router().Pin(req.Op, req.Engine); err != nil {
		s.fail(w, http.StatusUnprocessableEntity, "%v", err)
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
	// snapshot (-snapshot in isqserve).
	Path string `json:"path"`
}

// handleSwap loads a snapshot artifact and publishes it as the venue's next
// generation. The response reports the adopted generation; queries in
// flight during the load keep answering on the previous one.
func (s *TenantServer) handleSwap(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	var req swapRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	start := time.Now()
	nv, err := s.tier.SwapSnapshot(v.ID, req.Path)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, "swap: %v", err)
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
// engine × query class counters and p50/p95/p99 latency quantiles (the
// evidence the router reads), followed by the layer gauges.
func (s *TenantServer) handleMetrics(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = v.Registry().WriteText(w)
}
