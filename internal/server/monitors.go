// Continuous-query monitor endpoints: standing range / kNN monitors over
// the moving-objects stream (internal/moving.Stream) of one venue
// generation, under /v1/venues/{id}/monitors and /v1/venues/{id}/updates.
// Monitors are generation-scoped serving state, not venue data: a snapshot
// swap closes the generation's stream (cached door-distance fields are
// topology-dependent), and clients re-register against the new generation.
// A request that loaded the retired generation answers 409, never touching
// the new generation's stream.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/tenant"
)

// monitorRequest is the POST body registering a monitor.
type monitorRequest struct {
	ID    int32   `json:"id"`
	Kind  string  `json:"kind"` // "range" (default) or "knn"
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Floor int16   `json:"floor"`
	R     float64 `json:"r"` // range radius
	K     int     `json:"k"` // knn k
	T     float64 `json:"t"` // registration timestamp
}

// eventJSON is one enter/leave delta on the wire.
type eventJSON struct {
	Query  int32   `json:"query"`
	Object int32   `json:"object"`
	Enter  bool    `json:"enter"`
	T      float64 `json:"t"`
}

func toEventJSON(evs []moving.Event) []eventJSON {
	out := make([]eventJSON, len(evs))
	for i, e := range evs {
		out[i] = eventJSON{Query: e.Query, Object: e.Object, Enter: e.Enter, T: e.T}
	}
	return out
}

// updateJSON is one position report in a POST /v1/updates batch. Part is
// optional: omitted, the server resolves the host partition itself (422
// when the point is outdoors).
type updateJSON struct {
	ID    int32   `json:"id"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Floor int16   `json:"floor"`
	Part  *int32  `json:"part"`
	T     float64 `json:"t"`
}

type updateRequest struct {
	Updates []updateJSON `json:"updates"`
}

// monitorErrStatus maps stream errors onto HTTP statuses: duplicate ids
// and a stream a swap has retired conflict (409), outdoor points are
// unprocessable (422), anything else gets fallback.
func monitorErrStatus(err error, fallback int) int {
	switch {
	case errors.Is(err, moving.ErrDuplicateQuery), errors.Is(err, moving.ErrStreamClosed):
		return http.StatusConflict
	case errors.Is(err, moving.ErrNotIndoors):
		return http.StatusUnprocessableEntity
	default:
		return fallback
	}
}

// registerMonitor validates and registers one monitor on mov.
func registerMonitor(mov *moving.Stream, req monitorRequest) ([]moving.Event, error) {
	p := indoor.At(req.X, req.Y, req.Floor)
	switch req.Kind {
	case "", "range":
		if req.R < 0 {
			return nil, fmt.Errorf("bad radius %v", req.R)
		}
		return mov.Register(req.ID, p, req.R, req.T)
	case "knn":
		return mov.RegisterKNN(req.ID, p, req.K, req.T)
	default:
		return nil, fmt.Errorf("bad kind %q (want range or knn)", req.Kind)
	}
}

// decodeUpdates converts a wire batch, resolving omitted partitions.
func decodeUpdates(sp *indoor.Space, req updateRequest) ([]moving.Update, error) {
	us := make([]moving.Update, len(req.Updates))
	for i, u := range req.Updates {
		p := indoor.At(u.X, u.Y, u.Floor)
		var part indoor.PartitionID
		if u.Part != nil {
			part = indoor.PartitionID(*u.Part)
		} else {
			v, ok := sp.HostPartition(p)
			if !ok {
				return nil, fmt.Errorf("update %d: object %d at %v is not indoors", i, u.ID, p)
			}
			part = v
		}
		us[i] = moving.Update{ID: u.ID, Loc: p, Part: part, T: u.T}
	}
	return us, nil
}

// monitorID parses the {mid} path segment.
func monitorID(r *http.Request) (int32, error) {
	v, err := strconv.ParseInt(r.PathValue("mid"), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad monitor id %q", r.PathValue("mid"))
	}
	return int32(v), nil
}

// serveMonitorStream streams a monitor's deltas as ndjson until the client
// disconnects or the monitor/stream closes. Events are pushed through a
// bounded subscription: a client that cannot keep up loses deltas (the
// dropped count is its signal to resync via the result endpoint) instead of
// stalling ingestion.
func serveMonitorStream(w http.ResponseWriter, r *http.Request, mov *moving.Stream, qid int32) (int, error) {
	sub, err := mov.Subscribe(qid, 256)
	if errors.Is(err, moving.ErrStreamClosed) {
		return http.StatusConflict, err
	}
	if err != nil {
		return http.StatusNotFound, err
	}
	defer sub.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return 0, nil
		case e, ok := <-sub.Events():
			if !ok {
				return 0, nil // monitor unregistered or generation swapped
			}
			if enc.Encode(eventJSON{Query: e.Query, Object: e.Object, Enter: e.Enter, T: e.T}) != nil {
				return 0, nil
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// failMissingMonitor answers a lookup that found no monitor qid: 409 when a
// swap has retired the stream the request loaded, 404 otherwise.
func (s *TenantServer) failMissingMonitor(w http.ResponseWriter, mov *moving.Stream, qid int32) {
	if mov.Closed() {
		s.fail(w, http.StatusConflict, "%v", moving.ErrStreamClosed)
		return
	}
	s.fail(w, http.StatusNotFound, "unknown monitor %d", qid)
}

func (s *TenantServer) handleMonitorList(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	mov := v.Stream()
	monitors := mov.Monitors()
	if mov.Closed() { // read after the listing: a retired stream lists nothing
		s.fail(w, http.StatusConflict, "%v", moving.ErrStreamClosed)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"venue":    v.ID,
		"epoch":    v.Epoch(),
		"monitors": monitors,
		"objects":  mov.NumObjects(),
	})
}

func (s *TenantServer) handleMonitorCreate(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	var req monitorRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	evs, err := registerMonitor(v.Stream(), req)
	if err != nil {
		s.fail(w, monitorErrStatus(err, http.StatusBadRequest), "%v", err) // bad kind, radius or k
		return
	}
	s.writeJSON(w, http.StatusCreated, map[string]any{
		"venue":  v.ID,
		"epoch":  v.Epoch(),
		"id":     req.ID,
		"events": toEventJSON(evs),
	})
}

func (s *TenantServer) handleMonitorDelete(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	qid, err := monitorID(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !v.Stream().Unregister(qid) {
		s.failMissingMonitor(w, v.Stream(), qid)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"venue": v.ID, "epoch": v.Epoch(), "id": qid, "removed": true})
}

func (s *TenantServer) handleMonitorResult(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	qid, err := monitorID(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	mov := v.Stream()
	ids := mov.Result(qid)
	if ids == nil {
		s.failMissingMonitor(w, mov, qid)
		return
	}
	resp := map[string]any{"venue": v.ID, "epoch": v.Epoch(), "id": qid, "objects": ids}
	if nn := mov.Neighbors(qid); nn != nil {
		resp["neighbors"] = nn
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *TenantServer) handleMonitorStream(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	qid, err := monitorID(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if code, err := serveMonitorStream(w, r, v.Stream(), qid); err != nil {
		s.fail(w, code, "%v", err)
	}
}

func (s *TenantServer) handleUpdates(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	var req updateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	us, err := decodeUpdates(v.Space, req)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	evs, err := v.Stream().ApplyBatch(us)
	if err != nil {
		// Anything but a retired stream is a position its explicit
		// partition does not host.
		s.fail(w, monitorErrStatus(err, http.StatusUnprocessableEntity), "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"venue":   v.ID,
		"epoch":   v.Epoch(),
		"applied": len(us),
		"events":  toEventJSON(evs),
	})
}
