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

// eventJSON is one enter/leave delta of the ndjson stream; appendEvents
// writes the same shape.
type eventJSON struct {
	Query  int32   `json:"query"`
	Object int32   `json:"object"`
	Enter  bool    `json:"enter"`
	T      float64 `json:"t"`
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

// registerMonitor validates and registers one monitor on mov.
func registerMonitor(mov *moving.Stream, req monitorRequest) ([]moving.Event, error) {
	p := indoor.At(req.X, req.Y, req.Floor)
	switch req.Kind {
	case "", "range":
		if req.R < 0 {
			return nil, fmt.Errorf("%w: radius %v", errBadRequest, req.R)
		}
		return mov.Register(req.ID, p, req.R, req.T)
	case "knn":
		return mov.RegisterKNN(req.ID, p, req.K, req.T)
	default:
		return nil, fmt.Errorf("%w: kind %q (want range or knn)", errBadRequest, req.Kind)
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
				return nil, fmt.Errorf("update %d: object %d at %v: %w", i, u.ID, p, moving.ErrNotIndoors)
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
		return 0, fmt.Errorf("%w: monitor id %q", errBadRequest, r.PathValue("mid"))
	}
	return int32(v), nil
}

// serveMonitorStream streams a monitor's deltas as ndjson until the client
// disconnects or the monitor/stream closes. Events are pushed through a
// bounded subscription: a client that cannot keep up loses deltas (the
// dropped count is its signal to resync via the result endpoint) instead of
// stalling ingestion.
func serveMonitorStream(w http.ResponseWriter, r *http.Request, mov *moving.Stream, qid int32) error {
	sub, err := mov.Subscribe(qid, 256)
	if err != nil {
		return missingMonitor(mov, qid)
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
			return nil
		case e, ok := <-sub.Events():
			if !ok {
				return nil // monitor unregistered or generation swapped
			}
			if enc.Encode(eventJSON{Query: e.Query, Object: e.Object, Enter: e.Enter, T: e.T}) != nil {
				return nil
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// missingMonitor is the error of a lookup that found no monitor qid: the
// retired stream when a swap closed the one the request loaded, an unknown
// monitor otherwise.
func missingMonitor(mov *moving.Stream, qid int32) error {
	if mov.Closed() {
		return moving.ErrStreamClosed
	}
	return fmt.Errorf("%w: unknown monitor %d", errNotFound, qid)
}

func (s *TenantServer) handleMonitorList(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	mov := v.Stream()
	monitors := mov.Monitors()
	if mov.Closed() { // read after the listing: a retired stream lists nothing
		s.fail(w, moving.ErrStreamClosed)
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
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	evs, err := registerMonitor(v.Stream(), req)
	if err != nil {
		s.fail(w, err)
		return
	}
	bp := bodyBufs.Get().(*[]byte)
	b, ok := appendMonitorCreated((*bp)[:0], v.Epoch(), evs, req.ID, v.ID)
	s.writeBody(w, http.StatusCreated, b, ok)
	putBodyBuf(bp, b)
}

func (s *TenantServer) handleMonitorDelete(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	qid, err := monitorID(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	if !v.Stream().Unregister(qid) {
		s.fail(w, missingMonitor(v.Stream(), qid))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"venue": v.ID, "epoch": v.Epoch(), "id": qid, "removed": true})
}

func (s *TenantServer) handleMonitorResult(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	qid, err := monitorID(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	mov := v.Stream()
	ids, nn := mov.Read(qid)
	if ids == nil {
		s.fail(w, missingMonitor(mov, qid))
		return
	}
	bp := bodyBufs.Get().(*[]byte)
	b, ok := appendMonitorResult((*bp)[:0], v.Epoch(), qid, ids, nn, v.ID)
	s.writeBody(w, http.StatusOK, b, ok)
	putBodyBuf(bp, b)
}

func (s *TenantServer) handleMonitorStream(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	qid, err := monitorID(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	if err := serveMonitorStream(w, r, v.Stream(), qid); err != nil {
		s.fail(w, err)
	}
}

// handleUpdates reads the batch into a pooled buffer, decodes it (see
// decodeUpdateBody), applies it, and appends the response into the same
// buffer.
func (s *TenantServer) handleUpdates(w http.ResponseWriter, r *http.Request, v *tenant.Venue) {
	bp := bodyBufs.Get().(*[]byte)
	b, err := readBody(w, r, (*bp)[:0])
	defer func() { putBodyBuf(bp, b) }()
	var req updateRequest
	if err == nil {
		err = decodeUpdateBody(b, &req)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	if n := len(req.Updates); n > maxUpdateBatch {
		s.fail(w, fmt.Errorf("%w: %d updates in one batch, at most %d", errTooLarge, n, maxUpdateBatch))
		return
	}
	us, err := decodeUpdates(v.Space, req)
	if err != nil {
		s.fail(w, err)
		return
	}
	evs, err := v.Stream().ApplyBatch(us)
	if err != nil {
		s.fail(w, err)
		return
	}
	var ok bool
	b, ok = appendUpdates(b[:0], len(us), evs, v.Epoch(), v.ID)
	s.writeBody(w, http.StatusOK, b, ok)
}
