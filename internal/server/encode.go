package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/query"
)

// The range, kNN and SPD 200 bodies are the hot path of every query
// endpoint, and the update, monitor-result and monitor-create bodies that
// of ingestion, so they are appended into a pooled buffer instead of going
// through encoding/json's reflection. The contract is byte identity with
// what json.NewEncoder(w).Encode wrote for the equivalent struct or map
// (a map's keys sorted): the same field order, encoding/json's string
// escaping and float format, and the trailing "\n". A non-finite float,
// which encoding/json refuses, makes the encoder report failure so the
// handler answers the same 500 as writeJSON. FuzzQueryResponseJSON and
// FuzzUpdatesBody hold the encoders to that contract.

// queryMeta is the tail every query body ends with: who served the query
// and which generation answered.
type queryMeta struct {
	visitedDoors int
	engine       string
	epoch        uint64
}

// appendRange appends {"objects":[...],<meta>}\n.
func appendRange(b []byte, ids []int32, m queryMeta) []byte {
	b = appendIDs(append(b, `{"objects":`...), ids)
	return appendMeta(append(b, ','), m)
}

// appendKNN appends {"neighbors":[{"ID":..,"Dist":..},...],<meta>}\n,
// reporting false when a distance is not finite.
func appendKNN(b []byte, nn []query.Neighbor, m queryMeta) ([]byte, bool) {
	b, ok := appendNeighbors(append(b, `{"neighbors":`...), nn)
	return appendMeta(append(b, ','), m), ok
}

// appendIDs appends [id,...].
func appendIDs(b []byte, ids []int32) []byte {
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}

// appendNeighbors appends [{"ID":..,"Dist":..},...], reporting false when a
// distance is not finite.
func appendNeighbors(b []byte, nn []query.Neighbor) ([]byte, bool) {
	b = append(b, '[')
	for i, n := range nn {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"ID":`...)
		b = strconv.AppendInt(b, int64(n.ID), 10)
		b = append(b, `,"Dist":`...)
		var ok bool
		if b, ok = appendFloat(b, n.Dist); !ok {
			return b, false
		}
		b = append(b, '}')
	}
	return append(b, ']'), true
}

// appendEvents appends [{"query":..,"object":..,"enter":..,"t":..},...],
// reporting false when a timestamp is not finite. Events come sorted by
// time, a few per timestamp, so a timestamp bit-equal to the previous
// event's copies that event's bytes instead of formatting the float again.
func appendEvents(b []byte, evs []moving.Event) ([]byte, bool) {
	b = append(b, '[')
	var tLo, tHi int // b[tLo:tHi] is the previous event's timestamp
	for i, e := range evs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"query":`...)
		b = strconv.AppendInt(b, int64(e.Query), 10)
		b = append(b, `,"object":`...)
		b = strconv.AppendInt(b, int64(e.Object), 10)
		b = append(b, `,"enter":`...)
		b = strconv.AppendBool(b, e.Enter)
		b = append(b, `,"t":`...)
		if i > 0 && math.Float64bits(e.T) == math.Float64bits(evs[i-1].T) {
			b = append(b, b[tLo:tHi]...)
		} else {
			tLo = len(b)
			var ok bool
			if b, ok = appendFloat(b, e.T); !ok {
				return b, false
			}
			tHi = len(b)
		}
		b = append(b, '}')
	}
	return append(b, ']'), true
}

// appendUpdates appends the POST .../updates body,
// {"applied":..,"epoch":..,"events":[...],"venue":..}\n.
func appendUpdates(b []byte, applied int, evs []moving.Event, epoch uint64, venue string) ([]byte, bool) {
	b = strconv.AppendInt(append(b, `{"applied":`...), int64(applied), 10)
	b = strconv.AppendUint(append(b, `,"epoch":`...), epoch, 10)
	b, ok := appendEvents(append(b, `,"events":`...), evs)
	b = appendString(append(b, `,"venue":`...), venue)
	return append(b, "}\n"...), ok
}

// appendMonitorCreated appends the POST .../monitors body,
// {"epoch":..,"events":[...],"id":..,"venue":..}\n.
func appendMonitorCreated(b []byte, epoch uint64, evs []moving.Event, id int32, venue string) ([]byte, bool) {
	b = strconv.AppendUint(append(b, `{"epoch":`...), epoch, 10)
	b, ok := appendEvents(append(b, `,"events":`...), evs)
	b = strconv.AppendInt(append(b, `,"id":`...), int64(id), 10)
	b = appendString(append(b, `,"venue":`...), venue)
	return append(b, "}\n"...), ok
}

// appendMonitorResult appends the GET .../monitors/{mid}/result body,
// {"epoch":..,"id":..,"neighbors":[...],"objects":[...],"venue":..}\n,
// where neighbors appears for a kNN monitor (nn non-nil) only.
func appendMonitorResult(b []byte, epoch uint64, id int32, ids []int32, nn []query.Neighbor, venue string) ([]byte, bool) {
	b = strconv.AppendUint(append(b, `{"epoch":`...), epoch, 10)
	b = strconv.AppendInt(append(b, `,"id":`...), int64(id), 10)
	ok := true
	if nn != nil {
		b, ok = appendNeighbors(append(b, `,"neighbors":`...), nn)
	}
	b = appendIDs(append(b, `,"objects":`...), ids)
	b = appendString(append(b, `,"venue":`...), venue)
	return append(b, "}\n"...), ok
}

// doorPointer locates doors for the SPD geometry (an *indoor.Space).
type doorPointer interface {
	DoorPoint(indoor.DoorID) indoor.Point
}

// appendSPD appends {"dist":..,"doors":[...],"geometry":[[x,y,floor],...],
// <meta>}\n, where the geometry is the polyline src, each door's point, dst.
// It reports false when a coordinate or the distance is not finite.
func appendSPD(b []byte, dist float64, doors []indoor.DoorID, src, dst indoor.Point, at doorPointer, m queryMeta) ([]byte, bool) {
	b = append(b, `{"dist":`...)
	b, ok := appendFloat(b, dist)
	b = append(b, `,"doors":[`...)
	for i, d := range doors {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	b = append(b, `],"geometry":[`...)
	b, ok = appendPoint(b, src, ok)
	for _, d := range doors {
		b, ok = appendPoint(append(b, ','), at.DoorPoint(d), ok)
	}
	b, ok = appendPoint(append(b, ','), dst, ok)
	return appendMeta(append(b, "],"...), m), ok
}

// appendPoint appends [x,y,floor], folding its finiteness into ok.
func appendPoint(b []byte, p indoor.Point, ok bool) ([]byte, bool) {
	b = append(b, '[')
	b, okX := appendFloat(b, p.X)
	b, okY := appendFloat(append(b, ','), p.Y)
	b = strconv.AppendInt(append(b, ','), int64(p.Floor), 10)
	return append(b, ']'), ok && okX && okY
}

// appendMeta appends "visitedDoors":..,"engine":..,"epoch":..}\n.
func appendMeta(b []byte, m queryMeta) []byte {
	b = append(b, `"visitedDoors":`...)
	b = strconv.AppendInt(b, int64(m.visitedDoors), 10)
	b = append(b, `,"engine":`...)
	b = appendString(b, m.engine)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, m.epoch, 10)
	return append(b, "}\n"...)
}

// appendFloat appends f in encoding/json's float64 format: 'f', or 'e'
// below 1e-6 or at/above 1e21 with a one-digit negative exponent unpadded
// (e-07 becomes e-7). It reports false, appending nothing, for NaN and ±Inf.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// appendString appends s as a JSON string. Engine names are plain ASCII, so
// the common case is a copy between quotes; anything encoding/json would
// escape (quotes, backslashes, control bytes, HTML-sensitive <>&, non-ASCII)
// goes through json.Marshal itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// maxPooledBody caps the buffers kept for reuse, so one huge answer does
// not pin its buffer for the life of the process.
const maxPooledBody = 64 << 10

// bodyBufs holds the buffers request bodies are read into and response
// bodies appended to.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// putBodyBuf returns bp to bodyBufs holding b, the buffer last grown from
// it, unless b outgrew maxPooledBody.
func putBodyBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyBufs.Put(bp)
	}
}

// writeBody answers code with body, or, when the encoder failed, the 500
// that writeJSON gives an unencodable payload, counted in encodeErrors.
func (s *TenantServer) writeBody(w http.ResponseWriter, code int, body []byte, ok bool) {
	if !ok {
		s.encodeErrs.Add(1)
		writeEncodeFailure(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}
