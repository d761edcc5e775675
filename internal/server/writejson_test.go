package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWriteJSONUnencodablePayload is the regression test for the buffered
// response writer: a payload that fails mid-encode (json cannot represent
// +Inf) must produce a clean 500 with a JSON error body — not a truncated
// 200 whose WriteHeader already went out with the first encoded bytes.
func TestWriteJSONUnencodablePayload(t *testing.T) {
	s := &TenantServer{}
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]any{
		"pad": make([]int, 4096), // force the old streaming path past its first flush
		"bad": math.Inf(1),
	})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (encode failure must not commit the 200)", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not valid JSON: %v (%q)", err, rec.Body.String())
	}
	if body["error"] == "" || body["error"] == nil {
		t.Fatalf("error body missing error field: %v", body)
	}
	if got := s.EncodeErrors(); got != 1 {
		t.Fatalf("EncodeErrors = %d, want 1", got)
	}
}

// TestWriteJSONSuccessAtomic pins the happy path: the requested status and
// the complete body arrive together.
func TestWriteJSONSuccessAtomic(t *testing.T) {
	s := &TenantServer{}
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusTeapot, map[string]any{"ok": true})
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d, want 418", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["ok"] != true {
		t.Fatalf("body = %v", body)
	}
	if got := s.EncodeErrors(); got != 0 {
		t.Fatalf("EncodeErrors = %d, want 0", got)
	}
}
