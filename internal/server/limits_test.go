package server_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"indoorsq/internal/server"
	"indoorsq/internal/testspaces"
)

// numObjects reads the object count of the one-venue server's stream.
func numObjects(t *testing.T, url string) int {
	t.Helper()
	var list struct {
		Objects int `json:"objects"`
	}
	if code := getJSON(t, url+"/v1/monitors", &list); code != http.StatusOK {
		t.Fatalf("list monitors: status %d", code)
	}
	return list.Objects
}

// updateBatch is a POST .../updates body of n reports, all inside R1 of the
// strip fixture.
func updateBatch(n int) string {
	var b strings.Builder
	b.WriteString(`{"updates":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d,"x":2.5,"y":9,"t":%d}`, 100+i, i+1)
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestOversizedBodies posts a body just over the 1 MiB cap to every
// endpoint that decodes JSON: each answers 413, and the oversized update
// batch leaves the venue's stream untouched.
func TestOversizedBodies(t *testing.T) {
	f := testspaces.NewStrip()
	h := server.NewTenantServer(newStripTier(t, f, stripObjects(f), "IDModel", "VIPTree")).Handler()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	before := numObjects(t, ts.URL)

	huge := updateBatch(40_000) // ~1.3 MiB of valid reports
	if len(huge) <= 1<<20 {
		t.Fatalf("test body is %d bytes, want over 1 MiB", len(huge))
	}
	for _, path := range []string{
		"/v1/updates",
		"/v1/monitors",
		"/v1/swap",
		"/v1/venues/strip/route",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(huge)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d bytes: status %d, want 413 (%s)", path, len(huge), rec.Code, rec.Body)
		}
	}
	if got := numObjects(t, ts.URL); got != before {
		t.Fatalf("objects %d after the oversized body, want %d", got, before)
	}
}

// TestOversizedUpdateBatch posts one report more than the batch cap, well
// under the body cap: 413, nothing applied. A batch at the cap is applied.
func TestOversizedUpdateBatch(t *testing.T) {
	ts, _ := newTestServer(t)
	before := numObjects(t, ts.URL)

	body := updateBatch(4097)
	if len(body) >= 1<<20 {
		t.Fatalf("test body is %d bytes, want under 1 MiB", len(body))
	}
	if code := postJSON(t, ts.URL+"/v1/updates", body, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("4097 updates: status %d, want 413", code)
	}
	if got := numObjects(t, ts.URL); got != before {
		t.Fatalf("objects %d after the rejected batch, want %d", got, before)
	}

	var applied struct {
		Applied int `json:"applied"`
	}
	if code := postJSON(t, ts.URL+"/v1/updates", updateBatch(4096), &applied); code != http.StatusOK {
		t.Fatalf("4096 updates: status %d, want 200", code)
	}
	if applied.Applied != 4096 || numObjects(t, ts.URL) != before+4096 {
		t.Fatalf("applied %d, objects %d; want 4096 applied over %d objects", applied.Applied, numObjects(t, ts.URL), before)
	}
}
