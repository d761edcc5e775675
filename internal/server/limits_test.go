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
	// The cap holds for the whole body, not just its JSON value: a valid
	// value followed by 2 MiB of whitespace is 413 too.
	pad := strings.Repeat(" ", 2<<20)
	for path, value := range bodyValues {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(value+pad)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a padded value: status %d, want 413 (%s)", path, rec.Code, rec.Body)
		}
	}
	if got := numObjects(t, ts.URL); got != before {
		t.Fatalf("objects %d after the oversized body, want %d", got, before)
	}
	var list struct {
		Monitors []struct{} `json:"monitors"`
	}
	if getJSON(t, ts.URL+"/v1/monitors", &list); len(list.Monitors) != 0 {
		t.Fatalf("%d monitors registered by oversized bodies", len(list.Monitors))
	}
}

// bodyValues is one valid JSON value per endpoint that decodes a body.
var bodyValues = map[string]string{
	"/v1/updates":            `{"updates":[]}`,
	"/v1/monitors":           `{"id":77,"x":2.5,"y":8,"r":5}`,
	"/v1/swap":               `{"path":""}`,
	"/v1/venues/strip/route": `{"op":"spd"}`,
}

// TestBodyTrailingData posts a valid value followed by a second value or by
// garbage to every endpoint that decodes JSON: each answers 400, and
// neither the update batch in the second value nor the monitor is applied.
func TestBodyTrailingData(t *testing.T) {
	f := testspaces.NewStrip()
	h := server.NewTenantServer(newStripTier(t, f, stripObjects(f), "IDModel", "VIPTree")).Handler()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	before := numObjects(t, ts.URL)

	for path, value := range bodyValues {
		for _, tail := range []string{updateBatch(2), " garbage", "\n{}", "]"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(value+tail)))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("POST %s %q: status %d, want 400 (%s)", path, value+tail, rec.Code, rec.Body)
			}
		}
	}
	if got := numObjects(t, ts.URL); got != before {
		t.Fatalf("objects %d after bodies with trailing data, want %d", got, before)
	}
	var list struct {
		Monitors []struct{} `json:"monitors"`
	}
	if getJSON(t, ts.URL+"/v1/monitors", &list); len(list.Monitors) != 0 {
		t.Fatalf("%d monitors registered by bodies with trailing data", len(list.Monitors))
	}
	// Trailing whitespace is still one value.
	if code := postJSON(t, ts.URL+"/v1/updates", updateBatch(2)+" \r\n\t", nil); code != http.StatusOK {
		t.Fatalf("batch with trailing whitespace: status %d, want 200", code)
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
