package server_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"indoorsq/internal/server"
	"indoorsq/internal/testspaces"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current server")

// goldenRow is one recorded request: the status it answered and, for 2xx
// rows, the exact response body.
type goldenRow struct {
	URL    string `json:"url"`
	Status int    `json:"status"`
	Body   string `json:"body,omitempty"`
}

// goldenURLs is a fixed request list over the strip fixture: range, kNN and
// SPD through both path forms, one row per ?engine= override, and the
// 400/404/422 rows of the error mapping.
var goldenURLs = func() []string {
	engines := []string{"IDModel", "IDIndex", "CIndex", "IPTree", "VIPTree"}
	urls := []string{
		"/v1/range?x=2.5&y=8&r=4",
		"/v1/venues/strip/range?x=2.5&y=8&r=4",
		"/v1/range?x=2.5&y=8&r=Inf",
		"/v1/range?x=12&y=2&r=30&floor=0",
		"/v1/knn?x=2.5&y=8&k=2",
		"/v1/venues/strip/knn?x=2.5&y=8&k=2",
		"/v1/knn?x=2.5&y=8",
		"/v1/route?x=2.5&y=8&x2=17&y2=2",
		"/v1/venues/strip/spd?x=2.5&y=8&x2=17&y2=2",
		"/v1/route?x=17&y=2&x2=7.5&y2=2",
	}
	for _, e := range engines {
		urls = append(urls,
			"/v1/venues/strip/range?x=12&y=5&r=9&engine="+e,
			"/v1/knn?x=17&y=2&k=3&engine="+e,
			"/v1/route?x=7.5&y=2&x2=17&y2=2&engine="+e,
		)
	}
	return append(urls,
		// 404: unknown engine or venue.
		"/v1/range?x=2.5&y=8&r=4&engine=Nope",
		"/v1/venues/strip/knn?x=2.5&y=8&k=2&engine=Nope",
		"/v1/venues/strip/spd?x=2.5&y=8&x2=17&y2=2&engine=Nope",
		"/v1/venues/nope/range?x=2.5&y=8&r=4",
		"/v1/trace?op=knn&x=2.5&y=8&k=2&engine=Nope",
		// 400: malformed or invalid parameters.
		"/v1/range?y=8&r=4",
		"/v1/range?x=2.5&y=8",
		"/v1/range?x=2.5&y=8&r=-1",
		"/v1/range?x=2.5&y=8&r=NaN",
		"/v1/range?x=2.5&y=8&r=4&floor=65536",
		"/v1/knn?x=2.5&y=8&k=-1",
		"/v1/knn?x=2.5&y=8&k=abc",
		"/v1/route?x=2.5&y=8",
		"/v1/trace?op=bogus&x=2.5&y=8",
		// 422: points outside the space.
		"/v1/range?x=-99&y=-99&r=4",
		"/v1/venues/strip/knn?x=-99&y=-99&k=2",
		"/v1/route?x=2.5&y=8&x2=-99&y2=-99",
	)
}()

// TestGoldenResponses replays goldenURLs against a strip server serving all
// five engines (pinned to IDModel) and compares each answer with the
// recorded one: 2xx bodies byte for byte, error rows by status plus the
// presence of an error field. Run with -update to re-record.
func TestGoldenResponses(t *testing.T) {
	f := testspaces.NewStrip()
	srv := server.NewTenantServer(newStripTier(t, f, stripObjects(f),
		"IDModel", "IDIndex", "CIndex", "IPTree", "VIPTree"))
	h := srv.Handler()
	got := make([]goldenRow, len(goldenURLs))
	for i, url := range goldenURLs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		got[i] = goldenRow{URL: url, Status: rec.Code}
		if rec.Code/100 == 2 {
			got[i].Body = rec.Body.String()
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: status %d without an error field: %s", url, rec.Code, rec.Body.String())
		}
	}

	var want []goldenRow
	if !readGolden(t, "golden.json", got, &want) {
		return
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d rows, request list %d", len(want), len(got))
	}
	for i := range want {
		if got[i].URL != want[i].URL {
			t.Fatalf("row %d: url %s, golden %s", i, got[i].URL, want[i].URL)
		}
		if got[i].Status != want[i].Status {
			t.Errorf("%s: status %d, golden %d", want[i].URL, got[i].Status, want[i].Status)
			continue
		}
		if got[i].Body != want[i].Body {
			t.Errorf("%s: body\n%s\ngolden\n%s", want[i].URL, got[i].Body, want[i].Body)
		}
	}
}

// readGolden decodes testdata/name into want and reports true; with
// -update it instead rewrites the file from got and reports false.
func readGolden(t *testing.T, name string, got, want any) bool {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return false
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, want); err != nil {
		t.Fatal(err)
	}
	return true
}
