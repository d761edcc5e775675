package server_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"indoorsq/internal/server"
	"indoorsq/internal/testspaces"
)

// newObsServer is newTestServer with the model engine only, keeping the
// server so tests can reach it.
func newObsServer(t *testing.T) (*httptest.Server, *server.TenantServer) {
	t.Helper()
	f := testspaces.NewStrip()
	srv := server.NewTenantServer(newStripTier(t, f, stripObjects(f), "IDModel"))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newObsServer(t)
	// One query of each type so the registry has three series to scrape.
	for _, url := range []string{
		ts.URL + "/v1/range?x=2.5&y=9&r=30",
		ts.URL + "/v1/knn?x=2.5&y=9&k=2",
		ts.URL + "/v1/route?x=2.5&y=9&x2=7.5&y2=9",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", url, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content-type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`isq_queries_total{engine="IDModel",op="range"} 1`,
		`isq_queries_total{engine="IDModel",op="knn"} 1`,
		`isq_queries_total{engine="IDModel",op="spd"} 1`,
		`isq_query_latency_seconds{engine="IDModel",op="spd",quantile="0.5"}`,
		`isq_query_latency_seconds{engine="IDModel",op="spd",quantile="0.95"}`,
		`isq_query_latency_seconds{engine="IDModel",op="spd",quantile="0.99"}`,
		`isq_query_latency_seconds_count{engine="IDModel",op="range"} 1`,
		"isq_distcache_size_bytes",
		"isq_doorgraph_sweeps_total",
		"isq_reach_sccs",
		"isq_reach_summary_bytes",
		"isq_reach_prune_hits",
		"isq_reach_prune_skips",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	ts, _ := newObsServer(t)
	var tr struct {
		Engine       string `json:"engine"`
		Op           string `json:"op"`
		Error        string `json:"error"`
		DurNs        int64  `json:"durNs"`
		VisitedDoors int    `json:"visitedDoors"`
		Spans        []struct {
			Stage   string `json:"stage"`
			StartNs int64  `json:"startNs"`
			DurNs   int64  `json:"durNs"`
		} `json:"spans"`
		Result map[string]any `json:"result"`
	}
	code := getJSON(t, ts.URL+"/v1/trace?op=route&x=2.5&y=9&x2=7.5&y2=9", &tr)
	if code != 200 {
		t.Fatalf("trace status %d", code)
	}
	if tr.Engine != "IDModel" || tr.Op != "spd" || tr.Error != "" {
		t.Fatalf("trace header = %+v", tr)
	}
	if tr.DurNs <= 0 || tr.VisitedDoors <= 0 {
		t.Fatalf("trace missing query costs: %+v", tr)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("trace recorded no stage spans")
	}
	known := map[string]bool{"host_lookup": true, "index_probe": true, "graph_expand": true, "refine": true}
	seen := map[string]bool{}
	for _, sp := range tr.Spans {
		if !known[sp.Stage] {
			t.Fatalf("unknown span stage %q", sp.Stage)
		}
		if sp.StartNs < 0 || sp.DurNs < 0 {
			t.Fatalf("negative span offsets: %+v", sp)
		}
		seen[sp.Stage] = true
	}
	if !seen["host_lookup"] || !seen["graph_expand"] {
		t.Fatalf("route trace missing core stages: %v", seen)
	}
	if tr.Result["dist"] == nil {
		t.Fatalf("trace result missing dist: %v", tr.Result)
	}
}

func TestTraceEndpointFailedQueryStillTraces(t *testing.T) {
	ts, _ := newObsServer(t)
	var tr struct {
		Error  string         `json:"error"`
		Result map[string]any `json:"result"`
	}
	// (50, 50) is outside every partition: the query fails with ErrNoHost,
	// but the trace of the failure is still the answer.
	code := getJSON(t, ts.URL+"/v1/trace?op=range&x=50&y=50&r=5", &tr)
	if code != 200 {
		t.Fatalf("trace status %d, want 200 with in-payload error", code)
	}
	if tr.Error == "" {
		t.Fatal("failed query should report its error in the trace payload")
	}
	if tr.Result != nil {
		t.Fatalf("failed query should omit the result summary, got %v", tr.Result)
	}
}

func TestTraceEndpointValidation(t *testing.T) {
	ts, _ := newObsServer(t)
	for _, url := range []string{
		ts.URL + "/v1/trace?op=walk&x=2.5&y=9",      // unknown op
		ts.URL + "/v1/trace?op=range&x=2.5&y=9",     // missing radius
		ts.URL + "/v1/trace?op=route&x=2.5&y=9",     // missing target point
		ts.URL + "/v1/trace?op=knn&x=2.5&y=9&k=abc", // bad k
		ts.URL + "/v1/trace?op=range&r=5",           // missing point
	} {
		var e map[string]any
		if code := getJSON(t, url, &e); code != 400 {
			t.Fatalf("%s: status %d, want 400", url, code)
		}
	}
}
