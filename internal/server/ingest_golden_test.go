package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"indoorsq/internal/server"
	"indoorsq/internal/testspaces"
)

// ingestRow is one recorded request of the ingest sequence: method, path
// and JSON body sent, the status answered and, for 2xx rows, the exact
// response body.
type ingestRow struct {
	Method string `json:"method"`
	URL    string `json:"url"`
	Req    string `json:"req,omitempty"`
	Status int    `json:"status"`
	Body   string `json:"body,omitempty"`
}

// ingestRequests is a fixed, stateful request sequence over the strip
// fixture's monitor and update endpoints: range and kNN registrations,
// update batches that emit enter and leave events with and without an
// explicit partition, bodies encoding/json accepts outside the canonical
// shape (other key casing, unknown keys, a null list), malformed and
// outdoor batches, and result reads of both monitor kinds.
func ingestRequests(f *testspaces.Strip) []ingestRow {
	post := func(url, body string) ingestRow { return ingestRow{Method: http.MethodPost, URL: url, Req: body} }
	get := func(url string) ingestRow { return ingestRow{Method: http.MethodGet, URL: url} }
	return []ingestRow{
		post("/v1/monitors", `{"id":1,"kind":"range","x":2.5,"y":8,"floor":0,"r":5,"t":0}`),
		post("/v1/venues/strip/monitors", `{"id":2,"kind":"knn","x":7.5,"y":8,"k":2,"t":0}`),
		get("/v1/monitors/2/result"),
		post("/v1/monitors", `{"id":3,"x":12,"y":5,"r":6,"t":0.5}`),
		post("/v1/monitors", `{"id":4,"kind":"knn","x":17.5,"y":2,"k":1,"t":0.5}`),
		// Enters, partition resolved by the server.
		post("/v1/updates", `{"updates":[{"id":7,"x":2.5,"y":9,"t":1},{"id":8,"x":7.5,"y":9,"floor":0,"t":2},{"id":9,"x":12,"y":5,"t":3}]}`),
		// Explicit partitions, a null part, and timestamps on both sides of
		// encoding/json's exponent thresholds.
		post("/v1/venues/strip/updates", fmt.Sprintf(
			`{"updates":[{"id":10,"x":17,"y":8,"floor":0,"t":4,"part":%d},{"id":11,"x":12.25,"y":2.5,"t":4.000001,"part":%d},{"id":12,"x":3,"y":7,"t":1e21,"part":null}]}`,
			f.R4, f.R7)),
		post("/v1/updates", `{"updates":[{"id":13,"x":2,"y":8,"t":1e-7},{"id":14,"x":6,"y":1,"t":-0.000001},{"id":15,"x":4,"y":9,"t":-0}]}`),
		// Leaves: object 7 walks from R1 to R5, 9 from the hall to R3,
		// 8 out of R2 to R4.
		post("/v1/updates", fmt.Sprintf(
			`{"updates":[{"id":7,"x":2.5,"y":2,"t":5},{"id":9,"x":14,"y":9.5,"t":6,"part":%d},{"id":8,"x":19,"y":9,"t":7}]}`, f.R3)),
		get("/v1/monitors/1/result"),
		get("/v1/monitors/2/result"),
		get("/v1/venues/strip/monitors/3/result"),
		get("/v1/monitors/4/result"),
		// Outdoors without a partition: 422, nothing applied.
		post("/v1/updates", `{"updates":[{"id":20,"x":2.5,"y":9,"t":8},{"id":21,"x":-50,"y":-50,"t":9}]}`),
		// A named partition that does not host the point: 422.
		post("/v1/updates", `{"updates":[{"id":30,"x":2.5,"y":9,"t":8,"part":99}]}`),
		// Bodies encoding/json accepts outside the canonical shape.
		post("/v1/updates", `{"updates":[{"ID":22,"X":2.5,"Y":9.5,"T":10}]}`),
		post("/v1/updates", `{"Updates":[{"Id":23,"x":7,"y":8,"Floor":0,"t":11,"PART":null}]}`),
		post("/v1/updates", `{"updates":[{"id":24,"x":3,"y":8,"t":12,"speed":1.5,"tag":{"a":[1,2]}}],"source":"gate"}`),
		post("/v1/updates", `{"updates":null}`),
		post("/v1/updates", `{"updates":[]}`),
		post("/v1/updates", "\t{ \"updates\" : [ { \"t\" : 13 , \"y\" : 9 , \"x\" : 4 , \"id\" : 25 } ] }\r\n"),
		post("/v1/updates", `{"updates":[{"id":26,"x":2.5,"y":9,"t":14,"id":27}]}`),
		// Malformed: a fractional id, a floor beyond int16, a string id.
		post("/v1/updates", `{"updates":[{"id":1.0,"x":2.5,"y":9,"t":15}]}`),
		post("/v1/updates", `{"updates":[{"id":28,"x":2.5,"y":9,"floor":40000,"t":15}]}`),
		post("/v1/updates", `{"updates":[{"id":"29","x":2.5,"y":9,"t":15}]}`),
		get("/v1/monitors/1/result"),
		get("/v1/monitors/2/result"),
		get("/v1/monitors/4/result"),
		get("/v1/monitors"),
		// Unknown monitors.
		get("/v1/monitors/99/result"),
		get("/v1/venues/strip/monitors/98/result"),
	}
}

// TestIngestGolden replays ingestRequests against a fresh strip server and
// compares every answer with testdata/ingest_golden.json: 2xx bodies byte
// for byte, error rows by status plus the presence of an error field. Run
// with -update to re-record.
func TestIngestGolden(t *testing.T) {
	f := testspaces.NewStrip()
	h := server.NewTenantServer(newStripTier(t, f, stripObjects(f), "IDModel")).Handler()
	got := ingestRequests(f)
	for i := range got {
		row := &got[i]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(row.Method, row.URL, strings.NewReader(row.Req)))
		row.Status = rec.Code
		if rec.Code/100 == 2 {
			row.Body = rec.Body.String()
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s %s: status %d without an error field: %s", row.Method, row.URL, rec.Code, rec.Body)
		}
	}

	var want []ingestRow
	if !readGolden(t, "ingest_golden.json", got, &want) {
		return
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d rows, request list %d", len(want), len(got))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Method != w.Method || g.URL != w.URL || g.Req != w.Req {
			t.Fatalf("row %d: %s %s %s, golden %s %s %s", i, g.Method, g.URL, g.Req, w.Method, w.URL, w.Req)
		}
		if g.Status != w.Status {
			t.Errorf("row %d %s %s: status %d, golden %d", i, w.Method, w.URL, g.Status, w.Status)
			continue
		}
		if g.Body != w.Body {
			t.Errorf("row %d %s %s: body\n%s\ngolden\n%s", i, w.Method, w.URL, g.Body, w.Body)
		}
	}
}
