package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/distec/distec"
)

// graphToSpec renders g as the daemon's edge-list request body.
func graphToSpec(g *distec.Graph) graphSpec {
	spec := graphSpec{N: g.N(), Edges: make([][2]int, 0, g.M())}
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(distec.EdgeID(e))
		spec.Edges = append(spec.Edges, [2]int{u, v})
	}
	return spec
}

func newTestServer(t *testing.T) (*httptest.Server, *distec.Pool) {
	ts, _, pool := newTestServerCfg(t, daemonConfig{})
	return ts, pool
}

// newTestServerCfg builds a daemon with the given config, exposing the
// *server for tests that poke lifecycle internals.
func newTestServerCfg(t *testing.T, cfg daemonConfig) (*httptest.Server, *server, *distec.Pool) {
	t.Helper()
	pool := distec.NewPool(distec.PoolOptions{Workers: 2})
	d, err := newDaemon(pool, cfg)
	if err != nil {
		pool.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.mux)
	t.Cleanup(func() {
		ts.Close()
		d.close()
		pool.Close()
	})
	return ts, d, pool
}

func postColor(t *testing.T, ts *httptest.Server, req colorRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/color", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestColorEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	g := distec.RandomRegular(48, 6, 17)
	spec := graphToSpec(g)

	resp, body := postColor(t, ts, colorRequest{Graph: spec, Algorithm: "pr01"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr colorResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Verified {
		t.Fatal("response not verified")
	}
	if err := distec.Verify(g, cr.Colors); err != nil {
		t.Fatalf("returned coloring invalid: %v", err)
	}
	// Bit-identical to the one-shot sequential API.
	want, err := distec.ColorEdges(g, distec.Options{Algorithm: distec.PR01})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Rounds != want.Rounds || cr.Messages != want.Messages {
		t.Fatalf("stats %d/%d, want %d/%d", cr.Rounds, cr.Messages, want.Rounds, want.Messages)
	}
	for e := range want.Colors {
		if cr.Colors[e] != want.Colors[e] {
			t.Fatalf("edge %d: %d, want %d", e, cr.Colors[e], want.Colors[e])
		}
	}
}

func TestColorListAndExtend(t *testing.T) {
	ts, _ := newTestServer(t)
	g := distec.Cycle(12)
	spec := graphToSpec(g)
	palette := 5
	lists := make([][]int, g.M())
	for e := range lists {
		lists[e] = []int{0, 1, 2, 3, 4}
	}

	resp, body := postColor(t, ts, colorRequest{Graph: spec, Lists: lists, Palette: palette})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d: %s", resp.StatusCode, body)
	}
	var cr colorResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if err := distec.VerifyList(g, lists, cr.Colors); err != nil {
		t.Fatalf("list coloring invalid: %v", err)
	}

	partial := make([]int, g.M())
	for e := range partial {
		partial[e] = -1
	}
	partial[0] = 3
	resp, body = postColor(t, ts, colorRequest{Graph: spec, Lists: lists, Partial: partial, Palette: palette})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extend: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Colors[0] != 3 {
		t.Fatalf("extension dropped the fixed color: %v", cr.Colors[0])
	}
	if err := distec.Verify(g, cr.Colors); err != nil {
		t.Fatalf("extension invalid: %v", err)
	}
}

func TestColorBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"bad edge", `{"graph":{"n":3,"edges":[[0,7]]}}`, http.StatusBadRequest},
		{"self loop", `{"graph":{"n":3,"edges":[[1,1]]}}`, http.StatusBadRequest},
		{"unknown algorithm", `{"graph":{"n":3,"edges":[[0,1]]},"algorithm":"warp"}`, http.StatusBadRequest},
		{"lists without palette", `{"graph":{"n":3,"edges":[[0,1]]},"lists":[[0,1]]}`, http.StatusBadRequest},
		{"partial without lists", `{"graph":{"n":3,"edges":[[0,1]]},"partial":[-1],"palette":3}`, http.StatusBadRequest},
		{"bad palette", `{"graph":{"n":3,"edges":[[0,1],[1,2]]},"palette":1}`, http.StatusBadRequest},
		// A tiny body must not be able to force an O(n) or O(palette)
		// allocation.
		{"oversized n", `{"graph":{"n":2000000000,"edges":[[0,1]]}}`, http.StatusBadRequest},
		{"oversized palette", `{"graph":{"n":3,"edges":[[0,1]]},"palette":2000000000}`, http.StatusBadRequest},
		{"oversized extend palette", `{"graph":{"n":2,"edges":[[0,1]]},"lists":[[0]],"partial":[-1],"palette":2000000000}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/color", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
	// GET is not allowed on /v1/color.
	resp, err := http.Get(ts.URL + "/v1/color")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
}

func TestHealthzAndStats(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	postColor(t, ts, colorRequest{Graph: graphToSpec(distec.Cycle(10))})
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Submitted == 0 || stats.Workers == 0 || stats.HTTPRequests == 0 {
		t.Fatalf("stats look empty: %+v", stats)
	}
}

func TestColorTimeout(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := postColor(t, ts, colorRequest{
		Graph:     graphToSpec(distec.Cycle(30000)),
		Algorithm: "greedy-classes",
		TimeoutMS: 1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestSessionLifecycle drives a dynamic session end to end: create, update
// with inserts and deletes, read back, delete, and require a verified
// proper coloring at every step.
func TestSessionLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)
	g := distec.RandomRegular(32, 4, 5)

	resp, body := postJSON(t, ts.URL+"/v1/session", sessionRequest{Graph: graphToSpec(g)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.SessionID == "" || !sr.Verified {
		t.Fatalf("create response: %+v", sr)
	}
	if err := distec.Verify(g, sr.Colors); err != nil {
		t.Fatalf("initial coloring invalid: %v", err)
	}

	// A batch mixing an insert of a fresh edge and a delete of edge 0.
	u0, v0 := g.Endpoints(0)
	var iu, iv int
	for u := 0; u < g.N() && iu == iv; u++ {
		for v := u + 1; v < g.N(); v++ {
			if _, ok := g.HasEdge(u, v); !ok {
				iu, iv = u, v
				break
			}
		}
	}
	resp, body = postJSON(t, ts.URL+"/v1/session/"+sr.SessionID+"/update", updateRequest{
		Updates: []distec.Update{
			{Op: distec.InsertEdge, U: iu, V: iv},
			{Op: distec.DeleteEdge, U: u0, V: v0},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d: %s", resp.StatusCode, body)
	}
	var ur updateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if !ur.Verified || len(ur.Results) != 2 {
		t.Fatalf("update response: %+v", ur)
	}
	if ur.Results[0].Color < 0 || ur.Results[1].Color != -1 {
		t.Fatalf("update results: %+v", ur.Results)
	}
	if ur.Stats.Inserts != 1 || ur.Stats.Deletes != 1 {
		t.Fatalf("session stats: %+v", ur.Stats)
	}

	// Read back: the deleted edge is tombstoned, the inserted one colored.
	resp, body = func() (*http.Response, []byte) {
		r, err := http.Get(ts.URL + "/v1/session/" + sr.SessionID)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		return r, buf.Bytes()
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Colors[0] != -1 {
		t.Fatalf("deleted edge still colored %d", sr.Colors[0])
	}

	// Delete the session; further use must 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+sr.SessionID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	resp, body = postJSON(t, ts.URL+"/v1/session/"+sr.SessionID+"/update", updateRequest{
		Updates: []distec.Update{{Op: distec.InsertEdge, U: 0, V: 1}},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("update after delete: status %d: %s", resp.StatusCode, body)
	}
}

// TestSessionBadRequests pins validation on the session surface.
func TestSessionBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/session", sessionRequest{Graph: graphSpec{N: 2, Edges: [][2]int{{0, 5}}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad graph: status %d: %s", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/session/nope/update", updateRequest{
		Updates: []distec.Update{{Op: distec.InsertEdge, U: 0, V: 1}},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", resp.StatusCode)
	}
	// Create a real session, then exercise update validation on it.
	resp, body = postJSON(t, ts.URL+"/v1/session", sessionRequest{Graph: graphToSpec(distec.Cycle(8))})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  updateRequest
		want int
	}{
		{"empty batch", updateRequest{}, http.StatusBadRequest},
		{"unknown op", updateRequest{Updates: []distec.Update{{Op: "warp", U: 0, V: 1}}}, http.StatusBadRequest},
		{"duplicate insert", updateRequest{Updates: []distec.Update{{Op: distec.InsertEdge, U: 0, V: 1}}}, http.StatusBadRequest},
		{"delete non-edge", updateRequest{Updates: []distec.Update{{Op: distec.DeleteEdge, U: 0, V: 4}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/session/"+sr.SessionID+"/update", tc.req)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
		})
	}
}

// TestSessionRequestLimits pins the request-validation edges of the
// session API: palette and batch-size caps, malformed bodies, and the
// palette-exhausted conflict when a fixed palette runs out of colors.
func TestSessionRequestLimits(t *testing.T) {
	ts, _, _ := newTestServerCfg(t, daemonConfig{})
	resp, err := http.Post(ts.URL+"/v1/session", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	r, body := postJSON(t, ts.URL+"/v1/session", sessionRequest{
		Graph: graphToSpec(distec.Cycle(4)), Palette: maxPalette + 1,
	})
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized palette: status %d: %s", r.StatusCode, body)
	}

	// A fixed palette of 3 satisfies 2Δ−1 on the 6-cycle, but inserting a
	// fan at one node pushes its degree past what 3 colors can serve: the
	// batch must fail as a conflict, not a server error.
	r, body = postJSON(t, ts.URL+"/v1/session", sessionRequest{
		Graph: graphToSpec(distec.Cycle(6)), Palette: 3,
	})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("create with fixed palette: status %d: %s", r.StatusCode, body)
	}
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	r, body = postJSON(t, ts.URL+"/v1/session/"+sr.SessionID+"/update", updateRequest{
		Updates: []distec.Update{
			{Op: distec.InsertEdge, U: 0, V: 2},
			{Op: distec.InsertEdge, U: 0, V: 3},
			{Op: distec.InsertEdge, U: 0, V: 4},
		},
	})
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("palette exhaustion: status %d, want 409: %s", r.StatusCode, body)
	}

	// A batch past maxUpdatesPerBatch is rejected before any work.
	huge := make([]distec.Update, maxUpdatesPerBatch+1)
	for i := range huge {
		huge[i] = distec.Update{Op: distec.InsertEdge, U: 0, V: 2}
	}
	r, body = postJSON(t, ts.URL+"/v1/session/"+sr.SessionID+"/update", updateRequest{Updates: huge})
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400: %s", r.StatusCode, body)
	}
}

// TestWriteDeadlineExtension is the regression test for the write-timeout
// bug: a job that consumes more than the server's WriteTimeout used to
// compute a result the connection could no longer write. The handler now
// extends the write deadline per-request once the result is in hand, so a
// response must still arrive when the job outlives WriteTimeout.
func TestWriteDeadlineExtension(t *testing.T) {
	pool := distec.NewPool(distec.PoolOptions{Workers: 1})
	defer pool.Close()
	d, err := newDaemon(pool, daemonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	d.afterJob = func() { time.Sleep(600 * time.Millisecond) } // the "slow job"
	ts := httptest.NewUnstartedServer(d.mux)
	ts.Config.WriteTimeout = 250 * time.Millisecond // job outlives the write window
	ts.Start()
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/color", colorRequest{Graph: graphToSpec(distec.Cycle(6))})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr colorResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("response unreadable after slow job: %v (%q)", err, body)
	}
	if !cr.Verified {
		t.Fatal("response not verified")
	}
}

// TestSessionIdleEviction is the regression test for the registry leak: an
// abandoned session used to occupy one of the 64 slots forever, bricking
// POST /v1/session with permanent 503s once enough clients crashed. The TTL
// sweeper must reclaim it.
func TestSessionIdleEviction(t *testing.T) {
	ts, _, _ := newTestServerCfg(t, daemonConfig{sessionTTL: 40 * time.Millisecond})
	resp, body := postJSON(t, ts.URL+"/v1/session", sessionRequest{Graph: graphToSpec(distec.Cycle(8))})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	// Abandon the session; the sweeper must evict it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/session/" + sr.SessionID)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusNotFound {
			break
		}
		// Touching the session via GET resets its clock, so only poll a few
		// times per TTL.
		if time.Now().After(deadline) {
			t.Fatalf("session not evicted after 5s (status %d)", r.StatusCode)
		}
		time.Sleep(60 * time.Millisecond)
	}
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.SessionEvictions == 0 {
		t.Fatalf("eviction not counted: %+v", stats)
	}
	if stats.Sessions != 0 {
		t.Fatalf("%d sessions left after eviction", stats.Sessions)
	}
}

// TestSessionDeleteUpdateRace is the regression test for the delete/update
// race: a handler that looked a session up right before DELETE dropped it
// used to keep mutating (and journaling) the dropped session. The batch
// must now fail with ErrSessionClosed, surfaced as 410 Gone.
func TestSessionDeleteUpdateRace(t *testing.T) {
	ts, d, _ := newTestServerCfg(t, daemonConfig{})
	resp, body := postJSON(t, ts.URL+"/v1/session", sessionRequest{Graph: graphToSpec(distec.Cycle(8))})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	// Between the update handler's registry lookup and its batch, delete
	// the session — the exact race window, held open deterministically.
	deleted := false
	d.beforeUpdate = func() {
		if deleted {
			return
		}
		deleted = true
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+sr.SessionID, nil)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("racing delete: status %d", r.StatusCode)
		}
	}
	resp, body = postJSON(t, ts.URL+"/v1/session/"+sr.SessionID+"/update", updateRequest{
		Updates: []distec.Update{{Op: distec.InsertEdge, U: 0, V: 2}},
	})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("racing update: status %d, want 410: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "session closed") {
		t.Fatalf("racing update error body: %s", body)
	}
}
