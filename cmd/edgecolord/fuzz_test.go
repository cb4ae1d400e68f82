package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/distec/distec"
)

// fuzzMaxBody bounds the bodies FuzzRequestDecoding posts, so each exec
// stays a small solve; it is a size bound only, never a content filter.
const fuzzMaxBody = 4 << 10

// FuzzRequestDecoding posts fuzzed bodies to the three endpoints that
// decode untrusted JSON — POST /v1/color, /v1/session and
// /v1/session/{id}/update — through the daemon's own mux. No body may
// panic the daemon or earn a 500 (a server-side defect by the daemon's
// status contract), and every 200 must carry a verified result. Each
// update lands on a fresh 8-cycle session, and every session a body
// creates is deleted again, so execs stay independent.
func FuzzRequestDecoding(f *testing.F) {
	seeds := []struct {
		route uint8
		body  string
	}{
		{0, `{"graph":{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}}`},
		{0, `{"graph":{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]},"algorithm":"randomized","seed":7,"palette":5,"timeout_ms":1000}`},
		{0, `{"graph":{"n":3,"edges":[[0,1],[1,2]]},"algorithm":"vizing"}`},
		{0, `{"graph":{"n":3,"edges":[[0,1],[1,2]]},"lists":[[0,1,2],[1,2]],"palette":3}`},
		{0, `{"graph":{"n":3,"edges":[[0,1],[1,2]]},"lists":[[0,1,2],[0,1,2]],"partial":[2,-1],"palette":3}`},
		{0, `{"graph":{"n":3,"edges":[[0,7]]}}`},
		{0, `{"graph":{"n":3,"edges":[[1,1]]}}`},
		{0, `{"graph":{"n":3,"edges":[[0,1]]},"algorithm":"warp"}`},
		{0, `{"graph":{"n":3,"edges":[[0,1],[1,2]]},"palette":1}`},
		{0, `{"graph":{"n":2000000000,"edges":[[0,1]]}}`},
		{0, `{"graph":{"n":2,"edges":[[0,1]]},"lists":[[0]],"partial":[-1],"palette":2000000000}`},
		{0, `{`},
		{1, `{"graph":{"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]},"algorithm":"pr01"}`},
		{1, `{"graph":{"n":4,"edges":[[0,1],[1,2]]},"algorithm":"vizing","palette":3}`},
		{2, `{"updates":[{"op":"insert","u":0,"v":2},{"op":"delete","u":0,"v":1}]}`},
		{2, `{"updates":[{"op":"insert","u":0,"v":9}]}`},
		{2, `{"updates":[]}`},
	}
	for _, s := range seeds {
		f.Add(s.route, []byte(s.body))
	}
	pool := distec.NewPool(distec.PoolOptions{Workers: 1})
	defer pool.Close()
	s, err := newDaemon(pool, daemonConfig{})
	if err != nil {
		f.Fatal(err)
	}
	defer s.close()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	// drop deletes the session a 200 create response names.
	drop := func(t *testing.T, rec *httptest.ResponseRecorder) string {
		var sr sessionResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil || sr.SessionID == "" {
			t.Fatalf("session create answered 200 without a session: %s", rec.Body)
		}
		t.Cleanup(func() { s.sessions.Delete(sr.SessionID) })
		return sr.SessionID
	}
	cycle, err := json.Marshal(sessionRequest{Graph: graphToSpec(distec.Cycle(8))})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		if len(body) > fuzzMaxBody {
			t.Skip()
		}
		var path string
		switch route % 3 {
		case 0:
			path = "/v1/color"
		case 1:
			path = "/v1/session"
		default:
			created := post("/v1/session", cycle)
			if created.Code != http.StatusOK {
				t.Fatalf("8-cycle session create: %d: %s", created.Code, created.Body)
			}
			path = "/v1/session/" + drop(t, created) + "/update"
		}
		rec := post(path, body)
		switch {
		case rec.Code == http.StatusInternalServerError:
			t.Fatalf("POST %s %q: %d: %s", path, body, rec.Code, rec.Body)
		case rec.Code == http.StatusOK && !bytes.Contains(rec.Body.Bytes(), []byte(`"verified":true`)):
			t.Fatalf("POST %s %q: 200 without a verified result: %s", path, body, rec.Body)
		case rec.Code == http.StatusOK && route%3 == 1:
			drop(t, rec)
		}
	})
}
