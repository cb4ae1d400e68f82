package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/distec/distec"
	"github.com/distec/distec/internal/persist"
	"github.com/distec/distec/internal/persist/errfs"
)

// TestRehydrationFailureSurfaces injects corruption into a passivated
// session's snapshot: the next touch must fail loudly (500, never a wrong
// coloring), leave the files in place for sessionctl, and leave the other
// sessions serving.
func TestRehydrationFailureSurfaces(t *testing.T) {
	dataDir := t.TempDir()
	ts, d, _ := newTestServerCfg(t, daemonConfig{dataDir: dataDir, maxResident: 1})
	var ids []string
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/session", sessionRequest{Graph: graphToSpec(distec.Cycle(4))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create: status %d: %s", resp.StatusCode, body)
		}
		var sr sessionResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sr.SessionID)
	}
	if d.sessions.Counts().Resident != 1 {
		t.Fatalf("%d resident, want 1", d.sessions.Counts().Resident)
	}
	// ids[0] is passivated; flip one byte inside its snapshot body.
	snapPath := filepath.Join(dataDir, ids[0], persist.SnapshotFile)
	if err := errfs.FlipByte(snapPath, 40, 0x10); err != nil {
		t.Fatal(err)
	}
	r, err := http.Get(ts.URL + "/v1/session/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt rehydration answered %d, want 500", r.StatusCode)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("corrupt session files removed, want kept for offline repair: %v", err)
	}
	// The resident session is untouched by the neighbor's corruption.
	resp, body := postJSON(t, ts.URL+"/v1/session/"+ids[1]+"/update", updateRequest{
		Updates: []distec.Update{{Op: distec.InsertEdge, U: 0, V: 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy session update: status %d: %s", resp.StatusCode, body)
	}
}

// TestRehydrationRejectsEmptyRecord appends a record that applies nothing
// (an empty batch at the next sequence number) to a passivated session's
// WAL. Rehydration must fail loudly (500) and keep the files: serving the
// session would let its next acknowledged batch reuse that sequence number
// and leave the WAL unrecoverable.
func TestRehydrationRejectsEmptyRecord(t *testing.T) {
	dataDir := t.TempDir()
	ts, d, _ := newTestServerCfg(t, daemonConfig{dataDir: dataDir, maxResident: 1})
	var ids []string
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/session", sessionRequest{Graph: graphToSpec(distec.Cycle(4))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create: status %d: %s", resp.StatusCode, body)
		}
		var sr sessionResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sr.SessionID)
	}
	if d.sessions.Counts().Resident != 1 {
		t.Fatalf("%d resident, want 1", d.sessions.Counts().Resident)
	}
	// ids[0] is passivated and its log closed: journal the empty record.
	dir := filepath.Join(dataDir, ids[0])
	lg, snap, records, err := persist.OpenLog(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	head := snap.Seq + uint64(len(records))
	if err := lg.Append(persist.Record{Seq: head + 1}); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := http.Get(ts.URL + "/v1/session/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusInternalServerError {
		t.Fatalf("rehydration over an empty record answered %d, want 500", r.StatusCode)
	}
	if _, replay, _, err := persist.ScanDir(dir); err != nil || len(replay) != len(records)+1 {
		t.Fatalf("session files after failed rehydration: %d records, err %v; want %d kept", len(replay), err, len(records)+1)
	}
}

// TestThousandSessionsBoundedResidency is the passivation acceptance pin:
// a daemon with the default limits holds 1000 durable sessions while
// never keeping more than -max-resident (64) of them in memory, keeps
// serving all of them transparently, and reboots over the same data dir
// into the same bounded shape via lazy recovery.
func TestThousandSessionsBoundedResidency(t *testing.T) {
	const nSessions = 1000
	dataDir := t.TempDir()
	ts, d, _ := newTestServerCfg(t, daemonConfig{dataDir: dataDir})
	if maxSessions, maxResident := d.registryLimits(); maxSessions != 4096 || maxResident != 64 {
		t.Fatalf("default limits with a data dir: %d sessions, %d resident; want 4096, 64", maxSessions, maxResident)
	}

	ids := make([]string, 0, nSessions)
	for i := 0; i < nSessions; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/session", sessionRequest{Graph: graphToSpec(distec.Cycle(4))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create %d: status %d: %s", i, resp.StatusCode, body)
		}
		var sr sessionResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sr.SessionID)
		// The bound holds throughout the fill, not just at the end.
		if i%100 == 99 {
			if r := d.sessions.Counts().Resident; r > 64 {
				t.Fatalf("after %d creates: %d resident, want <= 64", i+1, r)
			}
		}
	}
	if got := d.sessions.Counts().Sessions; got != nSessions {
		t.Fatalf("registry holds %d sessions, want %d", got, nSessions)
	}
	if r := d.sessions.Counts().Resident; r > 64 {
		t.Fatalf("%d resident after fill, want <= 64", r)
	}
	if p := metricValue(t, d, "distec_sessions_passivated_total"); p < nSessions-64 {
		t.Fatalf("passivations = %v, want >= %d", p, nSessions-64)
	}

	// The stats surface reports the same shape.
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var stats statsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != nSessions || stats.SessionsResident > 64 {
		t.Fatalf("stats sessions=%d resident=%d, want %d/<=64", stats.Sessions, stats.SessionsResident, nSessions)
	}

	// The first session created is long passivated; touching it rehydrates
	// transparently and the batch applies exactly as on a resident session.
	resp, body := postJSON(t, ts.URL+"/v1/session/"+ids[0]+"/update", updateRequest{
		Updates: []distec.Update{{Op: distec.InsertEdge, U: 0, V: 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update passivated session: status %d: %s", resp.StatusCode, body)
	}
	if metricValue(t, d, "distec_session_rehydrations_total") == 0 {
		t.Fatal("update of a passivated session did not count a rehydration")
	}
	r, err = http.Get(ts.URL + "/v1/session/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(r.Body)
	r.Body.Close()
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Seq != 1 || !sr.Verified {
		t.Fatalf("rehydrated session: seq=%d verified=%v, want 1/true", sr.Seq, sr.Verified)
	}
	if rc := d.sessions.Counts().Resident; rc > 64 {
		t.Fatalf("%d resident after rehydration, want <= 64", rc)
	}

	// Reboot over the same data dir: lazy recovery registers all 1000
	// (eagerly loading at most 64) and a never-loaded session still serves.
	ts.Close()
	d.close()
	ts2, d2, crash2 := startDiskDaemon(t, dataDir)
	defer crash2()
	if got := d2.sessions.Counts().Sessions; got != nSessions {
		t.Fatalf("recovered registry holds %d sessions, want %d", got, nSessions)
	}
	if rc := d2.sessions.Counts().Resident; rc > 64 {
		t.Fatalf("%d resident after recovery, want <= 64", rc)
	}
	r, err = http.Get(ts2.URL + "/v1/session/" + ids[nSessions-1])
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("adopted session after reboot: status %d: %s", r.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Verified {
		t.Fatal("adopted session served an unverified coloring")
	}
}

// TestPassivatedSessionTransparentAccess drives a tiny residency limit and
// checks every session keeps answering correctly as it cycles in and out
// of memory.
func TestPassivatedSessionTransparentAccess(t *testing.T) {
	ts, d, _ := newTestServerCfg(t, daemonConfig{dataDir: t.TempDir(), maxResident: 2})
	const n = 6
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/session", sessionRequest{Graph: graphToSpec(distec.Cycle(8))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create %d: status %d: %s", i, resp.StatusCode, body)
		}
		var sr sessionResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sr.SessionID)
	}
	// Distinct chords of the 8-cycle, so every inserted edge is fresh.
	var chords []distec.Update
	for u := 0; u < 8; u++ {
		for v := u + 2; v < 8; v++ {
			if u == 0 && v == 7 {
				continue // cycle edge
			}
			chords = append(chords, distec.Update{Op: distec.InsertEdge, U: u, V: v})
		}
	}
	// Round-robin updates force constant rehydration; every batch must
	// apply with a verified coloring.
	for round := 0; round < 3; round++ {
		for i, id := range ids {
			resp, body := postJSON(t, ts.URL+"/v1/session/"+id+"/update", updateRequest{
				Updates: []distec.Update{chords[round]},
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d session %d: status %d: %s", round, i, resp.StatusCode, body)
			}
			var ur updateResponse
			if err := json.Unmarshal(body, &ur); err != nil {
				t.Fatal(err)
			}
			if !ur.Verified {
				t.Fatalf("round %d session %d: unverified coloring after rehydrated batch", round, i)
			}
			if rc := d.sessions.Counts().Resident; rc > 2 {
				t.Fatalf("round %d session %d: %d resident, want <= 2", round, i, rc)
			}
		}
	}
	rehydrations := metricValue(t, d, "distec_session_rehydrations_total")
	passivations := metricValue(t, d, "distec_sessions_passivated_total")
	if rehydrations == 0 || passivations == 0 {
		t.Fatalf("rehydrations=%v passivations=%v, want both > 0", rehydrations, passivations)
	}
	// Sequence numbers survived the churn: each session saw exactly 3
	// batches.
	for i, id := range ids {
		r, err := http.Get(ts.URL + "/v1/session/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		var sr sessionResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Seq != 3 {
			t.Fatalf("session %d: seq %d, want 3", i, sr.Seq)
		}
	}
}

// TestPassivatedSessionDelete checks a session deleted while passivated
// releases its files and answers 404 afterwards — the dropped flag closes
// the delete-vs-rehydrate race.
func TestPassivatedSessionDelete(t *testing.T) {
	dataDir := t.TempDir()
	ts, d, _ := newTestServerCfg(t, daemonConfig{dataDir: dataDir, maxResident: 1})
	var ids []string
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/session", sessionRequest{Graph: graphToSpec(distec.Cycle(4))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create: status %d: %s", resp.StatusCode, body)
		}
		var sr sessionResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sr.SessionID)
	}
	if d.sessions.Counts().Resident != 1 {
		t.Fatalf("%d resident, want 1", d.sessions.Counts().Resident)
	}
	// ids[0] is the passivated one (LRU). Delete it cold.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+ids[0], nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("delete passivated session: status %d", r.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dataDir, ids[0])); !os.IsNotExist(err) {
		t.Fatalf("session dir survived delete: %v", err)
	}
	r, err = http.Get(ts.URL + "/v1/session/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session answered %d, want 404", r.StatusCode)
	}
	// The survivor still works.
	resp, body := postJSON(t, ts.URL+"/v1/session/"+ids[1]+"/update", updateRequest{
		Updates: []distec.Update{{Op: distec.InsertEdge, U: 0, V: 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("surviving session update: status %d: %s", resp.StatusCode, body)
	}
}

// TestRehydrationHonorsCallerContext pins the context threading from a
// request into rehydration: a caller that has already given up must not
// pay for (or pin the session lock through) a full replay, while a live
// caller still rehydrates transparently.
func TestRehydrationHonorsCallerContext(t *testing.T) {
	dataDir := t.TempDir()
	ts, srv, _ := newTestServerCfg(t, daemonConfig{dataDir: dataDir, maxResident: 1})
	resp, body := postJSON(t, ts.URL+"/v1/session", sessionRequest{Graph: graphToSpec(distec.Cycle(4))})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	// One journaled batch so the passivated session has records to replay.
	resp, body = postJSON(t, ts.URL+"/v1/session/"+sr.SessionID+"/update", updateRequest{
		Updates: []distec.Update{{Op: distec.InsertEdge, U: 0, V: 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d: %s", resp.StatusCode, body)
	}
	// A second session evicts the first (maxResident: 1).
	resp, body = postJSON(t, ts.URL+"/v1/session", sessionRequest{Graph: graphToSpec(distec.Cycle(4))})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create second: status %d: %s", resp.StatusCode, body)
	}
	sess, ok := srv.sessions.Get(sr.SessionID)
	if !ok {
		t.Fatalf("session %s gone from registry", sr.SessionID)
	}
	if metricValue(t, srv, "distec_sessions_passivated_total") != 1 {
		t.Fatal("first session still resident; passivation did not trigger")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.sessions.Acquire(ctx, sess); !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if got := srv.sessions.Counts().Resident; got != 1 {
		t.Fatalf("aborted rehydration left %d sessions resident, want 1", got)
	}
	// A live caller rehydrates through the same path.
	d, err := srv.sessions.Acquire(context.Background(), sess)
	if err != nil {
		t.Fatalf("acquire after aborted rehydration: %v", err)
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("rehydrated coloring invalid: %v", err)
	}
}

// metricValue reads one unlabeled sample from the daemon's metrics
// registry, as /metrics renders it.
func metricValue(t *testing.T, d *server, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := d.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}
