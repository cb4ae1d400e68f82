package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/distec/distec"
	"github.com/distec/distec/internal/bench"
	"github.com/distec/distec/internal/persist"
	"github.com/distec/distec/internal/persist/errfs"
)

// sessionMirror tracks, client-side, exactly what a session's active edge
// set must be after each acknowledged batch — the ground truth the
// crash-recovery tests compare recovered daemons against. It reproduces the
// daemon's EdgeID assignment (initial edges in posted order, fresh inserts
// appended, revived tombstones keeping their IDs).
type sessionMirror struct {
	id     string
	g      *distec.Graph
	ids    map[[2]int]int
	active map[int]bool
	// perBatch[k] is the active EdgeID set after batch k+1 (seq k+1).
	perBatch []map[int]bool
	batches  [][]distec.Update
}

func newSessionMirror(id string, g *distec.Graph) *sessionMirror {
	m := &sessionMirror{id: id, g: g, ids: make(map[[2]int]int), active: make(map[int]bool)}
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(distec.EdgeID(e))
		m.ids[[2]int{u, v}] = e
		m.active[e] = true
	}
	return m
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// apply records one batch as applied and snapshots the resulting set.
func (m *sessionMirror) apply(batch []distec.Update) {
	for _, up := range batch {
		key := edgeKey(up.U, up.V)
		id, ok := m.ids[key]
		if !ok {
			id = len(m.ids)
			m.ids[key] = id
		}
		m.active[id] = up.Op == distec.InsertEdge
	}
	snap := make(map[int]bool, len(m.active))
	for id, a := range m.active {
		if a {
			snap[id] = true
		}
	}
	m.perBatch = append(m.perBatch, snap)
	m.batches = append(m.batches, batch)
}

// expectAt returns the active set after the first seq batches.
func (m *sessionMirror) expectAt(t *testing.T, seq uint64) map[int]bool {
	t.Helper()
	if seq == 0 {
		snap := make(map[int]bool)
		for e := 0; e < m.g.M(); e++ {
			snap[e] = true
		}
		return snap
	}
	if int(seq) > len(m.perBatch) {
		t.Fatalf("recovered seq %d beyond the %d sent batches", seq, len(m.perBatch))
	}
	return m.perBatch[seq-1]
}

// checkRecovered asserts a recovered session matches the mirror at the seq
// the daemon reports: verified, and the exact pre-crash active edge set. It
// returns that seq.
func (m *sessionMirror) checkRecovered(t *testing.T, baseURL string, minSeq uint64) uint64 {
	t.Helper()
	r, err := http.Get(baseURL + "/v1/session/" + m.id)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	body, _ := io.ReadAll(r.Body)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("recovered session %s: status %d: %s", m.id, r.StatusCode, body)
	}
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Verified {
		t.Fatalf("recovered session %s not verified", m.id)
	}
	if sr.Seq < minSeq {
		t.Fatalf("recovered session %s at seq %d, want at least %d", m.id, sr.Seq, minSeq)
	}
	want := m.expectAt(t, sr.Seq)
	for e, col := range sr.Colors {
		if (col >= 0) != want[e] {
			t.Fatalf("recovered session %s (seq %d): edge %d active=%v, want %v",
				m.id, sr.Seq, e, col >= 0, want[e])
		}
	}
	if len(sr.Colors) < len(want) {
		t.Fatalf("recovered session %s: %d edges, want at least %d", m.id, len(sr.Colors), len(want))
	}
	return sr.Seq
}

// startDiskDaemon builds an in-process daemon over dataDir whose lifetime
// the test controls: crash() abandons it without any graceful close (files
// are left exactly as the journal wrote them), like a killed process.
func startDiskDaemon(t *testing.T, dataDir string) (ts *httptest.Server, d *server, crash func()) {
	t.Helper()
	pool := distec.NewPool(distec.PoolOptions{Workers: 1})
	d, err := newDaemon(pool, daemonConfig{dataDir: dataDir, compactBytes: 2048})
	if err != nil {
		pool.Close()
		t.Fatal(err)
	}
	ts = httptest.NewServer(d.mux)
	return ts, d, func() {
		ts.Close()
		pool.Close()
		// Closing is crash-equivalent for the on-disk bytes: appends and
		// snapshots are write-through (no userspace buffering), so closing
		// flushes nothing a kill would have lost. It only quiesces any
		// background compaction goroutine, which in-process would otherwise
		// race the next daemon generation — a real kill stops it too.
		// Interrupted-compaction states are covered by the persist crash-
		// point tests and TestCrashRecoveryKill.
		d.close()
	}
}

// createMirroredSession creates a session over g and returns its mirror.
func createMirroredSession(t *testing.T, baseURL string, g *distec.Graph, req sessionRequest) *sessionMirror {
	t.Helper()
	req.Graph = graphToSpec(g)
	resp, body := postJSON(t, baseURL+"/v1/session", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return newSessionMirror(sr.SessionID, g)
}

// makeBatch derives one self-consistent update batch from the mirror's
// current live set (so churn can resume against a recovered session whose
// state long diverged from the initial graph).
func (m *sessionMirror) makeBatch(size int, rng *rand.Rand) []distec.Update {
	live := make(map[[2]int]bool)
	for key, id := range m.ids {
		if m.active[id] {
			live[key] = true
		}
	}
	n := m.g.N()
	batch := make([]distec.Update, 0, size)
	for len(batch) < size {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		key := edgeKey(u, v)
		if live[key] {
			batch = append(batch, distec.Update{Op: distec.DeleteEdge, U: key[0], V: key[1]})
			live[key] = false
		} else {
			batch = append(batch, distec.Update{Op: distec.InsertEdge, U: key[0], V: key[1]})
			live[key] = true
		}
	}
	return batch
}

// churn drives count batches of batchSize updates against the session,
// recording each acknowledged batch in the mirror.
func (m *sessionMirror) churn(t *testing.T, baseURL string, count, batchSize int, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	for b := 0; b < count; b++ {
		batch := m.makeBatch(batchSize, rng)
		resp, body := postJSON(t, baseURL+"/v1/session/"+m.id+"/update", updateRequest{Updates: batch})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", b, resp.StatusCode, body)
		}
		m.apply(batch)
	}
}

// TestRecoveryRoundTrip is the kill-restart acceptance path: sessions
// across the palette regimes, churned through enough batches to force
// background compactions, the daemon abandoned without any graceful
// shutdown, and a fresh daemon on the same data dir must recover every
// session under its original ID with a Verify-clean coloring and the exact
// pre-crash active edge set.
func TestRecoveryRoundTrip(t *testing.T) {
	dataDir := t.TempDir()
	ts, _, crash := startDiskDaemon(t, dataDir)

	mirrors := []*sessionMirror{
		createMirroredSession(t, ts.URL, distec.RandomRegular(24, 4, 3), sessionRequest{}),
		createMirroredSession(t, ts.URL, distec.RandomRegular(20, 4, 5), sessionRequest{Algorithm: "vizing"}),
		createMirroredSession(t, ts.URL, distec.Cycle(16), sessionRequest{Algorithm: "pr01"}),
	}
	for i, m := range mirrors {
		m.churn(t, ts.URL, 40, 5, uint64(11+i))
	}
	crash()

	ts2, d2, crash2 := startDiskDaemon(t, dataDir)
	defer crash2()
	if d2.sessions.Counts().Recovered != len(mirrors) || d2.sessions.Counts().RecoveryFailures != 0 {
		t.Fatalf("recovered %d sessions (%d failures), want %d", d2.sessions.Counts().Recovered, d2.sessions.Counts().RecoveryFailures, len(mirrors))
	}
	for _, m := range mirrors {
		m.checkRecovered(t, ts2.URL, 40)
	}
	// The recovered sessions accept updates and keep journaling: a third
	// daemon generation must see the post-recovery batches too.
	mirrors[0].churn(t, ts2.URL, 5, 3, 99)
	crash2()
	ts3, _, crash3 := startDiskDaemon(t, dataDir)
	defer crash3()
	mirrors[0].checkRecovered(t, ts3.URL, 45)
}

// TestRecoveryTornWALTail cuts the journal mid-record — the footprint of a
// crash mid-append — and requires recovery to discard exactly the torn
// record: the session comes back at the previous batch boundary, never
// half-applied.
func TestRecoveryTornWALTail(t *testing.T) {
	for _, cut := range []int64{1, 2, 7} {
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			dataDir := t.TempDir()
			ts, _, crash := startDiskDaemon(t, dataDir)
			m := createMirroredSession(t, ts.URL, distec.RandomRegular(24, 4, 3), sessionRequest{})
			m.churn(t, ts.URL, 8, 4, 17)
			crash()

			walPath := filepath.Join(dataDir, m.id, persist.WALFile)
			if err := errfs.Truncate(walPath, cut); err != nil {
				t.Fatal(err)
			}
			ts2, d2, crash2 := startDiskDaemon(t, dataDir)
			defer crash2()
			if d2.sessions.Counts().Recovered != 1 {
				t.Fatalf("recovered %d sessions, want 1", d2.sessions.Counts().Recovered)
			}
			r, err := http.Get(ts2.URL + "/v1/session/" + m.id)
			if err != nil {
				t.Fatal(err)
			}
			var sr sessionResponse
			body, _ := io.ReadAll(r.Body)
			r.Body.Close()
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Seq != 7 {
				t.Fatalf("recovered seq %d after torn tail, want 7 (one discarded record)", sr.Seq)
			}
			m.checkRecovered(t, ts2.URL, 7)
		})
	}
}

// TestRecoveryCorruptionTable drives recovery through deliberately damaged
// session directories: corrupt snapshots fail that one session loudly
// (never served wrong, daemon still boots), corrupt WAL interiors recover
// the clean prefix, and missing WALs fall back to the snapshot alone.
func TestRecoveryCorruptionTable(t *testing.T) {
	setup := func(t *testing.T) (string, *sessionMirror) {
		dataDir := t.TempDir()
		ts, _, crash := startDiskDaemon(t, dataDir)
		m := createMirroredSession(t, ts.URL, distec.RandomRegular(24, 4, 3), sessionRequest{})
		m.churn(t, ts.URL, 6, 4, 23)
		crash()
		return dataDir, m
	}
	t.Run("snapshot-bit-flip-skips-session", func(t *testing.T) {
		dataDir, m := setup(t)
		if err := errfs.FlipByte(filepath.Join(dataDir, m.id, persist.SnapshotFile), 40, 0x20); err != nil {
			t.Fatal(err)
		}
		ts2, d2, crash2 := startDiskDaemon(t, dataDir)
		defer crash2()
		if d2.sessions.Counts().Recovered != 0 || d2.sessions.Counts().RecoveryFailures != 1 {
			t.Fatalf("recovered=%d failures=%d, want 0/1", d2.sessions.Counts().Recovered, d2.sessions.Counts().RecoveryFailures)
		}
		r, err := http.Get(ts2.URL + "/v1/session/" + m.id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("corrupt session served: status %d", r.StatusCode)
		}
		// The daemon still serves: health and fresh sessions work.
		r, err = http.Get(ts2.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("daemon unhealthy after skipping a corrupt session: %d", r.StatusCode)
		}
	})
	t.Run("wal-interior-bit-flip-recovers-prefix", func(t *testing.T) {
		dataDir, m := setup(t)
		walPath := filepath.Join(dataDir, m.id, persist.WALFile)
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a byte roughly halfway in: records from there on are
		// discarded, the prefix must survive exactly.
		if err := errfs.FlipByte(walPath, fi.Size()/2, 0x20); err != nil {
			t.Fatal(err)
		}
		ts2, d2, crash2 := startDiskDaemon(t, dataDir)
		defer crash2()
		if d2.sessions.Counts().Recovered != 1 {
			t.Fatalf("recovered %d sessions, want 1", d2.sessions.Counts().Recovered)
		}
		m.checkRecovered(t, ts2.URL, 0)
	})
	t.Run("missing-wal-recovers-snapshot", func(t *testing.T) {
		dataDir, m := setup(t)
		if err := os.Remove(filepath.Join(dataDir, m.id, persist.WALFile)); err != nil {
			t.Fatal(err)
		}
		ts2, d2, crash2 := startDiskDaemon(t, dataDir)
		defer crash2()
		if d2.sessions.Counts().Recovered != 1 {
			t.Fatalf("recovered %d sessions, want 1", d2.sessions.Counts().Recovered)
		}
		// With compaction at 2048 bytes the snapshot holds some batch
		// prefix; whatever seq it covers must be exactly reproduced.
		m.checkRecovered(t, ts2.URL, 0)
	})
	t.Run("empty-session-dir-skipped", func(t *testing.T) {
		// A directory holding no session file is not a session (the rule
		// sessionctl applies too): recovery skips it without counting a
		// failure, so it cannot inflate recovery_failures on every boot.
		dataDir, m := setup(t)
		if err := os.MkdirAll(filepath.Join(dataDir, "halfborn"), 0o755); err != nil {
			t.Fatal(err)
		}
		ts2, d2, crash2 := startDiskDaemon(t, dataDir)
		defer crash2()
		if c := d2.sessions.Counts(); c.Recovered != 1 || c.RecoveryFailures != 0 {
			t.Fatalf("recovered=%d failures=%d, want 1/0", c.Recovered, c.RecoveryFailures)
		}
		m.checkRecovered(t, ts2.URL, 6)
	})
}

// TestCrashRecoveryKill is the full-fidelity harness: a real daemon
// process, a live churn stream, SIGKILL at a random moment (possibly mid
// write, mid compaction), restart, and the recovered session must verify
// with the exact active edge set of some acknowledged batch boundary at or
// past the last acknowledged batch.
func TestCrashRecoveryKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon process")
	}
	bin := filepath.Join(t.TempDir(), "edgecolord")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dataDir := t.TempDir()

	freePort := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return l.Addr().String()
	}
	start := func(addr string) *exec.Cmd {
		cmd := exec.Command(bin,
			"-addr", addr, "-data-dir", dataDir, "-fsync", "none",
			"-wal-compact-bytes", "2048", "-workers", "1")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		base := "http://" + addr
		for i := 0; ; i++ {
			r, err := http.Get(base + "/healthz")
			if err == nil {
				r.Body.Close()
				break
			}
			if i > 100 {
				t.Fatalf("daemon at %s never became healthy: %v", addr, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
		return cmd
	}

	addr := freePort()
	cmd := start(addr)
	defer cmd.Process.Kill()
	base := "http://" + addr

	g := distec.RandomRegular(64, 6, 9)
	m := createMirroredSession(t, base, g, sessionRequest{})
	ops := bench.ChurnCapped(g, 4000, 0, 31)

	// Drive batches until the kill lands; count only acknowledged ones.
	acked := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0; (b+1)*4 <= len(ops); b++ {
			batch := make([]distec.Update, 4)
			for i := range batch {
				op := ops[b*4+i]
				batch[i] = distec.Update{Op: distec.InsertEdge, U: op.U, V: op.V}
				if op.Delete {
					batch[i].Op = distec.DeleteEdge
				}
			}
			m.apply(batch) // sent: the mirror covers every possibly-durable batch
			data, _ := json.Marshal(updateRequest{Updates: batch})
			resp, err := http.Post(base+"/v1/session/"+m.id+"/update", "application/json", strings.NewReader(string(data)))
			if err != nil {
				return // the kill landed mid-request
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			acked++
		}
	}()
	time.Sleep(time.Duration(100+rand.Intn(400)) * time.Millisecond)
	cmd.Process.Signal(syscall.SIGKILL)
	<-done
	cmd.Wait()
	if acked == 0 {
		t.Skip("kill landed before any batch was acknowledged; nothing to verify")
	}

	addr2 := freePort()
	cmd2 := start(addr2)
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()
	// Every acknowledged batch must have survived (its journal append
	// returned before the 200 did); an unacknowledged final batch may or
	// may not have landed — both are legal batch boundaries.
	m.checkRecovered(t, "http://"+addr2, uint64(acked))
}

// TestJournalFailureRetiresSession pins the divergence guard: once a
// session's journal fails, its memory state is ahead of its durable state,
// and any further acknowledged batch would journal with a sequence gap that
// makes the whole log unrecoverable. The daemon must retire the session
// (500 + unregister, files kept) instead of serving it on.
func TestJournalFailureRetiresSession(t *testing.T) {
	dataDir := t.TempDir()
	ts, d, crash := startDiskDaemon(t, dataDir)
	defer crash()
	m := createMirroredSession(t, ts.URL, distec.RandomRegular(24, 4, 3), sessionRequest{})
	m.churn(t, ts.URL, 3, 2, 41)

	// Break the journal out from under the session: the next batch's
	// journal write fails.
	sess, ok := d.sessions.Get(m.id)
	if !ok {
		t.Fatal("session not registered")
	}
	live, err := d.sessions.Acquire(context.Background(), sess)
	if err != nil {
		t.Fatal(err)
	}
	live.SetJournal(func(distec.JournalBatch) error { return errors.New("disk gone") })

	batch := m.makeBatch(2, rand.New(rand.NewSource(43)))
	resp, body := postJSON(t, ts.URL+"/v1/session/"+m.id+"/update", updateRequest{Updates: batch})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("update with a broken journal: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "session retired") {
		t.Fatalf("error body: %s", body)
	}
	// The session is gone from the registry...
	resp, _ = postJSON(t, ts.URL+"/v1/session/"+m.id+"/update", updateRequest{Updates: batch})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("retired session still served: status %d", resp.StatusCode)
	}
	// ...but its durable state survives: a restart recovers every batch
	// that was journaled before the failure (the unjournaled one was 500ed,
	// never acknowledged).
	crash()
	ts2, d2, crash2 := startDiskDaemon(t, dataDir)
	defer crash2()
	if d2.sessions.Counts().Recovered != 1 {
		t.Fatalf("recovered %d sessions, want 1", d2.sessions.Counts().Recovered)
	}
	m.checkRecovered(t, ts2.URL, 3)
}
