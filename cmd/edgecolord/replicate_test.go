package main

import (
	"encoding/json"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/distec/distec"
)

// replStatus fetches and decodes GET /v1/replication/status.
func replStatus(t *testing.T, baseURL string) replicationStatus {
	t.Helper()
	r, err := http.Get(baseURL + "/v1/replication/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("replication status: %d: %s", r.StatusCode, body)
	}
	var st replicationStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitCaughtUp polls the follower's status until every (id, seq) watermark
// is locally durable there.
func waitCaughtUp(t *testing.T, followerURL string, want map[string]uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := replStatus(t, followerURL)
		ok := st.Role == "follower"
		for id, seq := range want {
			if st.Sessions[id] < seq {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up to %v: status %+v", want, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicationFollowerMirrorsAndPromotes runs a leader and a warm
// standby in-process: the standby must mirror every acknowledged batch
// (through compactions and session deletes), refuse session traffic while
// following, and serve every session — verified, exact edge sets — after
// an explicit promote.
func TestReplicationFollowerMirrorsAndPromotes(t *testing.T) {
	leaderTS, _, _ := newTestServerCfg(t, daemonConfig{dataDir: t.TempDir(), compactBytes: 1024})
	followerTS, fd, _ := newTestServerCfg(t, daemonConfig{
		dataDir: t.TempDir(), follow: leaderTS.URL, followPoll: 25 * time.Millisecond,
	})

	// Three sessions, churned enough that the 1 KiB compaction threshold
	// trips: the follower has to survive snapshot resyncs mid-stream.
	mirrors := make([]*sessionMirror, 3)
	for i := range mirrors {
		mirrors[i] = createMirroredSession(t, leaderTS.URL, distec.RandomRegular(24, 4, uint64(50+i)), sessionRequest{})
		mirrors[i].churn(t, leaderTS.URL, 8, 4, uint64(60+i))
	}
	want := make(map[string]uint64, len(mirrors))
	for _, m := range mirrors {
		want[m.id] = 8
	}
	waitCaughtUp(t, followerTS.URL, want)

	// A follower is not a server: session traffic answers 503 until
	// promotion.
	resp, body := postJSON(t, followerTS.URL+"/v1/session", sessionRequest{Graph: graphToSpec(distec.Cycle(4))})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create on follower: status %d, want 503: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, followerTS.URL+"/v1/session/"+mirrors[0].id+"/update", updateRequest{
		Updates: []distec.Update{{Op: distec.InsertEdge, U: 0, V: 2}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update on follower: status %d, want 503: %s", resp.StatusCode, body)
	}

	// A session deleted on the leader disappears from the standby too.
	req, _ := http.NewRequest(http.MethodDelete, leaderTS.URL+"/v1/session/"+mirrors[2].id, nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("leader delete: %d", r.StatusCode)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, tracked := replStatus(t, followerTS.URL).Sessions[mirrors[2].id]; !tracked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deleted session never pruned from the follower")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Promote: the response returns only once the standby leads, and the
	// replicated sessions serve with verified colorings and the exact
	// acknowledged edge sets.
	r, err = http.Post(followerTS.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || !strings.Contains(string(body), "leader") {
		t.Fatalf("promote: %d: %s", r.StatusCode, body)
	}
	if fd.repl.Following() {
		t.Fatal("daemon still marked following after promote")
	}
	for _, m := range mirrors[:2] {
		m.checkRecovered(t, followerTS.URL, 8)
	}
	// The deleted session stayed deleted.
	r, err = http.Get(followerTS.URL + "/v1/session/" + mirrors[2].id)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session served after promote: %d", r.StatusCode)
	}
	// Promoted daemon accepts new traffic.
	resp, body = postJSON(t, followerTS.URL+"/v1/session/"+mirrors[0].id+"/update", updateRequest{
		Updates: mirrors[0].makeBatch(2, rand.New(rand.NewSource(77))),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update after promote: status %d: %s", resp.StatusCode, body)
	}
}

// TestReplicationAutoPromote runs the failover trigger in-process: the
// leader goes away, the standby's list syncs start failing, and once the
// unreachable streak crosses -promote-after it promotes itself and serves
// the replicated sessions.
func TestReplicationAutoPromote(t *testing.T) {
	leaderTS, _, _ := newTestServerCfg(t, daemonConfig{dataDir: t.TempDir()})
	followerTS, fd, _ := newTestServerCfg(t, daemonConfig{
		dataDir: t.TempDir(), follow: leaderTS.URL,
		followPoll: 20 * time.Millisecond, promoteAfter: 100 * time.Millisecond,
	})

	m := createMirroredSession(t, leaderTS.URL, distec.RandomRegular(16, 4, 5), sessionRequest{})
	m.churn(t, leaderTS.URL, 3, 4, 21)
	waitCaughtUp(t, followerTS.URL, map[string]uint64{m.id: 3})

	// Kill the leader's listener: every subsequent list sync fails, and the
	// standby must promote on its own within the threshold.
	leaderTS.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if replStatus(t, followerTS.URL).Role == "leader" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("standby never auto-promoted after leader death")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if fd.repl.Following() {
		t.Fatal("daemon still marked following after auto-promote")
	}
	m.checkRecovered(t, followerTS.URL, 3)
}

// TestReplicationListOmitsEmptyDirs: the leader advertises only
// directories that hold a session (sessions.IsDir, the rule recovery and
// sessionctl use), so a follower never polls an empty one — the leftover
// of a crash mid-create — into an endless stream of 404s.
func TestReplicationListOmitsEmptyDirs(t *testing.T) {
	dataDir := t.TempDir()
	ts, _, _ := newTestServerCfg(t, daemonConfig{dataDir: dataDir})
	m := createMirroredSession(t, ts.URL, distec.Cycle(8), sessionRequest{})
	if err := os.Mkdir(filepath.Join(dataDir, "halfborn"), 0o755); err != nil {
		t.Fatal(err)
	}
	r, err := http.Get(ts.URL + "/v1/replicate")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var list replicateListResponse
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0] != m.id {
		t.Fatalf("replicate list = %v, want only [%s]", list.Sessions, m.id)
	}
}

// TestReplicationPromoteDuringScrape scrapes /v1/stats and /metrics in a
// loop while POST /v1/promote recovers the replicated sessions on the
// follower's goroutine. The recovery counters both surfaces read are
// written during that recovery, so under -race this pins that they are
// shared safely.
func TestReplicationPromoteDuringScrape(t *testing.T) {
	leaderTS, _, _ := newTestServerCfg(t, daemonConfig{dataDir: t.TempDir()})
	followerTS, _, _ := newTestServerCfg(t, daemonConfig{
		dataDir: t.TempDir(), follow: leaderTS.URL, followPoll: 20 * time.Millisecond,
	})
	want := make(map[string]uint64)
	for i := 0; i < 4; i++ {
		m := createMirroredSession(t, leaderTS.URL, distec.Cycle(8), sessionRequest{})
		m.churn(t, leaderTS.URL, 1, 2, uint64(70+i))
		want[m.id] = 1
	}
	waitCaughtUp(t, followerTS.URL, want)

	get := func(path string) []byte {
		r, err := http.Get(followerTS.URL + path)
		if err != nil {
			t.Error(err)
			return nil
		}
		defer r.Body.Close()
		body, _ := io.ReadAll(r.Body)
		return body
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/v1/stats", "/metrics", "/v1/stats", "/metrics"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				get(path)
			}
		}()
	}
	r, err := http.Post(followerTS.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", r.StatusCode)
	}
	var st statsResponse
	if err := json.Unmarshal(get("/v1/stats"), &st); err != nil {
		t.Fatal(err)
	}
	if st.SessionsRecovered != len(want) || st.RecoveryFailures != 0 {
		t.Fatalf("promoted stats: recovered=%d failures=%d, want %d/0", st.SessionsRecovered, st.RecoveryFailures, len(want))
	}
}

// TestFollowerShutdownKeepsReplicatedFiles pins the non-promoting exit: a
// standby shut down mid-follow stops cleanly (in-flight long polls are
// cancelled, not waited out) and leaves the replicated files on disk for
// its next boot.
func TestFollowerShutdownKeepsReplicatedFiles(t *testing.T) {
	leaderTS, _, _ := newTestServerCfg(t, daemonConfig{dataDir: t.TempDir()})
	followerDir := t.TempDir()
	followerTS, fd, _ := newTestServerCfg(t, daemonConfig{
		dataDir: followerDir, follow: leaderTS.URL, followPoll: 20 * time.Millisecond,
	})

	m := createMirroredSession(t, leaderTS.URL, distec.Cycle(8), sessionRequest{})
	m.churn(t, leaderTS.URL, 2, 2, 9)
	waitCaughtUp(t, followerTS.URL, map[string]uint64{m.id: 2})

	start := time.Now()
	fd.close() // idempotent: the test cleanup calls it again
	if d := time.Since(start); d > replLongPoll {
		t.Fatalf("follower shutdown took %v: waited out a leader long poll", d)
	}
	if _, err := os.Stat(filepath.Join(followerDir, m.id, "snapshot")); err != nil {
		t.Fatalf("replicated snapshot gone after non-promoting shutdown: %v", err)
	}
}

// TestReplicateEndpointValidation pins the leader-side contract of the
// replication endpoints: traversal-shaped or malformed ids are rejected
// before touching the filesystem, unknown sessions 404, a bad ?from is a
// client error, and POST /v1/promote on a daemon that already leads is an
// idempotent no-op.
func TestReplicateEndpointValidation(t *testing.T) {
	ts, _, _ := newTestServerCfg(t, daemonConfig{dataDir: t.TempDir()})
	get := func(path string) int {
		t.Helper()
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		return r.StatusCode
	}
	if code := get("/v1/replicate/a.b"); code != http.StatusBadRequest {
		t.Fatalf("dotted id: %d, want 400", code)
	}
	if code := get("/v1/replicate/" + strings.Repeat("a", 65)); code != http.StatusBadRequest {
		t.Fatalf("oversized id: %d, want 400", code)
	}
	if code := get("/v1/replicate/deadbeefdeadbeef"); code != http.StatusNotFound {
		t.Fatalf("unknown session: %d, want 404", code)
	}
	if code := get("/v1/replicate/deadbeefdeadbeef?from=xyz"); code != http.StatusBadRequest {
		t.Fatalf("bad from: %d, want 400", code)
	}

	r, err := http.Post(ts.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || !strings.Contains(string(body), "leader") {
		t.Fatalf("promote on a leader: %d: %s", r.StatusCode, body)
	}
	if st := replStatus(t, ts.URL); st.Role != "leader" || !st.LeaderHealthy {
		t.Fatalf("leader status: %+v", st)
	}
}

// TestFollowerDefaultsAndLagGauge pins a small follower contract with an
// unset -follow-poll (its 500 ms fallback is pinned in internal/sessions):
// the replication-lag gauge reads as a real value while following, then
// pins to 0 once the daemon leads.
func TestFollowerDefaultsAndLagGauge(t *testing.T) {
	leaderTS, _, _ := newTestServerCfg(t, daemonConfig{dataDir: t.TempDir()})
	followerTS, _, _ := newTestServerCfg(t, daemonConfig{
		dataDir: t.TempDir(), follow: leaderTS.URL, // followPoll left zero
	})
	scrape := func() string {
		t.Helper()
		r, err := http.Get(followerTS.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return string(body)
	}
	if !strings.Contains(scrape(), "distec_replication_lag_seconds") {
		t.Fatal("lag gauge missing from a following daemon's /metrics")
	}
	r, err := http.Post(followerTS.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("promote: %d", r.StatusCode)
	}
	if !strings.Contains(scrape(), "distec_replication_lag_seconds 0") {
		t.Fatal("lag gauge not pinned to 0 after promotion")
	}
}

// TestFollowRequiresDataDir pins the config invariant: a standby has
// nowhere to put the replicated state without -data-dir.
func TestFollowRequiresDataDir(t *testing.T) {
	pool := distec.NewPool(distec.PoolOptions{Workers: 1})
	defer pool.Close()
	if _, err := newDaemon(pool, daemonConfig{follow: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("newDaemon accepted -follow without -data-dir")
	}
}

// TestFailoverKill is the end-to-end failover harness: a real leader
// process and a real warm-standby process, a churn stream, the leader
// SIGKILLed mid-churn, and the standby auto-promoting on the dead leader
// — after which every batch that was acknowledged and replicated must
// serve from the standby, verified, with the exact edge set.
func TestFailoverKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real daemon processes")
	}
	bin := filepath.Join(t.TempDir(), "edgecolord")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	freePort := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return l.Addr().String()
	}
	start := func(args ...string) *exec.Cmd {
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	waitHealthy := func(base string) {
		for i := 0; ; i++ {
			r, err := http.Get(base + "/healthz")
			if err == nil {
				r.Body.Close()
				return
			}
			if i > 100 {
				t.Fatalf("daemon at %s never became healthy: %v", base, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	leaderAddr, followerAddr := freePort(), freePort()
	leaderURL, followerURL := "http://"+leaderAddr, "http://"+followerAddr
	leader := start("-addr", leaderAddr, "-data-dir", t.TempDir(), "-fsync", "none",
		"-wal-compact-bytes", "2048", "-workers", "1")
	defer leader.Process.Kill()
	waitHealthy(leaderURL)
	follower := start("-addr", followerAddr, "-data-dir", t.TempDir(), "-fsync", "none",
		"-workers", "1", "-follow", leaderURL,
		"-follow-poll", "50ms", "-promote-after", "750ms")
	defer func() {
		follower.Process.Signal(syscall.SIGTERM)
		follower.Wait()
	}()
	waitHealthy(followerURL)

	// Phase 1: acknowledged churn, then wait until the standby holds every
	// acknowledged batch. From here on those batches must never be lost.
	g := distec.RandomRegular(48, 6, 11)
	m := createMirroredSession(t, leaderURL, g, sessionRequest{})
	const ackedBatches = 12
	m.churn(t, leaderURL, ackedBatches, 4, 33)
	waitCaughtUp(t, followerURL, map[string]uint64{m.id: ackedBatches})

	// Phase 2: keep churning (these batches race the kill — they may or
	// may not replicate, and the mirror covers both outcomes) and SIGKILL
	// the leader mid-stream.
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(34))
		for i := 0; i < 200; i++ {
			batch := m.makeBatch(4, rng)
			m.apply(batch)
			data, _ := json.Marshal(updateRequest{Updates: batch})
			resp, err := http.Post(leaderURL+"/v1/session/"+m.id+"/update", "application/json", strings.NewReader(string(data)))
			if err != nil {
				return // the kill landed
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
		}
	}()
	time.Sleep(time.Duration(50+rand.Intn(200)) * time.Millisecond)
	leader.Process.Signal(syscall.SIGKILL)
	<-done
	leader.Wait()

	// Phase 3: the standby notices the dead leader and promotes itself.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := replStatus(t, followerURL)
		if st.Role == "leader" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never promoted: %+v", st)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Every batch acknowledged and replicated before the kill survives;
	// the recovered seq may sit past ackedBatches if phase-2 batches made
	// it across, and the mirror knows the exact edge set either way.
	seq := m.checkRecovered(t, followerURL, ackedBatches)
	// The mirror also holds the batches the failover lost, at least the
	// one the kill cut off: make the next batch against the state served.
	m.active = maps.Clone(m.expectAt(t, seq))

	// The promoted daemon is a real leader: it accepts and serves new
	// batches on the failed-over session.
	batch := m.makeBatch(3, rand.New(rand.NewSource(35)))
	m.apply(batch)
	data, _ := json.Marshal(updateRequest{Updates: batch})
	resp, err := http.Post(followerURL+"/v1/session/"+m.id+"/update", "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-failover update: status %d: %s", resp.StatusCode, body)
	}
	var ur updateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if !ur.Verified {
		t.Fatal("post-failover batch not verified")
	}
}
