package collectorsvc

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// adminFixture runs one report through a small server so the admin
// snapshot has non-zero counters, returning the server pre-Shutdown.
func adminFixture(t *testing.T) *Server {
	t.Helper()
	srv := NewServer(ServerConfig{Shards: 2})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	c, err := NewClient(ClientConfig{Addr: addr.String(), ID: 77})
	if err != nil {
		t.Fatal(err)
	}
	c.Send(dataplane.LoopEvent{Report: detect.Report{Reporter: 9, Hops: 4}, Flow: 31}, 4)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestAdminStatsText: /statsz renders one stanza per counter group.
func TestAdminStatsText(t *testing.T) {
	srv := adminFixture(t)
	rec := httptest.NewRecorder()
	srv.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"server: conns=1", "ingested=1", "aggregate:", "shard 0:", "shard 1:"} {
		if !strings.Contains(body, want) {
			t.Errorf("text stats missing %q:\n%s", want, body)
		}
	}
}

// TestAdminStatsJSON: /statsz?format=json emits the schema pinned by
// internal/dataplane's golden test.
func TestAdminStatsJSON(t *testing.T) {
	srv := adminFixture(t)
	rec := httptest.NewRecorder()
	srv.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/statsz?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var snap struct {
		Server    map[string]any   `json:"server"`
		Aggregate map[string]any   `json:"aggregate"`
		Shards    []map[string]any `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, rec.Body.String())
	}
	if got := snap.Server["ingested"]; got != float64(1) {
		t.Errorf("server.ingested = %v, want 1", got)
	}
	if len(snap.Shards) != 2 {
		t.Fatalf("%d shards in snapshot, want 2", len(snap.Shards))
	}
	// The aggregate uses the dataplane schema's lowercase keys.
	for _, key := range []string{"delivered", "accepted", "deduped", "quarantined", "tick"} {
		if _, ok := snap.Aggregate[key]; !ok {
			t.Errorf("aggregate missing %q: %v", key, snap.Aggregate)
		}
	}
}

// TestAdminStatsJournaledServer pins the journal and queue extensions of
// the admin schema: a journaled server exposes per-shard queue gauges
// and the journal gauges in both renderings, and an unjournaled one
// omits the journal object entirely (the pre-journal JSON shape).
func TestAdminStatsJournaledServer(t *testing.T) {
	j, err := OpenJournal(JournalConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	srv, _, err := NewRecoveredServer(ServerConfig{Shards: 2, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{Addr: addr.String(), ID: 77})
	if err != nil {
		t.Fatal(err)
	}
	c.Send(dataplane.LoopEvent{Report: detect.Report{Reporter: 9, Hops: 4}, Flow: 31}, 4)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	srv.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/statsz?format=json", nil))
	var snap struct {
		Queues  []map[string]any `json:"queues"`
		Journal map[string]any   `json:"journal"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, rec.Body.String())
	}
	if len(snap.Queues) != 2 {
		t.Fatalf("%d queue gauges, want one per shard (2): %s", len(snap.Queues), rec.Body.String())
	}
	for _, key := range []string{"depth", "dropped", "shedded_ticks"} {
		if _, ok := snap.Queues[0][key]; !ok {
			t.Errorf("queue gauge missing %q: %v", key, snap.Queues[0])
		}
	}
	if snap.Journal == nil {
		t.Fatalf("journaled server omitted the journal object:\n%s", rec.Body.String())
	}
	for _, key := range []string{"segments", "bytes", "last_fsync_ms", "appends", "append_errors", "rotations"} {
		if _, ok := snap.Journal[key]; !ok {
			t.Errorf("journal gauges missing %q: %v", key, snap.Journal)
		}
	}
	if got := snap.Journal["appends"].(float64); got < 1 {
		t.Errorf("journal.appends = %v after an ingested report", got)
	}

	rec = httptest.NewRecorder()
	srv.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
	for _, want := range []string{"queue 0: depth=", "queue 1: depth=", "journal: segments="} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("text stats missing %q:\n%s", want, rec.Body.String())
		}
	}

	// An unjournaled server must keep the original shape: no journal key.
	plain := adminFixture(t)
	rec = httptest.NewRecorder()
	plain.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/statsz?format=json", nil))
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["journal"]; ok {
		t.Errorf("unjournaled server emitted a journal object:\n%s", rec.Body.String())
	}
}

// TestAdminHealthz: /healthz renders the three-state body — 200 "ready"
// while the journal is intact, 503 "degraded" once durability is gone
// (or the server is shut down), 503 "recovering" while a staged
// recovery has yet to commit, and an installed overlay can escalate.
func TestAdminHealthz(t *testing.T) {
	j, err := OpenJournal(JournalConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	st, err := NewStagedRecoveredServer(ServerConfig{Shards: 1, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	st.Server().AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "recovering") {
		t.Fatalf("staged server: status %d body %q, want 503 recovering", rec.Code, rec.Body.String())
	}
	srv, _, err := st.Commit(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	rec = httptest.NewRecorder()
	srv.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ready") {
		t.Fatalf("healthy server: status %d body %q", rec.Code, rec.Body.String())
	}
	srv.SetHealthOverlay(func(h Health) Health { return HealthDegraded })
	rec = httptest.NewRecorder()
	srv.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "degraded") {
		t.Fatalf("overlay-degraded server: status %d body %q", rec.Code, rec.Body.String())
	}
	srv.SetHealthOverlay(nil)
	j.mu.Lock()
	j.failed = true
	j.mu.Unlock()
	rec = httptest.NewRecorder()
	srv.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "degraded") {
		t.Fatalf("failed journal: status %d body %q, want 503 degraded", rec.Code, rec.Body.String())
	}
}
