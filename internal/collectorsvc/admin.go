package collectorsvc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"github.com/unroller/unroller/internal/dataplane"
)

// The admin surface is a plaintext HTTP listener in the /statsz
// tradition: GET /statsz renders the service counters, the aggregate
// controller snapshot, and every shard's snapshot as stable text;
// /statsz?format=json emits the same data in the machine-readable
// schema pinned by internal/dataplane's MarshalJSON golden test, so the
// endpoint and the CLI share one schema.

// AdminStats is the JSON shape of the admin snapshot. Journal is nil
// (omitted) when ingest is not journaled. Exported so a wrapping admin
// surface (the cluster node's /statsz) can embed it next to its own
// stanza.
type AdminStats struct {
	Server    ServerStats                 `json:"server"`
	Aggregate dataplane.ControllerStats   `json:"aggregate"`
	Shards    []dataplane.ControllerStats `json:"shards"`
	Queues    []ShardQueueStats           `json:"queues"`
	Journal   *JournalStats               `json:"journal,omitempty"`
}

// AdminSnapshot assembles the full /statsz data set.
func (s *Server) AdminSnapshot() AdminStats {
	snap := AdminStats{
		Server:    s.Stats(),
		Aggregate: s.ControllerStats(),
		Shards:    s.ShardStats(),
		Queues:    s.QueueStats(),
	}
	if j := s.Journal(); j != nil {
		jst := j.Stats()
		snap.Journal = &jst
	}
	return snap
}

// RenderText renders the snapshot as the stable /statsz plaintext.
func (snap AdminStats) RenderText() string { return renderStatsText(snap) }

// writeHealth renders the three-state readiness body: 200 "ready", or
// 503 with "recovering"/"degraded" — so a poller distinguishes a node
// still reconciling its journal from one that lost durability or is
// suspected by the membership layer.
func writeHealth(w http.ResponseWriter, h Health) {
	if h == HealthReady {
		w.WriteHeader(http.StatusOK)
	} else {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintln(w, h)
}

// AdminHandler returns the admin mux: /statsz (text and JSON) and
// /healthz (three-state readiness, for probes).
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeHealth(w, s.Health())
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		snap := s.AdminSnapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, renderStatsText(snap))
	})
	return mux
}

// renderStatsText renders the snapshot as stable plaintext, one counter
// group per stanza.
func renderStatsText(snap AdminStats) string {
	var b strings.Builder
	sv := snap.Server
	fmt.Fprintf(&b, "server: conns=%d active=%d frames=%d bad=%d dupes=%d cross_dupes=%d ingested=%d ticks=%d queue_dropped=%d flow_evictions=%d\n",
		sv.Conns, sv.ActiveConns, sv.Frames, sv.BadFrames, sv.Dupes, sv.CrossDupes, sv.Ingested, sv.Ticks, sv.QueueDropped, sv.FlowEvictions)
	fmt.Fprintf(&b, "aggregate: %s tick=%d\n", snap.Aggregate, snap.Aggregate.Tick)
	for i, sh := range snap.Shards {
		fmt.Fprintf(&b, "shard %d: %s tick=%d\n", i, sh, sh.Tick)
	}
	for i, q := range snap.Queues {
		fmt.Fprintf(&b, "queue %d: depth=%d dropped=%d shedded_ticks=%d\n", i, q.Depth, q.Dropped, q.SheddedTicks)
	}
	if j := snap.Journal; j != nil {
		fmt.Fprintf(&b, "journal: segments=%d bytes=%d last_fsync_ms=%d appends=%d append_errors=%d rotations=%d\n",
			j.Segments, j.Bytes, j.LastFsyncMS, j.Appends, j.AppendErrors, j.Rotations)
	}
	return b.String()
}
