// Command unroller-collectord is the networked loop-report collector:
// the long-running service end of the switch→collector channel the
// paper's prototype assumes (§5). Emulators (and tests) stream loop
// reports to it over the versioned frame protocol in
// internal/collectorsvc; the daemon shards ingest by flow hash across
// independent controller instances, absorbs bursts in per-shard queues
// that push back on the connection when full (the client's bounded,
// counted buffer is the only place a report can be dropped), and serves
// its counters on a plaintext admin endpoint.
//
// Usage:
//
//	unroller-collectord [-listen :7777] [-admin :7778] [-shards 4]
//	                    [-dedup 8] [-max-events 4096]
//	                    [-quarantine-after 0] [-quarantine-ticks 0]
//	                    [-max-age 0] [-ack-every 64] [-batch 256]
//	                    [-journal DIR] [-fsync interval] [-segment-bytes N]
//	                    [-retain 8] [-read-timeout 30s] [-write-timeout 10s]
//	                    [-max-conns 256]
//	                    [-node-id ID] [-cluster-listen :7779] [-peers HOST:PORT,...]
//	                    [-partitions 32] [-vnodes 16] [-seed N]
//
// Every daemon is a member of a collectord cluster (internal/cluster);
// a standalone daemon is simply a cluster of one. It binds
// -cluster-listen for the membership plane, owns the flow partitions
// the seeded hash ring assigns it (all of them when alone), and — when
// journaled — reconciles a restart against the live peers that covered
// its partitions while it was down, discarding already-ingested frames
// (counted as cross_dupes) instead of double-ingesting them. With no
// peers the reconciliation asks nobody and commits the whole replay.
// -node-id names the member and defaults to "collectord"; -peers joins
// existing members and requires an explicit -node-id, so two joining
// nodes never share the default. -partitions, -vnodes, and -seed fix
// the ring geometry and must match on every node and client. The admin
// endpoint serves /statsz with a cluster stanza, and /healthz answers
// "degraded" while the node is isolated from every peer (never, for a
// cluster of one).
//
// With -journal, every accepted frame is committed to a write-ahead
// journal before it is acknowledged, and a restart on the same
// directory replays it: sequence high-water marks, dedup state, and the
// accounting counters all survive a SIGKILL, so clients that reconnect
// and retransmit are deduplicated instead of double-ingested. -fsync
// picks the durability point (always | interval | never — see
// DESIGN.md §9 for the trade-offs). /healthz answers 503 once the
// journal has failed.
//
// SIGINT or SIGTERM drains gracefully: leave the cluster, stop
// accepting, close connections, flush every shard queue into its
// controller, then print the final accounting (after which Ingested =
// delivered holds exactly).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/unroller/unroller/internal/cluster"
	"github.com/unroller/unroller/internal/collectorsvc"
	"github.com/unroller/unroller/internal/dataplane"
)

// defaultNodeID names a daemon started without -node-id: a standalone
// collectord is a one-member cluster, and with no -peers nothing else
// can claim the same identity.
const defaultNodeID = "collectord"

func main() {
	var (
		listen   = flag.String("listen", ":7777", "ingest listener address")
		admin    = flag.String("admin", "", "admin /statsz listener address (empty = disabled)")
		shards   = flag.Int("shards", collectorsvc.DefaultShards, "independent ingest shards")
		dedup    = flag.Int("dedup", 8, "per-flow dedup window in hops (0 = off)")
		maxEv    = flag.Int("max-events", dataplane.DefaultMaxEvents, "per-shard event buffer size")
		qAfter   = flag.Int("quarantine-after", 0, "quarantine a reporter after this many accepts per tick (0 = off; per-shard under flow sharding)")
		qTicks   = flag.Int("quarantine-ticks", 0, "ticks a quarantined reporter stays muted")
		maxAge   = flag.Int("max-age", 0, "age out buffered events after this many ticks (0 = never)")
		ackEvery = flag.Int("ack-every", collectorsvc.DefaultAckEvery, "acknowledge at least every N frames")
		batch    = flag.Int("batch", collectorsvc.DefaultBatch, "frames ingested per batch: one coalesced read, one journal-lock hold, one commit per ack batch")
		journal  = flag.String("journal", "", "write-ahead journal directory (empty = no journal, no crash recovery)")
		fsync    = flag.String("fsync", "interval", "journal fsync policy: always | interval | never")
		segBytes = flag.Int64("segment-bytes", collectorsvc.DefaultSegmentBytes, "journal bytes per segment before rotation")
		retain   = flag.Int("retain", collectorsvc.DefaultMaxSegments, "journal segments retained after rotation")
		readTO   = flag.Duration("read-timeout", collectorsvc.DefaultReadTimeout, "per-frame ingest read deadline (idle/dead peers are reaped)")
		writeTO  = flag.Duration("write-timeout", collectorsvc.DefaultWriteTimeout, "ack write deadline")
		maxConns = flag.Int("max-conns", collectorsvc.DefaultMaxConns, "concurrent ingest connections before rejecting at accept")

		nodeID   = flag.String("node-id", "", "stable cluster node identity (default "+defaultNodeID+"; required with -peers)")
		clusterL = flag.String("cluster-listen", ":7779", "cluster membership/handoff listener")
		peers    = flag.String("peers", "", "comma-separated cluster addresses of peers to join through")
		parts    = flag.Int("partitions", cluster.DefaultPartitions, "flow partitions on the ring (must match cluster-wide)")
		vnodes   = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per member on the ring (must match cluster-wide)")
		seed     = flag.Uint64("seed", 0, "ring layout and probe-schedule seed (must match cluster-wide)")
	)
	flag.Parse()
	cfg := collectorsvc.ServerConfig{
		Shards:       *shards,
		AckEvery:     *ackEvery,
		Batch:        *batch,
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
		MaxConns:     *maxConns,
		Controller: dataplane.ControllerConfig{
			MaxEvents:       *maxEv,
			DedupWindow:     *dedup,
			QuarantineAfter: *qAfter,
			QuarantineTicks: *qTicks,
			MaxAgeTicks:     *maxAge,
		},
	}
	var jcfg *collectorsvc.JournalConfig
	if *journal != "" {
		policy, err := collectorsvc.ParseFsyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "unroller-collectord: %v\n", err)
			os.Exit(2)
		}
		jcfg = &collectorsvc.JournalConfig{
			Dir:          *journal,
			SegmentBytes: *segBytes,
			MaxSegments:  *retain,
			Fsync:        policy,
		}
	}

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "unroller-collectord: %v, draining\n", s)
		close(stop)
	}()

	id := *nodeID
	if id == "" {
		if *peers != "" {
			fmt.Fprintln(os.Stderr, "unroller-collectord: -peers requires -node-id")
			os.Exit(2)
		}
		id = defaultNodeID
	}
	ncfg := cluster.NodeConfig{
		ID:            id,
		ClusterListen: *clusterL,
		IngestListen:  *listen,
		Peers:         splitPeers(*peers),
		Partitions:    *parts,
		VNodes:        *vnodes,
		Seed:          *seed,
		Server:        cfg,
	}
	if err := runCluster(os.Stdout, ncfg, jcfg, *admin, stop, nil); err != nil {
		fmt.Fprintf(os.Stderr, "unroller-collectord: %v\n", err)
		os.Exit(1)
	}
}

// splitPeers parses the comma-separated -peers list, dropping empty
// entries so a trailing comma is harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runCluster boots the daemon's cluster node (membership agent +
// ingest server + recovery handoff), blocks until stop closes, then
// drains and prints the final accounting. It is main minus the process
// concerns: tests drive it with their own stop channel and read the
// bound addresses from ready (ingest, then cluster, then admin when
// enabled). A non-nil jcfg journals ingest; the node replays the
// directory and reconciles it against any live peers before serving.
func runCluster(w io.Writer, ncfg cluster.NodeConfig, jcfg *collectorsvc.JournalConfig, admin string, stop <-chan struct{}, ready chan<- string) error {
	if jcfg != nil {
		j, err := collectorsvc.OpenJournal(*jcfg)
		if err != nil {
			return err
		}
		defer j.Close()
		ncfg.Server.Journal = j
	}
	node, err := cluster.StartNode(ncfg)
	if err != nil {
		return err
	}
	srv := node.Server()
	if jcfg != nil {
		rec := srv.Recovery()
		fmt.Fprintf(w, "journal: %s (fsync=%s) recovered records=%d snapshots=%d truncated=%d clients=%d flows=%d ingested=%d ticks=%d cross_dupes=%d\n",
			jcfg.Dir, jcfg.Fsync, rec.Records, rec.Snapshots, rec.TruncatedBytes, rec.Clients, rec.Flows, rec.Ingested, rec.Ticks, rec.CrossDupes)
	}
	scfg := ncfg.Server
	fmt.Fprintf(w, "listening on %s (shards=%d dedup=%d)\n",
		node.IngestAddr(), scfg.Shards, scfg.Controller.DedupWindow)
	fmt.Fprintf(w, "node %s: cluster on %s (partitions=%d vnodes=%d seed=%d peers=%d)\n",
		node.ID(), node.ClusterAddr(), ncfg.Partitions, ncfg.VNodes, ncfg.Seed, len(ncfg.Peers))
	if ready != nil {
		ready <- node.IngestAddr()
		ready <- node.ClusterAddr()
	}

	var adminLn net.Listener
	if admin != "" {
		adminLn, err = net.Listen("tcp", admin)
		if err != nil {
			node.Stop()
			return fmt.Errorf("admin listen %s: %w", admin, err)
		}
		fmt.Fprintf(w, "admin on http://%s/statsz\n", adminLn.Addr())
		if ready != nil {
			ready <- adminLn.Addr().String()
		}
		go http.Serve(adminLn, node.AdminHandler())
	}

	<-stop
	if adminLn != nil {
		adminLn.Close()
	}
	node.Stop()

	st := srv.Stats()
	fmt.Fprintf(w, "final: conns=%d frames=%d bad=%d dupes=%d ingested=%d ticks=%d cross_dupes=%d conns_rejected=%d\n",
		st.Conns, st.Frames, st.BadFrames, st.Dupes, st.Ingested, st.Ticks, st.CrossDupes, st.ConnsRejected)
	if j := srv.Journal(); j != nil {
		jst := j.Stats()
		fmt.Fprintf(w, "journal: segments=%d bytes=%d appends=%d append_errors=%d rotations=%d\n",
			jst.Segments, jst.Bytes, jst.Appends, jst.AppendErrors, jst.Rotations)
	}
	ci := node.Info()
	fmt.Fprintf(w, "cluster: id=%s version=%d isolated=%v partitions=%d owned=%d members=%d\n",
		ci.ID, ci.Version, ci.Isolated, ci.Partitions, ci.Owned, len(ci.Members))
	fmt.Fprintf(w, "aggregate: %s\n", srv.ControllerStats())
	for i, cs := range srv.ShardStats() {
		fmt.Fprintf(w, "shard %d: %s\n", i, cs)
	}
	return nil
}
