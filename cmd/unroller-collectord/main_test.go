package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"

	"github.com/unroller/unroller/internal/cluster"
	"github.com/unroller/unroller/internal/collectorsvc"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/scenario"
)

// daemon is one runCluster instance on ephemeral ports.
type daemon struct {
	id                   string
	out                  bytes.Buffer
	stop                 chan struct{}
	done                 chan error
	ingest, clust, admin string
}

// startDaemon boots runCluster as member id, joining through peers,
// and returns once every listener is bound.
func startDaemon(t *testing.T, id string, peers []string) *daemon {
	t.Helper()
	d := &daemon{id: id, stop: make(chan struct{}), done: make(chan error, 1)}
	ncfg := cluster.NodeConfig{
		ID:            id,
		ClusterListen: "127.0.0.1:0",
		IngestListen:  "127.0.0.1:0",
		Peers:         peers,
		Seed:          42,
		Server: collectorsvc.ServerConfig{
			Shards:     2,
			Controller: dataplane.ControllerConfig{MaxEvents: 1024, DedupWindow: 8},
		},
	}
	ready := make(chan string, 3)
	go func() { d.done <- runCluster(&d.out, ncfg, nil, "127.0.0.1:0", d.stop, ready) }()
	d.ingest, d.clust, d.admin = <-ready, <-ready, <-ready
	return d
}

// get fetches path from the daemon's admin listener.
func (d *daemon) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + d.admin + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// reportClient is what the test needs of either client: the direct
// collectorsvc client for a lone node, the cluster-routing client for a
// fleet.
type reportClient interface {
	Send(ev dataplane.LoopEvent, hop int)
	Close() error
}

// TestRunServesAndDrains drives the daemon end to end as a standalone
// one-member cluster (default ID, direct client) and as a 3-node
// cluster (cluster-routing client): boot on ephemeral ports, stream a
// scenario, check both admin endpoints over the real socket, stop, and
// check every node's final accounting.
func TestRunServesAndDrains(t *testing.T) {
	for _, size := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d-node", size), func(t *testing.T) {
			var nodes []*daemon
			var seeds []string
			for i := 0; i < size; i++ {
				id := defaultNodeID
				if size > 1 {
					id = fmt.Sprintf("n%d", i+1)
				}
				d := startDaemon(t, id, seeds[:min(i, 1)]) // joiners seed through the first node
				nodes = append(nodes, d)
				seeds = append(seeds, d.clust)
			}

			var c reportClient
			var err error
			if size == 1 {
				c, err = collectorsvc.NewClient(collectorsvc.ClientConfig{Addr: nodes[0].ingest, ID: 1})
			} else {
				c, err = cluster.NewClient(cluster.ClientConfig{Seeds: seeds, ID: 9, Seed: 42})
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := scenario.RunStreamed("microloop", 7, 4, c.Send); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			var enq, acked, dropped uint64
			switch c := c.(type) {
			case *collectorsvc.Client:
				st := c.Stats()
				enq, acked, dropped = st.Enqueued, st.Acked, st.Dropped
			case *cluster.Client:
				st := c.Stats()
				enq, acked, dropped = st.Enqueued, st.Acked, st.Dropped
			}
			if acked == 0 || enq != acked+dropped || dropped != 0 {
				t.Fatalf("client enqueued=%d acked=%d dropped=%d", enq, acked, dropped)
			}

			for _, d := range nodes {
				if code, body := d.get(t, "/statsz"); code != http.StatusOK ||
					!strings.Contains(body, "server:") || !strings.Contains(body, "cluster: id="+d.id) {
					t.Errorf("node %s /statsz: status %d body %q", d.id, code, body)
				}
				if code, body := d.get(t, "/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ready" {
					t.Errorf("node %s /healthz: status %d body %q", d.id, code, body)
				}
			}

			var wg sync.WaitGroup
			for _, d := range nodes {
				close(d.stop)
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := <-d.done; err != nil {
						t.Errorf("node %s exited with %v", d.id, err)
					}
				}()
			}
			wg.Wait()
			for _, d := range nodes {
				text := d.out.String()
				for _, want := range []string{
					"listening on", "node " + d.id + ": cluster on", "admin on",
					"final:", "cluster: id=" + d.id, "aggregate:", "shard 1:",
				} {
					if !strings.Contains(text, want) {
						t.Errorf("node %s output missing %q:\n%s", d.id, want, text)
					}
				}
			}
		})
	}
}

// TestRunRejectsBadListenAddrs: every listener fails fast with a
// non-nil error instead of serving nothing.
func TestRunRejectsBadListenAddrs(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	for _, tc := range []struct {
		name                 string
		ingest, clust, admin string
	}{
		{"ingest", "not-an-address", "127.0.0.1:0", ""},
		{"cluster", "127.0.0.1:0", "not-an-address", ""},
		{"admin", "127.0.0.1:0", "127.0.0.1:0", "not-an-address"},
	} {
		ncfg := cluster.NodeConfig{ID: defaultNodeID, IngestListen: tc.ingest, ClusterListen: tc.clust}
		var out bytes.Buffer
		if err := runCluster(&out, ncfg, nil, tc.admin, stop, nil); err == nil {
			t.Errorf("bad %s address accepted", tc.name)
		}
	}
}

// TestPeersRequireNodeID: -peers without -node-id is a usage error, so
// two nodes joining a cluster can never both take the default identity.
func TestPeersRequireNodeID(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-listen", "127.0.0.1:0", "-cluster-listen", "127.0.0.1:0", "-peers", "127.0.0.1:1")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-peers requires -node-id") {
		t.Fatalf("got err=%v output %q, want exit 2 with a usage error", err, out)
	}
}
