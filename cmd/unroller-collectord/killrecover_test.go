package main

import (
	"bufio"
	"bytes"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/unroller/unroller/internal/collectorsvc"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// The kill-recover test needs a real process to SIGKILL, so the test
// binary doubles as the daemon: when the child env gate is set, TestMain
// runs main() on the provided flags instead of the test suite.
const childEnv = "UNROLLER_COLLECTORD_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// freeAddr reserves an ephemeral port and releases it, so two successive
// collectord processes can bind the same address (the client keeps one
// address across the kill).
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// collectordProc is a collectord child process plus its captured stdout.
type collectordProc struct {
	cmd  *exec.Cmd
	mu   sync.Mutex
	out  bytes.Buffer
	done chan error
}

func (p *collectordProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// spawnCollectord starts the test binary as a collectord child and
// returns once it prints its "listening on" line.
func spawnCollectord(t *testing.T, args ...string) *collectordProc {
	t.Helper()
	p := &collectordProc{done: make(chan error, 1)}
	p.cmd = exec.Command(os.Args[0], args...)
	p.cmd.Env = append(os.Environ(), childEnv+"=1")
	p.cmd.Stderr = os.Stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	listening := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		seen := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.out.WriteString(line)
			p.out.WriteByte('\n')
			p.mu.Unlock()
			if !seen && strings.HasPrefix(line, "listening on ") {
				seen = true
				close(listening)
			}
		}
		p.done <- p.cmd.Wait()
	}()
	t.Cleanup(func() { p.cmd.Process.Kill() })
	select {
	case <-listening:
	case <-time.After(15 * time.Second):
		t.Fatalf("collectord child never started listening; output so far:\n%s", p.output())
	}
	return p
}

// TestCollectordKillRecoverExactlyOnce is the process-level crash test:
// a journaled collectord is SIGKILLed mid-ingest, restarted on the same
// journal directory and the same address, and the surviving client
// finishes its stream against the recovered process. The final drained
// accounting must show every unique event ingested exactly once — the
// retransmitted overlap is deduplicated via the recovered sequence
// high-water marks, and nothing acked before the kill is lost.
func TestCollectordKillRecoverExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	dir := t.TempDir()
	addr := freeAddr(t)
	args := []string{
		"-listen", addr,
		"-cluster-listen", "127.0.0.1:0",
		"-journal", dir,
		"-fsync", "never", // commit-before-ack still survives SIGKILL
		"-segment-bytes", "8192", // force rotations + snapshots mid-run
		"-shards", "2",
		"-ack-every", "8",
		"-read-timeout", "5s",
	}
	proc := spawnCollectord(t, args...)

	client, err := collectorsvc.NewClient(collectorsvc.ClientConfig{
		Addr:         addr,
		ID:           7,
		Seed:         1,
		Buffer:       1 << 16,
		Batch:        32,
		MinBackoff:   2 * time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
		FlushTimeout: 120 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 4000
	send := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			client.Send(dataplane.LoopEvent{
				Report: detect.Report{Reporter: detect.SwitchID(i%5 + 1), Hops: 3},
				Flow:   uint32(i), // unique flows: every event is admissible
			}, i%17)
		}
	}
	send(0, total/2)
	deadline := time.Now().Add(30 * time.Second)
	for client.Stats().Acked < total/8 {
		if time.Now().After(deadline) {
			t.Fatalf("first wave never got acks: %+v", client.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// SIGKILL mid-ingest: acks are flowing, frames are in flight, and the
	// ack lag (-ack-every 8) guarantees committed-but-unacked overlap the
	// restarted process must dedup when the client retransmits.
	if err := proc.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-proc.done

	proc2 := spawnCollectord(t, args...)
	if !strings.Contains(proc2.output(), "journal: "+dir) {
		t.Fatalf("restarted collectord did not report recovery:\n%s", proc2.output())
	}
	send(total/2, total)
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	st := client.Stats()
	if st.Dropped != 0 || st.Acked != total {
		t.Fatalf("client lost events across the kill: %+v", st)
	}

	if err := proc2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-proc2.done:
		if err != nil {
			t.Fatalf("drain exit: %v\noutput:\n%s", err, proc2.output())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("restarted collectord never drained; output:\n%s", proc2.output())
	}

	out := proc2.output()
	m := regexp.MustCompile(`final: conns=\d+ frames=\d+ bad=(\d+) dupes=(\d+) ingested=(\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no final accounting line in:\n%s", out)
	}
	bad, _ := strconv.Atoi(m[1])
	dupes, _ := strconv.Atoi(m[2])
	ingested, _ := strconv.Atoi(m[3])
	rec := regexp.MustCompile(`recovered records=(\d+) snapshots=(\d+) .* ingested=(\d+)`).FindStringSubmatch(out)
	if rec == nil {
		t.Fatalf("no recovery line in:\n%s", out)
	}
	recIngested, _ := strconv.Atoi(rec[3])
	t.Logf("recovered ingested=%d, final ingested=%d dupes=%d bad=%d", recIngested, ingested, dupes, bad)
	if recIngested == 0 {
		t.Error("recovery replayed nothing — the kill landed before any commit, test is vacuous")
	}
	// Exactly-once across the crash: sent = ingested + dropped, with
	// dropped = 0 and zero duplicate acceptance.
	if ingested != total {
		t.Errorf("final ingested=%d, want exactly %d (client acked %d, dropped 0)", ingested, total, st.Acked)
	}
	if bad != 0 {
		t.Errorf("%d bad frames; clean reconnects should produce none", bad)
	}
	// The drained server's identity: every ingested report reached a
	// controller, the recovered ones included.
	agg := regexp.MustCompile(`aggregate: delivered=(\d+) `).FindStringSubmatch(out)
	if agg == nil {
		t.Fatalf("no aggregate line in:\n%s", out)
	}
	if delivered, _ := strconv.Atoi(agg[1]); delivered != ingested {
		t.Errorf("aggregate delivered=%d, want ingested=%d", delivered, ingested)
	}
}
