package bench

import (
	"net"
	"strings"
	"testing"

	"repro/internal/server"
)

// startKVServer serves a sharded router on an ephemeral port for the
// duration of the test.
func startKVServer(t *testing.T, shards int) string {
	t.Helper()
	addr, _ := startStoppableKVServer(t, shards)
	return addr
}

// startStoppableKVServer is startKVServer plus a function that stops the
// server early, dropping every connection.
func startStoppableKVServer(t *testing.T, shards int) (addr string, stop func()) {
	t.Helper()
	router, err := server.OpenRouter(t.TempDir(), shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		router.Close()
		t.Fatal(err)
	}
	srv := server.Serve(ln, router)
	t.Cleanup(func() {
		srv.Close()
		if err := router.Close(); err != nil {
			t.Errorf("router close: %v", err)
		}
	})
	return srv.Addr().String(), func() { srv.Close() }
}

// TestNetRunnerManyConnections drives a 2-shard server with 256 concurrent
// pipelined connections to completion — the ISSUE's acceptance bar; under
// -race this checks the whole client/server wire path for data races.
func TestNetRunnerManyConnections(t *testing.T) {
	addr := startKVServer(t, 2)
	spec := ReadRandomWriteRandom(4096, 64, 1)
	r := &NetRunner{Addr: addr, Connections: 256, Pipeline: 1, Spec: spec}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted {
		t.Fatal("run aborted")
	}
	if rep.Ops != spec.TotalOps() {
		t.Errorf("completed %d ops, want %d", rep.Ops, spec.TotalOps())
	}
	if rep.Throughput <= 0 {
		t.Errorf("throughput %v, want > 0", rep.Throughput)
	}
	// The preloaded key space guarantees most reads hit.
	if rep.ReadMisses > rep.Ops/2 {
		t.Errorf("%d read misses out of %d ops: preload did not land", rep.ReadMisses, rep.Ops)
	}
	if !strings.Contains(rep.StatsDump, "KVServer aggregated stats") {
		t.Error("report missing server stats dump")
	}
}

// TestNetRunnerReadMulti runs the readmulti workload over the network: every
// read is a MultiGet batch fanned out across shards. The key space is fully
// preloaded, so every key must be found.
func TestNetRunnerReadMulti(t *testing.T) {
	addr := startKVServer(t, 4)
	spec := ReadMulti(512, 256, 4, 64, 1)
	r := &NetRunner{Addr: addr, Connections: 8, Pipeline: 4, Spec: spec}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != spec.TotalOps() {
		t.Errorf("completed %d ops, want %d", rep.Ops, spec.TotalOps())
	}
	if rep.ReadMisses != 0 {
		t.Errorf("%d read misses on a fully preloaded key space", rep.ReadMisses)
	}
	if rep.Workload != "readmulti/net" {
		t.Errorf("workload label %q", rep.Workload)
	}
}

// TestNetRunnerScans checks the scan fraction path end to end (cross-shard
// merge on the server).
func TestNetRunnerScans(t *testing.T) {
	addr := startKVServer(t, 2)
	spec := SeekRandom(256, 10, 64, 1)
	r := &NetRunner{Addr: addr, Connections: 4, Pipeline: 2, Spec: spec}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != spec.TotalOps() {
		t.Errorf("completed %d ops, want %d", rep.Ops, spec.TotalOps())
	}
	if rep.Bytes == 0 {
		t.Error("scans moved no bytes")
	}
}

// TestNetRunnerReadWhileWriting: the spec's dedicated writer share holds over
// the network too — one writer thread of three becomes a third of the
// connection workers, so a third of the operations are writes.
func TestNetRunnerReadWhileWriting(t *testing.T) {
	addr := startKVServer(t, 2)
	spec := ReadWhileWriting(3000, 64, 3)
	rep, err := (&NetRunner{Addr: addr, Connections: 3, Pipeline: 2, Spec: spec}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != spec.TotalOps() || rep.Errors != 0 {
		t.Fatalf("ops=%d errors=%d, want %d/0", rep.Ops, rep.Errors, spec.TotalOps())
	}
	wfrac := float64(rep.Write.Count()) / float64(rep.Ops)
	if wfrac < 0.30 || wfrac > 0.37 {
		t.Fatalf("write fraction = %v, want ~1/3", wfrac)
	}
	if rep.ReadMisses > rep.Read.Count()/10 {
		t.Fatalf("too many read misses (%d/%d) against a preloaded space", rep.ReadMisses, rep.Read.Count())
	}
}
