// Command kvserver serves the engine over TCP: a length-prefixed binary
// protocol (Put/Get/Delete/MultiGet/Scan/WriteBatch/Stats, column-family
// aware) in front of a shard router that hash-partitions the keyspace across
// N embedded LSM instances, one per core by default. Connections are
// pipelined: a client may keep many requests in flight, and the server answers
// each burst in order with one socket write.
//
// Examples:
//
//	kvserver -addr :6380 -db /tmp/kv -shards 4
//	kvserver -addr 127.0.0.1:0 -ready_file /tmp/kv.addr   # ephemeral port
//	dbbench -server 127.0.0.1:6380 -benchmarks readrandomwriterandom -num 200000 -connections 64
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"

	"repro/internal/ini"
	"repro/internal/lsm"
	"repro/internal/metrics"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":6380", "listen address (host:port; port 0 picks one)")
		dbPath    = flag.String("db", "", "base directory for shard databases (empty = temp dir)")
		shards    = flag.Int("shards", runtime.GOMAXPROCS(0), "number of embedded shard databases")
		optsFile  = flag.String("options", "", "OPTIONS ini file applied to every shard (incl. CFOptions sections)")
		metricsA  = flag.String("metrics_addr", "", "serve Prometheus /metrics (engine + server gauges) on this address")
		readyFile = flag.String("ready_file", "", "write the bound listen address to this file once serving (for scripts)")
	)
	flag.Parse()

	cfg := lsm.NewConfigSet(lsm.DBBenchDefaults())
	if *optsFile != "" {
		doc, err := ini.Load(*optsFile)
		if err != nil {
			fatal(err)
		}
		loaded, unknown, err := lsm.ConfigSetFromINI(doc)
		if err != nil {
			fatal(err)
		}
		for _, u := range unknown {
			fmt.Fprintf(os.Stderr, "warning: unknown option %q ignored\n", u)
		}
		cfg = loaded
	}

	dir := *dbPath
	if dir == "" {
		d, err := os.MkdirTemp("", "kvserver-")
		if err != nil {
			fatal(err)
		}
		dir = d
		fmt.Fprintf(os.Stderr, "kvserver: no -db given, using %s\n", dir)
	}

	router, err := server.OpenRouter(dir, *shards, cfg)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		router.Close()
		fatal(err)
	}
	srv := server.Serve(ln, router)
	fmt.Fprintf(os.Stderr, "kvserver: listening on %s (%d shards, db %s)\n",
		srv.Addr(), router.NumShards(), dir)

	if *metricsA != "" {
		exp := metrics.NewExporter(router)
		exp.SetExtra(srv.Metrics().WritePrometheus)
		maddr, _, err := metrics.Serve(*metricsA, exp)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "kvserver: serving Prometheus metrics on http://%s/metrics\n", maddr)
	}

	if *readyFile != "" {
		// Write to a temp name and rename so pollers never read a partial
		// address.
		tmp := *readyFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(srv.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
		if err := os.Rename(tmp, filepath.Clean(*readyFile)); err != nil {
			fatal(err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "kvserver: shutting down")
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "kvserver: listener close:", err)
	}
	if err := router.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "kvserver: shard close:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "kvserver: clean shutdown")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kvserver:", err)
	os.Exit(1)
}
