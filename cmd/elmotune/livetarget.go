package main

import (
	"bufio"
	"context"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/server"
)

// serverTarget adapts a running kvserver (reached over the wire) to
// core.LiveTarget. The server cannot be restarted from here, so Reopen
// reports ErrReopenUnsupported and the loop vets change sets in live mode:
// only runtime-mutable options are ever sent.
//
// The server exposes no "dump config" operation, so the target tracks the
// configuration it believes is in effect: the engine defaults at dial time,
// then every change set the loop applies. That mirrors what an operator
// retuning a long-running instance actually knows.
type serverTarget struct {
	client *server.Client
	cfg    *lsm.ConfigSet
	// prev is the previous observation window's fingerprint, for drift
	// scoring (the server's own drift tracker spans ALL traffic since boot;
	// ours must cover exactly the windows this session observed).
	prev *lsm.WorkloadSnapshot
}

func newServerTarget(client *server.Client, cfNames []string) *serverTarget {
	cfg := lsm.NewConfigSet(lsm.DefaultOptions())
	for _, name := range cfNames {
		cfg.CF(name)
	}
	return &serverTarget{client: client, cfg: cfg}
}

// Config implements core.LiveTarget.
func (t *serverTarget) Config() (*lsm.ConfigSet, error) {
	return t.cfg.Clone(), nil
}

// ApplyLive implements core.LiveTarget: one SetOptions round trip; the
// server fans the changes out to every shard.
func (t *serverTarget) ApplyLive(cf string, changes map[string]string) error {
	kvs := make([]server.OptionKV, 0, len(changes))
	for name, value := range changes {
		kvs = append(kvs, server.OptionKV{Name: name, Value: value})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].Name < kvs[j].Name })
	if _, err := t.client.SetOptions(cf, kvs); err != nil {
		return err
	}
	// Mirror the applied values into the tracked config the way the server
	// applied them (vetted upstream, accepted by the server): DB-scoped names
	// on Default, the rest on the family.
	dbScope, cfScope := lsm.SplitOptionScopes(changes)
	for name, value := range dbScope {
		_ = t.cfg.Default.SetByName(name, value)
	}
	family := t.cfg.CF(cf)
	for name, value := range cfScope {
		_ = family.SetByName(name, value)
	}
	return nil
}

// Reopen implements core.LiveTarget: a remote server cannot be restarted
// from the tuning client.
func (t *serverTarget) Reopen(*lsm.ConfigSet) error {
	return core.ErrReopenUnsupported
}

// Observe implements core.LiveTarget: sample the server's summed tickers,
// wait out the window, sample again, and turn the deltas into a throughput
// number and a workload fingerprint.
func (t *serverTarget) Observe(ctx context.Context, d time.Duration) (*core.LiveObservation, error) {
	before, _, err := t.sample()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(d):
	}
	after, text, err := t.sample()
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)

	delta := func(name string) int64 { return after[name] - before[name] }
	ws := lsm.WorkloadSnapshot{
		Reads: delta("rocksdb.get.hit") + delta("rocksdb.get.miss") +
			delta("rocksdb.number.multiget.keys.read"),
		Writes: delta("rocksdb.write.self") + delta("rocksdb.write.other"),
		Scans:  delta("rocksdb.number.db.seek"),
	}
	if total := ws.Reads + ws.Writes + ws.Scans; total > 0 {
		ws.ReadFraction = float64(ws.Reads) / float64(total)
		ws.WriteFraction = float64(ws.Writes) / float64(total)
		ws.ScanFraction = float64(ws.Scans) / float64(total)
	}
	if micros := wall.Microseconds(); micros > 0 {
		if stall := delta("rocksdb.stall.micros"); stall > 0 {
			ws.StallFraction = float64(stall) / float64(micros)
			if ws.StallFraction > 1 {
				ws.StallFraction = 1
			}
		}
	}
	ws.Drift = ws.DriftFrom(t.prev)
	t.prev = &ws

	obs := &core.LiveObservation{Workload: &ws, StatsDump: text}
	if secs := wall.Seconds(); secs > 0 {
		obs.Throughput = float64(ws.Reads+ws.Writes+ws.Scans) / secs
	}
	return obs, nil
}

// sample fetches the server stats dump and parses the summed ticker lines
// ("<name> COUNT : <value>"), returning both the counters and the raw text.
func (t *serverTarget) sample() (map[string]int64, string, error) {
	text, err := t.client.Stats()
	if err != nil {
		return nil, "", err
	}
	counters := make(map[string]int64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		name, rest, ok := strings.Cut(line, " COUNT : ")
		if !ok || strings.ContainsAny(name, " \t") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			continue
		}
		// Keep the first (summed, cross-shard) occurrence; per-shard dumps
		// repeat the same names further down.
		if _, seen := counters[name]; !seen {
			counters[name] = v
		}
	}
	return counters, text, nil
}
