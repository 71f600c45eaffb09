package main

import (
	"context"
	"sort"
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
	// applied them (vetted upstream, accepted by the server).
	t.cfg.CF(cf)
	for name, value := range changes {
		_ = t.cfg.Owner(cf, name).SetByName(name, value)
	}
	return nil
}

// Reopen implements core.LiveTarget: a remote server cannot be restarted
// from the tuning client.
func (t *serverTarget) Reopen(*lsm.ConfigSet) error {
	return core.ErrReopenUnsupported
}

// Observe implements core.LiveTarget: read the server's workload counters,
// wait out the window, read them again, and turn the two readings into a
// workload fingerprint and a throughput number. The stats dump taken at the
// end is the prompt's telemetry text.
func (t *serverTarget) Observe(ctx context.Context, d time.Duration) (*core.LiveObservation, error) {
	before, err := t.client.Workload()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(d):
	}
	after, err := t.client.Workload()
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	text, err := t.client.Stats()
	if err != nil {
		return nil, err
	}
	ws := lsm.NewWorkloadSnapshot(before, after)
	obs := &core.LiveObservation{Workload: &ws, StatsDump: text}
	if secs := wall.Seconds(); secs > 0 {
		obs.Throughput = float64(ws.Reads+ws.Writes+ws.Scans) / secs
	}
	return obs, nil
}
