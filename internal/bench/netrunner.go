package bench

import (
	"fmt"
	"sync"

	"repro/internal/server"
)

// NetRunner executes a Spec against a kvserver over the network instead of
// an embedded DB: dbbench's -server mode. It opens Connections pipelined
// client connections and multiplexes Pipeline worker goroutines onto each,
// so with C connections and depth D there are C*D concurrent requests in
// flight and every connection stays D-deep pipelined. Keys route to server
// shards by hash; the workers, their op streams and the driver are the
// embedded Runner's, laid out over C*D workers instead of Spec.Threads.
type NetRunner struct {
	Addr        string
	Connections int
	// Pipeline is the number of worker goroutines sharing each connection
	// (the per-connection pipeline depth). Default 4.
	Pipeline int
	Spec     *Spec
	Monitor  func(Progress) bool
}

// Run connects, preloads (unmeasured), executes the measured phase and
// returns a report whose StatsDump is the server's aggregated stats text.
func (r *NetRunner) Run() (*Report, error) {
	if err := r.Spec.Validate(); err != nil {
		return nil, err
	}
	clients := make([]*server.Client, max(r.Connections, 1))
	conns := make([]target, len(clients))
	for i := range clients {
		c, err := server.Dial(r.Addr)
		if err != nil {
			for _, open := range clients[:i] {
				open.Close()
			}
			return nil, fmt.Errorf("bench: dial %s: %w", r.Addr, err)
		}
		clients[i] = c
		conns[i] = &wireTarget{c: c, cfs: r.Spec.families()}
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	rep, err := r.run(conns)
	if err != nil {
		return nil, err
	}
	if text, err := clients[0].Stats(); err == nil {
		rep.StatsDump = text
	}
	return rep, nil
}

// run preloads through every connection in parallel, then measures the
// workload with Pipeline workers per connection.
func (r *NetRunner) run(conns []target) (*Report, error) {
	if r.Spec.Preload > 0 {
		var wg sync.WaitGroup
		errs := make([]error, len(conns))
		share := r.Spec.Preload / uint64(len(conns))
		for i, t := range conns {
			lo, hi := uint64(i)*share, uint64(i+1)*share
			if i == len(conns)-1 {
				hi = r.Spec.Preload
			}
			wg.Add(1)
			go func(i int, t target) {
				defer wg.Done()
				errs[i] = preload(t, r.Spec, r.Spec.Seed*31337+int64(i), lo, hi)
			}(i, t)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("bench: preload: %w", err)
			}
		}
	}
	depth := r.Pipeline
	if depth < 1 {
		depth = 4
	}
	workers := newWorkers(r.Spec, len(conns)*depth, func(i int) target { return conns[i%len(conns)] })
	elapsed, aborted, err := runWall(workers, r.Monitor)
	if err != nil {
		return nil, err
	}
	return newReport(r.Spec.Name+"/net", r.Spec.ValueSize, workers, elapsed, aborted), nil
}
