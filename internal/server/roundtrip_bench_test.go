package server

import (
	"net"
	"sync"
	"testing"
	"time"
)

// BenchmarkRoundTrip measures Get round trips over loopback against an
// in-process server, on the two sides of the burst rule:
//
//   - sync: one caller, call after call — nothing to batch, one socket write
//     per frame in each direction;
//   - sync-think: the same caller spinning 15 us between calls, as a client
//     that does something with each reply does; the idle gap lets the
//     runtime's threads park, so the round trip is dominated by wake-ups and
//     is the case a scheduling change in the wire path shows up in first;
//   - callers=8: eight callers sharing the connection, the batched path.
//
// call-ns/op is the time inside Client.Get alone (ns/op includes the think
// time).
func BenchmarkRoundTrip(b *testing.B) {
	for _, bc := range []struct {
		name    string
		callers int
		think   time.Duration
	}{
		{"sync", 1, 0},
		{"sync-think", 1, 15 * time.Microsecond},
		{"callers=8", 8, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			router, err := OpenRouter(b.TempDir(), 2, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer router.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := Serve(ln, router)
			defer srv.Close()
			c, err := Dial(srv.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if err := c.Put("", []byte("k"), []byte("v")); err != nil {
				b.Fatal(err)
			}
			inCall := make([]time.Duration, bc.callers)
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := 0; i < bc.callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < b.N/bc.callers; j++ {
						start := time.Now()
						if _, err := c.Get("", []byte("k")); err != nil {
							b.Error(err)
							return
						}
						end := time.Now()
						inCall[i] += end.Sub(start)
						for time.Since(end) < bc.think {
						}
					}
				}(i)
			}
			wg.Wait()
			var total time.Duration
			for _, d := range inCall {
				total += d
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "call-ns/op")
		})
	}
}
