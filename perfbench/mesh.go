package main

import (
	"time"

	"fftgrad/internal/cluster"
	"fftgrad/internal/dist"
	"fftgrad/internal/guard"
	"fftgrad/internal/obs"
)

// meshExchange routes the exchange through the failure-aware point-to-point
// mesh with CRC-framed messages and the cross-rank profiler, as
// `trainer -fault-aware -guard -profile` does, without chaos. Heartbeat,
// resend and suspicion deadlines are deployment-scale rather than the
// 2ms/3ms/100ms in-process defaults: a fault-free run must show no retry
// and no degraded iteration, so a scheduler stall on a loaded 2-core box
// must not read as a lost message or a dead peer, and a 2ms heartbeat
// would wake a third goroutine per rank every few iterations, making the
// iteration time depend on how its phase happens to fall.
func meshExchange(c *dist.Config, seed int64) {
	c.Fault = &dist.FaultConfig{Cluster: cluster.Config{
		Heartbeat:    100 * time.Millisecond,
		SuspectAfter: 2 * time.Second,
		BackoffBase:  250 * time.Millisecond,
		BackoffMax:   time.Second,
		Policy:       cluster.DropRescale,
		OnStraggler:  cluster.StragglerWait,
		Seed:         seed,
	}}
	c.Guard = &guard.Config{CRC: true}
	c.Profiler = obs.New(c.Workers, 0)
}
