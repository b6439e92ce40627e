package dist

import (
	"errors"
	"testing"
	"time"

	"fftgrad/internal/chaos"
	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/comm"
	"fftgrad/internal/compress"
	"fftgrad/internal/feedback"
	"fftgrad/internal/obs"
	"fftgrad/internal/sparsify"
	"fftgrad/internal/telemetry"
)

// faultClusterCfg is a test-speed cluster configuration: tight
// heartbeats and backoffs so failure detection fits in CI seconds.
func faultClusterCfg() cluster.Config {
	return cluster.Config{
		Heartbeat:    time.Millisecond,
		SuspectAfter: 150 * time.Millisecond,
		BackoffBase:  2 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		MaxRetries:   8,
		MaxStall:     30 * time.Second,
		RejoinWait:   20 * time.Second,
	}
}

// TestFaultFreeMatchesBarrierExactly: with no chaos and no failures the
// failure-aware mesh is just a different transport for the same
// arithmetic. Every row runs the same config over the barrier
// collectives and over the mesh, and the two must be bit-identical —
// per-bucket rounds, guard framing, θ schedules and the profiler
// included.
func TestFaultFreeMatchesBarrierExactly(t *testing.T) {
	fbFFT := func() compress.Compressor { return feedback.New(compress.NewFFT(0.5)) }
	for _, tc := range []struct {
		name string
		seed int64
		mod  func(*Config)
	}{
		{"fp32", 21, func(*Config) {}},
		{"bucketed-feedback-fft", 85, func(c *Config) {
			c.NewCompressor = fbFFT
			c.Collective = &collective.Config{BucketBytes: 1024}
		}},
		{"guard-feedback-fft", 86, func(c *Config) {
			c.NewCompressor = fbFFT
			c.Guard = fullGuard()
		}},
		{"theta-schedule", 87, func(c *Config) {
			c.NewCompressor = fbFFT
			c.ThetaSchedule = sparsify.StepDrop{Initial: 0.9, Final: 0.5, DropEpoch: 1}
		}},
		{"profiler", 88, func(c *Config) {
			c.Profiler = obs.New(c.Workers, 256)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() Config {
				cfg := blobCfg(tc.seed)
				tc.mod(&cfg)
				return cfg
			}
			base, err := Train(mk())
			if err != nil {
				t.Fatal(err)
			}
			cfg := mk()
			cfg.Fault = &FaultConfig{Cluster: faultClusterCfg()}
			got, err := Train(cfg)
			if err != nil {
				t.Fatal(err)
			}
			epochsEqual(t, tc.name, base, got)
			if got.Iterations != base.Iterations || got.AvgMsgBytes != base.AvgMsgBytes {
				t.Fatalf("iterations %d/%d, avg msg bytes %v/%v (mesh/barrier)",
					got.Iterations, base.Iterations, got.AvgMsgBytes, base.AvgMsgBytes)
			}
			if got.Fault == nil {
				t.Fatal("fault report missing")
			}
			if s := got.Fault.Cluster; s.Suspicions != 0 || s.DegradedIterations != 0 || s.Rejoins != 0 {
				t.Fatalf("clean run recorded faults: %+v", s)
			}
		})
	}
}

// TestChaosGate is the PR's acceptance gate: a 4-worker run under 5%
// drop, delays, and one crash+recovery must complete without deadlock,
// the crashed rank must rejoin, and final accuracy must stay within 2
// points of the fault-free run.
func TestChaosGate(t *testing.T) {
	base, err := Train(blobCfg(31))
	if err != nil {
		t.Fatal(err)
	}
	baseAcc := base.Epochs[len(base.Epochs)-1].TestAcc

	cfg := blobCfg(31)
	cc := faultClusterCfg()
	cc.Policy = cluster.StaleReuse
	cc.OnStraggler = cluster.StragglerWait
	cfg.Fault = &FaultConfig{
		Cluster: cc,
		Chaos: &chaos.Config{
			Seed:      31,
			Drop:      0.05,
			DelayProb: 0.10,
			Delay:     10 * time.Millisecond,
			// Rank 2 crashes mid-run (op-indexed: heartbeats + data traffic
			// burn ~1k ops/s) and recovers, forcing an eviction + rejoin.
			Crashes: []chaos.CrashEvent{{Rank: 2, AtOp: 1200, RecoverAfterOps: 1000}},
		},
	}
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg

	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := Train(cfg)
		done <- out{res, err}
	}()
	var res *Result
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("chaos run failed: %v", o.err)
		}
		res = o.res
	case <-time.After(4 * time.Minute):
		t.Fatal("chaos run deadlocked")
	}

	if res.Fault == nil || res.Fault.Chaos == nil {
		t.Fatal("fault/chaos report missing")
	}
	if res.Fault.Chaos.Drops == 0 {
		t.Fatal("chaos injected nothing; gate proves nothing")
	}
	acc := res.Epochs[len(res.Epochs)-1].TestAcc
	if acc < baseAcc-0.02 {
		t.Fatalf("accuracy under chaos %.3f more than 2 points below fault-free %.3f", acc, baseAcc)
	}
	// The crash is long enough that rank 2 must have been suspected and
	// must have come back.
	s := res.Fault.Cluster
	if s.Suspicions == 0 || s.Rejoins == 0 {
		t.Fatalf("crash+rejoin not exercised: %+v", s)
	}
	if res.Fault.LostWorkers != 0 {
		t.Fatalf("rank 2 never made it back: %+v", res.Fault)
	}
	// Telemetry carries the cluster counters.
	if v := res.Telemetry["fftgrad_cluster_suspicions_total"]; v <= 0 {
		t.Fatalf("fftgrad_cluster_suspicions_total = %g in telemetry snapshot", v)
	}
}

// TestFaultPartitionFailsFast: an unrecoverable 2-2 partition must
// surface a typed error in bounded time — never hang, never silently
// return a half-trained model as success.
func TestFaultPartitionFailsFast(t *testing.T) {
	cfg := blobCfg(41)
	cc := faultClusterCfg()
	cc.Policy = cluster.DropRescale // quorum guard must fire regardless of policy
	cc.SuspectAfter = 80 * time.Millisecond
	cc.MaxRetries = 3
	cc.MaxStall = 5 * time.Second
	cc.RejoinWait = time.Second
	cc.MaxRejoins = 2
	cfg.Fault = &FaultConfig{
		Cluster: cc,
		Chaos: &chaos.Config{
			Seed:      41,
			Partition: &chaos.Partition{Ranks: []int{2, 3}, FromOp: 0, Ops: 0},
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := Train(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("partitioned run reported success")
		}
		if !errors.Is(err, cluster.ErrNoQuorum) && !errors.Is(err, cluster.ErrEvicted) &&
			!errors.Is(err, cluster.ErrStalled) && !errors.Is(err, cluster.ErrRejoinTimeout) {
			t.Fatalf("partition error not typed: %v", err)
		}
	case <-time.After(3 * time.Minute):
		t.Fatal("partitioned run hung instead of failing fast")
	}
}

// TestFaultConfigExclusions: the unsupported combinations error out
// immediately instead of half-working.
func TestFaultConfigExclusions(t *testing.T) {
	cfg := blobCfg(5)
	cfg.Fault = &FaultConfig{}
	cfg.UseSparseAllreduce = true
	if _, err := Train(cfg); err == nil {
		t.Fatal("Fault+UseSparseAllreduce accepted")
	}
	cfg = blobCfg(5)
	cfg.Fault = &FaultConfig{}
	cfg.MeasureAlpha = true
	if _, err := Train(cfg); err == nil {
		t.Fatal("Fault+MeasureAlpha accepted")
	}
}

// TestChaosScheduleProperty is the convergence-or-typed-error property:
// for any seeded drop/delay/dup schedule (no crashes, no partitions),
// the run either completes having repaired every fault losslessly —
// bit-identical epochs to the fault-free run — or completes degraded
// with non-zero fault accounting, or fails with a typed error. It never
// silently diverges and never deadlocks.
func TestChaosScheduleProperty(t *testing.T) {
	mk := func(seed int64) Config {
		cfg := blobCfg(7) // same training seed every time: comparable runs
		cfg.Epochs = 1
		cfg.ItersPerEpoch = 12
		cfg.Workers = 3
		cfg.NewCompressor = func() compress.Compressor {
			return feedback.New(compress.NewFFT(0.5))
		}
		cc := faultClusterCfg()
		cc.Seed = seed
		cfg.Fault = &FaultConfig{Cluster: cc}
		if seed != 0 {
			cfg.Fault.Chaos = &chaos.Config{
				Seed:      seed,
				Drop:      0.10,
				DelayProb: 0.20,
				Delay:     2 * time.Millisecond,
				Dup:       0.10,
			}
		}
		return cfg
	}

	clean, err := Train(mk(0))
	if err != nil {
		t.Fatalf("fault-free reference: %v", err)
	}

	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		type out struct {
			res *Result
			err error
		}
		done := make(chan out, 1)
		go func() {
			res, err := Train(mk(seed))
			done <- out{res, err}
		}()
		select {
		case o := <-done:
			if o.err != nil {
				// Failure is allowed, but only typed.
				if !errors.Is(o.err, cluster.ErrNoQuorum) && !errors.Is(o.err, cluster.ErrPeerFailed) &&
					!errors.Is(o.err, cluster.ErrStalled) && !errors.Is(o.err, cluster.ErrEvicted) &&
					!errors.Is(o.err, cluster.ErrRejoinTimeout) && !errors.Is(o.err, comm.ErrTimeout) {
					t.Fatalf("seed %d: untyped error: %v", seed, o.err)
				}
				continue
			}
			s := o.res.Fault.Cluster
			identical := true
			for i := range clean.Epochs {
				if o.res.Epochs[i].TrainLoss != clean.Epochs[i].TrainLoss ||
					o.res.Epochs[i].TestAcc != clean.Epochs[i].TestAcc {
					identical = false
				}
			}
			if s.Suspicions == 0 && s.DegradedIterations == 0 && s.SkippedSyncs == 0 {
				// Every fault was repaired losslessly: the result must be
				// bit-identical to the fault-free run.
				if !identical {
					t.Fatalf("seed %d: silent divergence — no faults recorded but epochs differ: %+v vs %+v",
						seed, o.res.Epochs, clean.Epochs)
				}
			} else if identical {
				// Degradation that happens to land on the same floats is
				// fine; nothing to assert.
				_ = identical
			}
		case <-time.After(3 * time.Minute):
			t.Fatalf("seed %d: run deadlocked", seed)
		}
	}
}
