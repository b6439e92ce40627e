package dist

import (
	"testing"
	"time"

	"fftgrad/internal/chaos"
	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/compress"
	"fftgrad/internal/feedback"
	"fftgrad/internal/trace"
)

// epochsEqual asserts bitwise-equal per-epoch statistics.
func epochsEqual(t *testing.T, label string, base, got *Result) {
	t.Helper()
	if len(got.Epochs) != len(base.Epochs) {
		t.Fatalf("%s: epoch count %d vs %d", label, len(got.Epochs), len(base.Epochs))
	}
	for i := range base.Epochs {
		if got.Epochs[i].TrainLoss != base.Epochs[i].TrainLoss ||
			got.Epochs[i].TestAcc != base.Epochs[i].TestAcc {
			t.Fatalf("%s: epoch %d diverged: %+v vs %+v", label, i, got.Epochs[i], base.Epochs[i])
		}
	}
}

// TestCollectiveStrategiesBitIdentical: the hier and tree schedules move
// the same messages as the flat ring, so a BSP run under either strategy
// must be bit-identical to the ring run — the strategy changes wall time
// and wire schedule, never arithmetic.
func TestCollectiveStrategiesBitIdentical(t *testing.T) {
	mk := func(col *collective.Config) Config {
		cfg := blobCfg(81)
		cfg.NewCompressor = func() compress.Compressor {
			return feedback.New(compress.NewFFT(0.5))
		}
		cfg.Collective = col
		return cfg
	}
	base, err := Train(mk(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []collective.Config{
		{Strategy: collective.Hier, GroupSize: 2},
		{Strategy: collective.Hier, GroupSize: 3}, // ragged last group
		{Strategy: collective.Tree},
	} {
		col := col
		got, err := Train(mk(&col))
		if err != nil {
			t.Fatalf("%s: %v", col.Strategy, err)
		}
		epochsEqual(t, string(col.Strategy), base, got)
	}
}

// bucketedCfg is the 8-rank bucketed pipeline configuration of the
// acceptance gate: error-feedback FFT codecs per bucket, full guard
// (CRC frames + fingerprint drift checks), several buckets per
// iteration.
func bucketedCfg(seed int64) Config {
	cfg := blobCfg(seed)
	cfg.Workers = 8
	cfg.NewCompressor = func() compress.Compressor {
		return feedback.New(compress.NewFFT(0.5))
	}
	cfg.Guard = fullGuard()
	cfg.Collective = &collective.Config{BucketBytes: 1024}
	return cfg
}

// TestBucketedExchangeGate is the PR's 8-rank acceptance gate for the
// bucketed pipeline: per-bucket compressors (own CRC framing, own
// error-feedback residual slice) exchanged in flight while later
// buckets compress. The residual-accounting invariants are checked
// through the guard: every drift round's fingerprints must match (all
// ranks hold bit-identical parameters ⇒ zero forced re-syncs), and the
// traced run must be bit-identical to the untraced run.
func TestBucketedExchangeGate(t *testing.T) {
	base, err := Train(bucketedCfg(83))
	if err != nil {
		t.Fatal(err)
	}
	n := base.GradSize
	if wantB := (n + 255) / 256; wantB < 2 {
		t.Fatalf("model too small to bucket: %d params", n)
	}
	last := base.Epochs[len(base.Epochs)-1]
	if last.TestAcc < 0.9 {
		t.Fatalf("bucketed run accuracy %.3f < 0.9", last.TestAcc)
	}
	g := base.Guard
	if g == nil || g.DriftChecks == 0 {
		t.Fatalf("drift checks did not run: %+v", g)
	}
	if g.DriftResyncs != 0 {
		t.Fatalf("bucketed ranks drifted apart: %d re-syncs", g.DriftResyncs)
	}

	// Tracing must not perturb the pipeline (the overlap goroutines
	// record onto the same lock-free rank tracks).
	cfg := bucketedCfg(83)
	tr := trace.New(cfg.Workers, 512*trace.DefaultEventsPerIteration)
	cfg.Tracer = tr
	traced, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epochsEqual(t, "traced-bucketed", base, traced)

	// Per-bucket spans: every rank records OpBucket markers.
	perRank := map[int32]int{}
	for _, e := range tr.Events() {
		if e.Op == trace.OpBucket {
			perRank[e.Rank]++
		}
	}
	for rank := 0; rank < cfg.Workers; rank++ {
		if perRank[int32(rank)] == 0 {
			t.Errorf("rank %d recorded no bucket spans", rank)
		}
	}
}

// TestPartitionedSparseConverges: MiCRO-style disjoint-partition
// selection on the sparse-allreduce path must converge within 2 points
// of the unpartitioned sparse run — the rotation drains every region's
// residual, so nothing is permanently dropped.
func TestPartitionedSparseConverges(t *testing.T) {
	mk := func(part bool) Config {
		cfg := blobCfg(87)
		cfg.UseSparseAllreduce = true
		cfg.SparseTheta = 0.5
		if part {
			cfg.Collective = &collective.Config{Partitioned: true}
		}
		return cfg
	}
	base, err := Train(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Train(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	baseAcc := base.Epochs[len(base.Epochs)-1].TestAcc
	acc := got.Epochs[len(got.Epochs)-1].TestAcc
	if acc < baseAcc-0.02 {
		t.Fatalf("partitioned sparse accuracy %.3f more than 2 points below %.3f", acc, baseAcc)
	}
	// The partitioned message is ~1/p of the full selection.
	if got.AvgMsgBytes >= base.AvgMsgBytes {
		t.Fatalf("partitioned messages not smaller: %.0f vs %.0f bytes", got.AvgMsgBytes, base.AvgMsgBytes)
	}
}

// TestHierBucketedChaosGate is the collective-smoke chaos gate: a
// 2-group hierarchical (pricing) + bucketed run under chaos, with one
// rank crashing mid-iteration — between bucket rounds — must complete,
// rejoin the crashed rank, and stay within 2 points of the fault-free
// flat-ring baseline. The unshipped bucket tail folds into the
// per-bucket error-feedback residuals, so the lost contribution re-ships
// instead of vanishing.
func TestHierBucketedChaosGate(t *testing.T) {
	base, err := Train(blobCfg(89))
	if err != nil {
		t.Fatal(err)
	}
	baseAcc := base.Epochs[len(base.Epochs)-1].TestAcc

	cfg := blobCfg(89)
	cfg.NewCompressor = func() compress.Compressor {
		return feedback.New(compress.NewFFT(0.5))
	}
	cfg.Collective = &collective.Config{
		Strategy:    collective.Hier,
		GroupSize:   2, // 4 workers → 2 groups of 2
		BucketBytes: 1024,
	}
	cc := faultClusterCfg()
	cc.Policy = cluster.StaleReuse
	cc.OnStraggler = cluster.StragglerWait
	cfg.Fault = &FaultConfig{
		Cluster: cc,
		Chaos: &chaos.Config{
			Seed:      89,
			Drop:      0.05,
			DelayProb: 0.10,
			Delay:     10 * time.Millisecond,
			Crashes:   []chaos.CrashEvent{{Rank: 2, AtOp: 1200, RecoverAfterOps: 1000}},
		},
	}

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
			t.Fatalf("hier bucketed chaos run failed: %v", o.err)
		}
		res = o.res
	case <-time.After(4 * time.Minute):
		t.Fatal("hier bucketed chaos run deadlocked")
	}

	if res.Fault == nil || res.Fault.Chaos == nil || res.Fault.Chaos.Drops == 0 {
		t.Fatal("chaos injected nothing; gate proves nothing")
	}
	s := res.Fault.Cluster
	if s.Suspicions == 0 || s.Rejoins == 0 {
		t.Fatalf("crash+rejoin not exercised: %+v", s)
	}
	if res.Fault.LostWorkers != 0 {
		t.Fatalf("crashed rank never made it back: %+v", res.Fault)
	}
	acc := res.Epochs[len(res.Epochs)-1].TestAcc
	if acc < baseAcc-0.02 {
		t.Fatalf("accuracy under chaos %.3f more than 2 points below fault-free %.3f", acc, baseAcc)
	}
}

// TestCollectiveConfigRejected: invalid strategy and bucketed sparse
// combinations fail fast at Train.
func TestCollectiveConfigRejected(t *testing.T) {
	cfg := blobCfg(91)
	cfg.Collective = &collective.Config{Strategy: "mesh"}
	if _, err := Train(cfg); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	cfg = blobCfg(91)
	cfg.UseSparseAllreduce = true
	cfg.SparseTheta = 0.5
	cfg.Collective = &collective.Config{BucketBytes: 4096}
	if _, err := Train(cfg); err == nil {
		t.Fatal("bucketed sparse-allreduce accepted")
	}
}
