package dist

import (
	"testing"
	"time"

	"fftgrad/internal/chaos"
	"fftgrad/internal/cluster"
	"fftgrad/internal/compress"
	"fftgrad/internal/obs"
)

// TestProfilerBitIdentical is the profiler acceptance gate for the
// barrier path: committing a full per-iteration record stream must not
// perturb training arithmetic — the profiled run's losses and accuracies
// are bitwise equal to the unprofiled run's.
func TestProfilerBitIdentical(t *testing.T) {
	base, err := Train(blobCfg(13))
	if err != nil {
		t.Fatal(err)
	}
	cfg := blobCfg(13)
	prof := obs.New(cfg.Workers, 1024)
	cfg.Profiler = prof
	got, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Epochs) != len(base.Epochs) {
		t.Fatalf("epoch count %d vs %d", len(got.Epochs), len(base.Epochs))
	}
	for i := range base.Epochs {
		if got.Epochs[i].TrainLoss != base.Epochs[i].TrainLoss ||
			got.Epochs[i].TestAcc != base.Epochs[i].TestAcc {
			t.Fatalf("epoch %d diverged under profiling: %+v vs %+v", i, got.Epochs[i], base.Epochs[i])
		}
	}
	// Every rank must have committed a record for every iteration, with
	// the stage terms populated.
	for rank := 0; rank < cfg.Workers; rank++ {
		recs := prof.Records(rank)
		if len(recs) != got.Iterations {
			t.Fatalf("rank %d committed %d records, want %d", rank, len(recs), got.Iterations)
		}
		for _, r := range recs {
			if r.ComputeNs <= 0 || r.ExchEndNs <= 0 || r.EndNs <= r.StartNs {
				t.Fatalf("rank %d iter %d record not populated: %+v", rank, r.Iter, r)
			}
		}
	}
	s := prof.Summary(true)
	if s.Iterations != int64(got.Iterations) {
		t.Fatalf("ledger folded %d iterations, want %d", s.Iterations, got.Iterations)
	}
}

// TestProfilerBlamesChaosStraggler is the in-process half of the
// obs-smoke gate: under a chaos schedule that permanently slows one
// rank's message delivery, the blame ledger must attribute at least half
// of all blocked time to that rank. The straggler's own records look
// healthy (it computes and exchanges fast — its *sends* arrive late), so
// this exercises the cluster layer's in-exchange arrival attribution end
// to end: Member arrival tracking → ExchangeResult.SlowestPeer/WaitNs →
// IterRecord.BlamePeer → ledger.
func TestProfilerBlamesChaosStraggler(t *testing.T) {
	const straggler = 2
	cfg := blobCfg(17)
	cfg.Epochs = 1
	cc := faultClusterCfg()
	cc.OnStraggler = cluster.StragglerWait
	cfg.Fault = &FaultConfig{
		Cluster: cc,
		Chaos: &chaos.Config{
			Seed:       17,
			Stragglers: []chaos.StragglerEvent{{Rank: straggler, SlowBy: 2 * time.Millisecond}},
		},
	}
	prof := obs.New(cfg.Workers, 1024)
	cfg.Profiler = prof
	if _, err := Train(cfg); err != nil {
		t.Fatal(err)
	}
	s := prof.Summary(true)
	if s.TotalBlockedNs <= 0 {
		t.Fatal("no blocked time recorded despite a straggling rank")
	}
	var blamed int64
	for _, e := range s.Blame {
		if e.Rank == straggler {
			blamed = e.BlamedNs
		}
	}
	if frac := float64(blamed) / float64(s.TotalBlockedNs); frac < 0.5 {
		t.Fatalf("straggled rank %d holds %.0f%% of blame, want >= 50%% (ledger: %+v)",
			straggler, 100*frac, s.Blame)
	}
}

// TestIterRecordFoldsIntoResult: on both exchangers rank 0 commits one
// obs.IterRecord per iteration, in iteration order, with the stage terms
// populated, and Result's measured totals are exactly those records
// folded: compute+update, compress+decompress, and the exchange.
func TestIterRecordFoldsIntoResult(t *testing.T) {
	for _, mesh := range []bool{false, true} {
		cfg := blobCfg(33)
		cfg.Epochs = 1
		cfg.NewCompressor = func() compress.Compressor { return compress.NewFFT(0.85) }
		if mesh {
			cfg.Fault = &FaultConfig{Cluster: faultClusterCfg()}
		}
		prof := obs.New(cfg.Workers, 1024)
		cfg.Profiler = prof
		res, err := Train(cfg)
		if err != nil {
			t.Fatalf("mesh=%v: %v", mesh, err)
		}
		recs := prof.Records(0)
		if len(recs) != res.Iterations {
			t.Fatalf("mesh=%v: %d records for %d iterations", mesh, len(recs), res.Iterations)
		}
		var compute, codec, exchange float64
		for i, r := range recs {
			if r.Iter != int64(i) {
				t.Fatalf("mesh=%v: record %d has iter %d", mesh, i, r.Iter)
			}
			if r.ComputeNs <= 0 || r.CompressNs <= 0 || r.MsgBytes <= 0 {
				t.Fatalf("mesh=%v: record %d incomplete: %+v", mesh, i, r)
			}
			compute += float64(r.ComputeNs+r.UpdateNs) / 1e9
			codec += float64(r.CompressNs+r.DecompressNs) / 1e9
			exchange += float64(r.ExchangeNs) / 1e9
		}
		if compute != res.ComputeSeconds || codec != res.CompressSeconds || exchange != res.CommMeasuredSeconds {
			t.Fatalf("mesh=%v: folded records (%v, %v, %v) != result (%v, %v, %v)", mesh,
				compute, codec, exchange, res.ComputeSeconds, res.CompressSeconds, res.CommMeasuredSeconds)
		}
	}
}
