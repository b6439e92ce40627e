package dist

import (
	"math"
	"testing"

	"fftgrad/internal/checkpoint"
	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/feedback"
	"fftgrad/internal/guard"
	"fftgrad/internal/models"
	"fftgrad/internal/netsim"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
	"fftgrad/internal/sparsify"
)

// blobCfg returns a fast-converging baseline config: MLP on Gaussian
// blobs, 4 workers.
func blobCfg(seed int64) Config {
	train, test := data.GaussianBlobs(2560, 4, 16, 0.25, seed).Split(2048)
	return Config{
		Workers:  4,
		Batch:    16,
		Epochs:   3,
		Seed:     seed,
		Momentum: 0.9,
		LR:       optim.ConstLR(0.05),
		Model: func(s int64) *nn.Network {
			return models.MLP(16, 32, 4, s)
		},
		Train:  train,
		Test:   test,
		Fabric: netsim.InfiniBandFDR,
	}
}

func TestTrainFP32Converges(t *testing.T) {
	res, err := Train(blobCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("epochs recorded %d", len(res.Epochs))
	}
	first := res.Epochs[0]
	last := res.Epochs[len(res.Epochs)-1]
	if last.TrainLoss >= first.TrainLoss {
		t.Fatalf("loss did not fall: %g -> %g", first.TrainLoss, last.TrainLoss)
	}
	if last.TestAcc < 0.9 {
		t.Fatalf("final accuracy %.3f < 0.9", last.TestAcc)
	}
	if res.CompressionRatio != 1 {
		t.Fatalf("fp32 ratio %g", res.CompressionRatio)
	}
	if res.ComputeSeconds <= 0 || res.CommSeconds <= 0 {
		t.Fatalf("timing not recorded: compute=%g comm=%g", res.ComputeSeconds, res.CommSeconds)
	}
}

func TestTrainDeterministic(t *testing.T) {
	a, err := Train(blobCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(blobCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Epochs {
		if a.Epochs[i].TrainLoss != b.Epochs[i].TrainLoss || a.Epochs[i].TestAcc != b.Epochs[i].TestAcc {
			t.Fatalf("epoch %d diverged: %+v vs %+v", i, a.Epochs[i], b.Epochs[i])
		}
	}
}

func TestTrainWithFFTCompression(t *testing.T) {
	cfg := blobCfg(3)
	cfg.NewCompressor = func() compress.Compressor { return compress.NewFFT(0.5) }
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Epochs[len(res.Epochs)-1]
	if last.TestAcc < 0.85 {
		t.Fatalf("fft θ=0.5 final accuracy %.3f", last.TestAcc)
	}
	if res.CompressionRatio < 1.5 {
		t.Fatalf("fft compression ratio %.2f too low", res.CompressionRatio)
	}
	// Compression must shrink modeled communication vs FP32.
	base, err := Train(blobCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.CommSeconds >= base.CommSeconds {
		t.Fatalf("compressed comm %.6f not below fp32 %.6f", res.CommSeconds, base.CommSeconds)
	}
}

// Theorem 3.4's error floor: θ=0.99 must converge visibly worse than
// θ=0.3 under the same budget. The floor shows in training loss on a task
// hard enough not to saturate (high-noise blobs, 8 classes).
func TestThetaErrorFloorOrdering(t *testing.T) {
	run := func(theta float64) float64 {
		train, test := data.GaussianBlobs(2560, 8, 16, 1.0, 44).Split(2048)
		cfg := blobCfg(4)
		cfg.Train, cfg.Test = train, test
		cfg.Epochs = 3
		cfg.Model = func(s int64) *nn.Network { return models.MLP(16, 32, 8, s) }
		cfg.NewCompressor = func() compress.Compressor { return compress.NewTopK(theta) }
		res, err := Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Epochs[len(res.Epochs)-1].TrainLoss
	}
	low := run(0.3)
	high := run(0.99)
	if high <= low {
		t.Fatalf("θ=0.99 loss %.4f should exceed θ=0.3 loss %.4f", high, low)
	}
}

// Theorem 3.5's recovery: an aggressive θ whose schedule drops to 0
// mid-run must end close to the lossless baseline.
func TestThetaRecoverySchedule(t *testing.T) {
	cfg := blobCfg(5)
	cfg.Epochs = 4
	cfg.NewCompressor = func() compress.Compressor { return compress.NewTopK(0.99) }
	cfg.ThetaSchedule = sparsify.StepDrop{Initial: 0.99, Final: 0, DropEpoch: 2}
	rec, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := blobCfg(5)
	base.Epochs = 4
	baseRes, err := Train(base)
	if err != nil {
		t.Fatal(err)
	}
	recAcc := rec.Epochs[len(rec.Epochs)-1].TestAcc
	baseAcc := baseRes.Epochs[len(baseRes.Epochs)-1].TestAcc
	if recAcc < baseAcc-0.05 {
		t.Fatalf("recovered acc %.3f too far below baseline %.3f", recAcc, baseAcc)
	}
}

func TestAlphaMeasurement(t *testing.T) {
	cfg := blobCfg(6)
	cfg.Epochs = 1
	cfg.MeasureAlpha = true
	cfg.NewCompressor = func() compress.Compressor { return compress.NewFFT(0.85) }
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alpha) != res.Iterations {
		t.Fatalf("alpha samples %d != iterations %d", len(res.Alpha), res.Iterations)
	}
	for i, a := range res.Alpha {
		if a < 0 || a > 1 || math.IsNaN(a) {
			t.Fatalf("α[%d]=%g violates Assumption 3.2 band", i, a)
		}
	}
}

func TestGradientSampling(t *testing.T) {
	cfg := blobCfg(7)
	cfg.Epochs = 1
	cfg.SampleGradients = 10
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := (res.Iterations + 9) / 10
	if len(res.GradSamples) != want {
		t.Fatalf("samples %d want %d", len(res.GradSamples), want)
	}
	for _, g := range res.GradSamples {
		if len(g) != res.GradSize {
			t.Fatalf("sample length %d != grad size %d", len(g), res.GradSize)
		}
	}
}

func TestSingleWorker(t *testing.T) {
	cfg := blobCfg(8)
	cfg.Workers = 1
	cfg.Epochs = 2
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[len(res.Epochs)-1].TestAcc < 0.85 {
		t.Fatalf("single-worker accuracy %.3f", res.Epochs[len(res.Epochs)-1].TestAcc)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Train(Config{}); err == nil {
		t.Fatal("empty config should error")
	}
}

func TestCNNSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN training is slow")
	}
	train, test := data.SynthImages(384, 4, 16, 0.3, 9).Split(256)
	cfg := Config{
		Workers: 2, Batch: 16, Epochs: 2, Seed: 9,
		Momentum: 0.9,
		LR:       optim.ConstLR(0.02),
		Model: func(s int64) *nn.Network {
			return models.TinyCNN(4, 16, s)
		},
		Train: train, Test: test,
		NewCompressor: func() compress.Compressor { return compress.NewFFT(0.7) },
		Fabric:        netsim.CometCluster(),
	}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[len(res.Epochs)-1].TrainLoss >= res.Epochs[0].TrainLoss+0.1 {
		t.Fatalf("CNN loss not improving: %v", res.Epochs)
	}
}

// Sparse-allreduce exchange mode must converge like Top-k + allgather at
// the same θ (numerically both average the same sparsified vectors) while
// pricing strictly less modeled communication.
func TestSparseAllreduceExchangeMode(t *testing.T) {
	base := blobCfg(31)
	base.NewCompressor = func() compress.Compressor { return compress.NewTopK(0.85) }
	agRes, err := Train(base)
	if err != nil {
		t.Fatal(err)
	}

	sp := blobCfg(31)
	sp.UseSparseAllreduce = true
	sp.SparseTheta = 0.85
	spRes, err := Train(sp)
	if err != nil {
		t.Fatal(err)
	}

	agAcc := agRes.Epochs[len(agRes.Epochs)-1].TestAcc
	spAcc := spRes.Epochs[len(spRes.Epochs)-1].TestAcc
	if math.Abs(agAcc-spAcc) > 0.05 {
		t.Fatalf("exchange modes should converge alike: allgather %.3f vs sparse-allreduce %.3f", agAcc, spAcc)
	}
	if spRes.CommSeconds >= agRes.CommSeconds {
		t.Fatalf("sparse allreduce should price less comm: %.6f vs %.6f",
			spRes.CommSeconds, agRes.CommSeconds)
	}
	if spRes.CompressionRatio <= 1 {
		t.Fatalf("sparse mode ratio %.2f", spRes.CompressionRatio)
	}
}

// The θ schedule must drive the sparse-allreduce path too.
func TestSparseAllreduceThetaSchedule(t *testing.T) {
	cfg := blobCfg(32)
	cfg.Epochs = 2
	cfg.UseSparseAllreduce = true
	cfg.SparseTheta = 0.99
	cfg.ThetaSchedule = sparsify.StepDrop{Initial: 0.99, Final: 0.5, DropEpoch: 1}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[0].Theta != 0.99 || res.Epochs[1].Theta != 0.5 {
		t.Fatalf("schedule not applied: %+v", res.Epochs)
	}
}

func TestTraceRecording(t *testing.T) {
	cfg := blobCfg(33)
	cfg.Epochs = 1
	cfg.Trace = true
	cfg.NewCompressor = func() compress.Compressor { return compress.NewFFT(0.85) }
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != res.Iterations {
		t.Fatalf("trace entries %d != iterations %d", len(res.Trace), res.Iterations)
	}
	var compute, compress, comm float64
	for i, tr := range res.Trace {
		if tr.Iter != i {
			t.Fatalf("trace %d has iter %d", i, tr.Iter)
		}
		if tr.ComputeS <= 0 || tr.CompressS <= 0 || tr.MsgBytes <= 0 {
			t.Fatalf("trace %d incomplete: %+v", i, tr)
		}
		compute += tr.ComputeS
		compress += tr.CompressS
		comm += tr.CommS
	}
	if compute != res.ComputeSeconds || compress != res.CompressSeconds || comm != res.CommSeconds {
		t.Fatalf("trace totals must match result totals")
	}
}

// Checkpoint + Resume: training that checkpoints at epoch 1 and resumes
// must continue improving from the restored state.
func TestCheckpointResume(t *testing.T) {
	var captured *checkpoint.State
	cfg := blobCfg(34)
	cfg.Epochs = 2
	cfg.CheckpointEvery = 2
	cfg.OnCheckpoint = func(st *checkpoint.State) { captured = st }
	first, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("checkpoint callback never fired")
	}
	if len(captured.Params) != first.GradSize {
		t.Fatalf("captured %d params for grad size %d", len(captured.Params), first.GradSize)
	}

	resumed := blobCfg(34)
	resumed.Epochs = 2
	resumed.Resume = captured
	second, err := Train(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if second.Epochs[len(second.Epochs)-1].TrainLoss >= first.Epochs[len(first.Epochs)-1].TrainLoss {
		t.Fatalf("resumed run should keep improving: %.4f vs %.4f",
			second.Epochs[len(second.Epochs)-1].TrainLoss,
			first.Epochs[len(first.Epochs)-1].TrainLoss)
	}
}

// TestThetaReportsDropRatioInEffect: without a θ schedule the epoch table
// and the iteration trace report the codec's own drop ratio, read through
// the guard frame and the error-feedback wrapper, on both exchangers; a
// codec with no drop ratio reports 0, never NaN.
func TestThetaReportsDropRatioInEffect(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec func() compress.Compressor
		want  float64
	}{
		{"feedback-fft", func() compress.Compressor { return feedback.New(compress.NewFFT(0.85)) }, 0.85},
		{"fp32", func() compress.Compressor { return compress.FP32{} }, 0},
	} {
		for _, mesh := range []bool{false, true} {
			cfg := blobCfg(43)
			cfg.Epochs = 2
			cfg.Trace = true
			cfg.NewCompressor = tc.codec
			cfg.Guard = &guard.Config{CRC: true}
			if mesh {
				cfg.Fault = &FaultConfig{Cluster: faultClusterCfg()}
			}
			res, err := Train(cfg)
			if err != nil {
				t.Fatalf("%s mesh=%v: %v", tc.name, mesh, err)
			}
			for _, ep := range res.Epochs {
				if ep.Theta != tc.want {
					t.Fatalf("%s mesh=%v: epoch %d θ %v, want %v", tc.name, mesh, ep.Epoch, ep.Theta, tc.want)
				}
			}
			for _, it := range res.Trace {
				if it.Theta != tc.want {
					t.Fatalf("%s mesh=%v: iteration %d θ %v, want %v", tc.name, mesh, it.Iter, it.Theta, tc.want)
				}
			}
		}
	}
}
