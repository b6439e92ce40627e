package feedback

import (
	"math"
	"math/rand"
	"testing"

	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/dist"
	"fftgrad/internal/models"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
)

func constGrad(n int, v float32) []float32 {
	g := make([]float32, n)
	for i := range g {
		g[i] = v
	}
	return g
}

func TestNameAndInner(t *testing.T) {
	c := New(compress.NewTopK(0.9))
	if c.Name() != "topk+ef" {
		t.Fatalf("name %q", c.Name())
	}
	if c.Inner().Name() != "topk" {
		t.Fatal("inner lost")
	}
}

// With a lossless inner compressor the residual must stay exactly zero
// and the wrapper must be transparent.
func TestLosslessInnerTransparent(t *testing.T) {
	c := New(compress.FP32{})
	r := rand.New(rand.NewSource(1))
	g := make([]float32, 1000)
	for i := range g {
		g[i] = float32(r.NormFloat64())
	}
	for iter := 0; iter < 3; iter++ {
		msg, err := c.Compress(g)
		if err != nil {
			t.Fatal(err)
		}
		rec := make([]float32, len(g))
		if err := c.Decompress(rec, msg); err != nil {
			t.Fatal(err)
		}
		for i := range g {
			if rec[i] != g[i] {
				t.Fatalf("iter %d idx %d: %g != %g", iter, i, rec[i], g[i])
			}
		}
	}
	if c.ResidualNorm() != 0 {
		t.Fatalf("residual norm %g", c.ResidualNorm())
	}
}

// The defining property of error feedback: a gradient component that the
// sparsifier keeps dropping must accumulate in the residual until it is
// large enough to be transmitted — nothing is permanently lost.
func TestDroppedMassEventuallyTransmitted(t *testing.T) {
	// 10 coordinates: one huge, nine tiny equal values. Top-k with k=1
	// keeps only the huge one every round; with feedback the tiny ones
	// accumulate and break through.
	inner := compress.NewTopK(0.9) // keep 1 of 10
	c := New(inner)
	g := constGrad(10, 0.01)
	g[0] = 1.0

	transmittedTiny := false
	var recSum [10]float64
	for iter := 0; iter < 200 && !transmittedTiny; iter++ {
		msg, err := c.Compress(g)
		if err != nil {
			t.Fatal(err)
		}
		rec := make([]float32, 10)
		if err := c.Decompress(rec, msg); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 10; i++ {
			recSum[i] += float64(rec[i])
			if rec[i] != 0 {
				transmittedTiny = true
			}
		}
	}
	if !transmittedTiny {
		t.Fatal("error feedback never transmitted the small coordinates")
	}

	// Without feedback they are lost forever.
	plain := compress.NewTopK(0.9)
	for iter := 0; iter < 200; iter++ {
		msg, err := plain.Compress(g)
		if err != nil {
			t.Fatal(err)
		}
		rec := make([]float32, 10)
		if err := plain.Decompress(rec, msg); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 10; i++ {
			if rec[i] != 0 {
				t.Fatal("plain top-k should always drop the tiny coordinates")
			}
		}
	}
}

// Long-run unbiasedness: the time-averaged transmitted gradient must
// approach the true constant gradient (residual stays bounded).
func TestLongRunMeanMatchesGradient(t *testing.T) {
	c := New(compress.NewTopK(0.8)) // keep 2 of 10
	g := []float32{1, 0.5, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}
	const iters = 500
	sum := make([]float64, len(g))
	for iter := 0; iter < iters; iter++ {
		msg, err := c.Compress(g)
		if err != nil {
			t.Fatal(err)
		}
		rec := make([]float32, len(g))
		if err := c.Decompress(rec, msg); err != nil {
			t.Fatal(err)
		}
		for i, v := range rec {
			sum[i] += float64(v)
		}
	}
	for i, want := range g {
		mean := sum[i] / iters
		if math.Abs(mean-float64(want)) > 0.02 {
			t.Errorf("coordinate %d: long-run mean %.4f want %.4f", i, mean, want)
		}
	}
	// Residual must be bounded, not growing: smaller than total injected mass.
	if rn := c.ResidualNorm(); rn > 2 {
		t.Errorf("residual norm %g grew unboundedly", rn)
	}
}

func TestResetClearsResidual(t *testing.T) {
	c := New(compress.NewTopK(0.9))
	if _, err := c.Compress(constGrad(10, 0.1)); err != nil {
		t.Fatal(err)
	}
	if c.ResidualNorm() == 0 {
		t.Fatal("expected non-zero residual after lossy compress")
	}
	c.Reset()
	if c.ResidualNorm() != 0 {
		t.Fatal("reset did not clear residual")
	}
}

func TestLengthChangeErrors(t *testing.T) {
	c := New(compress.NewTopK(0.5))
	if _, err := c.Compress(constGrad(10, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compress(constGrad(20, 1)); err == nil {
		t.Fatal("length change should error")
	}
}

// End-to-end: at an extreme fixed θ where vanilla Top-k stalls, error
// feedback must train visibly better — the DGC result, reproduced.
// Momentum is 0 here on purpose: raw error feedback's delayed gradient
// bursts interact badly with heavy momentum (that failure is precisely
// why DGC pairs error accumulation with momentum *correction*); a
// parameter sweep shows EF winning at every θ∈{0.99,0.995,0.999} without
// momentum and losing only at momentum 0.9 + lr 0.05.
func TestFeedbackRescuesExtremeTheta(t *testing.T) {
	train, test := data.GaussianBlobs(2560, 8, 16, 1.0, 21).Split(2048)
	run := func(newC func() compress.Compressor) float64 {
		res, err := dist.Train(dist.Config{
			Workers: 4, Batch: 16, Epochs: 3, Seed: 21,
			Momentum:      0,
			LR:            optim.ConstLR(0.05),
			Model:         func(s int64) *nn.Network { return models.MLP(16, 32, 8, s) },
			Train:         train,
			Test:          test,
			NewCompressor: newC,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Epochs[len(res.Epochs)-1].TrainLoss
	}
	plain := run(func() compress.Compressor { return compress.NewTopK(0.99) })
	withEF := run(func() compress.Compressor { return New(compress.NewTopK(0.99)) })
	if withEF >= plain {
		t.Fatalf("error feedback loss %.4f not below vanilla %.4f at θ=0.99", withEF, plain)
	}
}

// Feedback composes with the FFT compressor too (the paper's "can also be
// applied to improve ours").
func TestFeedbackComposesWithFFT(t *testing.T) {
	c := New(compress.NewFFT(0.95))
	r := rand.New(rand.NewSource(5))
	g := make([]float32, 4096)
	for i := range g {
		g[i] = float32(r.NormFloat64() * 0.1)
	}
	for iter := 0; iter < 5; iter++ {
		msg, err := c.Compress(g)
		if err != nil {
			t.Fatal(err)
		}
		rec := make([]float32, len(g))
		if err := c.Decompress(rec, msg); err != nil {
			t.Fatal(err)
		}
	}
	if c.ResidualNorm() == 0 {
		t.Fatal("expected lossy FFT to produce a residual")
	}
	// θ scheduling must pass through the wrapper.
	c.SetTheta(0)
	if _, err := c.Compress(g); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFeedbackOverhead(b *testing.B) {
	c := New(compress.NewTopK(0.85))
	r := rand.New(rand.NewSource(1))
	g := make([]float32, 1<<20)
	for i := range g {
		g[i] = float32(r.NormFloat64() * 0.1)
	}
	b.SetBytes(int64(len(g) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(g); err != nil {
			b.Fatal(err)
		}
	}
}

// Both wrappers report the inner codec's drop ratio next to SetTheta, and
// 0 for a codec that has none.
func TestThetaForwarding(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    interface {
			SetTheta(float64)
			Theta() float64
		}
		want float64
	}{
		{"feedback-fft", New(compress.NewFFT(0.7)), 0.7},
		{"momentum-fft", NewMomentumCorrected(compress.NewFFT(0.7), 0.9), 0.7},
		{"feedback-fp32", New(compress.FP32{}), 0},
	} {
		if got := tc.c.Theta(); got != tc.want {
			t.Errorf("%s: Theta %v, want %v", tc.name, got, tc.want)
		}
		if tc.want != 0 {
			tc.c.SetTheta(0.4)
			if got := tc.c.Theta(); got != 0.4 {
				t.Errorf("%s: Theta %v after SetTheta(0.4)", tc.name, got)
			}
		}
	}
}
