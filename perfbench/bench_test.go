package main

import (
	"math"
	"testing"

	"fftgrad/internal/compress"
	"fftgrad/internal/feedback"
	"fftgrad/internal/guard"
	"fftgrad/internal/telemetry"
)

// The traced run wraps every layer and the codec; none of it may change
// the arithmetic. Each training workload's final_loss must come out bit
// for bit the same traced and untraced.
func TestTracedFinalLossBitIdentical(t *testing.T) {
	for name, w := range trainWorkloads {
		t.Run(name, func(t *testing.T) {
			const seed = 3
			ds := w.data(seed)
			var losses [2]float64
			for i, traced := range []bool{false, true} {
				p, err := w.measure(seed, ds, 0, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if _, losses[i], err = w.losses(p.res); err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
			}
			if math.Float64bits(losses[0]) != math.Float64bits(losses[1]) {
				t.Fatalf("final_loss untraced %v, traced %v", losses[0], losses[1])
			}
		})
	}
}

// The codec decorator must offer every optional interface the program
// type-asserts, and forward each to the compressor it wraps.
func TestCodecDecoratorForwards(t *testing.T) {
	inner := feedback.New(compress.NewFFT(0.5))
	var c compress.Compressor = &timedCodec{inner: inner, ps: newProbeSet(true, 0)}

	if _, ok := c.(compress.Appender); !ok {
		t.Error("no compress.Appender")
	}
	if _, ok := c.(compress.IntoDecompressor); !ok {
		t.Error("no compress.IntoDecompressor")
	}
	if _, ok := c.(compress.Instrumentable); !ok {
		t.Error("no compress.Instrumentable")
	}
	ts, ok := c.(compress.ThetaSetter)
	if !ok {
		t.Fatal("no compress.ThetaSetter")
	}
	ts.SetTheta(0.9)
	if got := inner.Inner().(*compress.FFT).Theta(); got != 0.9 {
		t.Errorf("SetTheta reached the inner FFT as %v", got)
	}
	sink, ok := c.(interface{ AddToResidual([]float32) })
	if !ok {
		t.Fatal("no AddToResidual")
	}
	if _, ok := c.(interface{ AddToResidualScaled([]float32, float32) }); !ok {
		t.Error("no AddToResidualScaled")
	}
	sink.AddToResidual([]float32{1, 2, 3, 4})
	if inner.ResidualNorm() == 0 {
		t.Error("AddToResidual did not reach the inner residual")
	}

	// Framed by the guard, as the mesh workload runs it, the decorated
	// codec still round-trips and is still timed.
	c.(compress.Instrumentable).Instrument(telemetry.NewStageTimer())
	framed := guard.NewFramed(&timedCodec{inner: compress.FP32{}, ps: newProbeSet(true, 0)}, true)
	grad := []float32{0.5, -1, 2, 0}
	msg, err := framed.AppendCompress(nil, grad)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float32, len(grad))
	if err := framed.DecompressInto(got, msg); err != nil {
		t.Fatal(err)
	}
	for i := range grad {
		if got[i] != grad[i] {
			t.Fatalf("round trip: got %v, want %v", got, grad)
		}
	}
}
