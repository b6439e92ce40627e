package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"fftgrad/internal/chaos"
	"fftgrad/internal/cluster"
	"fftgrad/internal/dist"
	"fftgrad/internal/guard"
)

// compile parses a trainer command line and compiles it the way main
// does. A parse error exits 2 under flag.CommandLine, and main exits 2
// on a compile error, so either one is a config error.
func compile(t *testing.T, args string) (dist.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("trainer", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := bindFlags(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		return dist.Config{}, err
	}
	return o.config()
}

// TestSmokeCommandLines compiles the exact trainer command lines of the
// Makefile's smoke targets: each lands on the fault path with the chaos
// schedule and the guard config the trainer built before its flags went
// through serve.Spec.
func TestSmokeCommandLines(t *testing.T) {
	chaosRun := "-model mlp -epochs 2 -workers 4 -fault-aware -chaos-drop 0.05 -chaos-delay 10ms -chaos-crash 2 -chaos-crash-at 1200 -chaos-crash-for 1000"
	guarded := &guard.Config{CRC: true, Scrub: guard.ScrubClamp, Detect: true, DriftEvery: 50, RollbackAfter: 6}
	for _, tc := range []struct {
		target, args, chaos string
		guard               *guard.Config
	}{
		{"chaos", chaosRun,
			"chaos{seed=1 drop=0.05 delay=0.1@10ms dup=0 corrupt=0 crash[r2@1200+1000]}", nil},
		{"guard", "-model mlp -epochs 2 -workers 4 -fault-aware -guard -chaos-corrupt 0.05",
			"chaos{seed=1 drop=0 delay=0.1@0s dup=0 corrupt=0.05}", guarded},
		{"trace-smoke", "-model mlp -epochs 2 -workers 4 -fault-aware -guard -chaos-drop 0.05 -chaos-corrupt 0.02 -chaos-crash 2 -chaos-crash-at 1200 -chaos-crash-for 1000 -trace-out trace-smoke.json",
			"chaos{seed=1 drop=0.05 delay=0.1@0s dup=0 corrupt=0.02 crash[r2@1200+1000]}", guarded},
		{"obs-smoke", "-model mlp -epochs 2 -workers 4 -fault-aware -chaos-straggle 2 -chaos-straggle-by 15ms -profile-out obs-smoke.json -trace-out obs-smoke-trace.json",
			"chaos{seed=1 drop=0 delay=0.1@0s dup=0 corrupt=0 straggle[r2@0+0 by 15ms]}", nil},
		{"collective-smoke", "-collective hier -group-size 2 -bucket-bytes 1024 " + chaosRun,
			"chaos{seed=1 drop=0.05 delay=0.1@10ms dup=0 corrupt=0 crash[r2@1200+1000]}", nil},
		{"elastic-smoke", "-model mlp -epochs 2 -workers 4 -seed 7 -staleness 4 -chaos-drop 0.03 -chaos-delay 5ms",
			"chaos{seed=1 drop=0.03 delay=0.1@5ms dup=0 corrupt=0}", nil},
		{"elastic-smoke (straggled)", "-model mlp -epochs 2 -workers 4 -seed 7 -staleness 4 -elastic-join 20 -chaos-drop 0.03 -chaos-delay 5ms -chaos-straggle 3 -chaos-straggle-at 300 -chaos-straggle-by 20ms -trace-out elastic-smoke.json",
			"chaos{seed=1 drop=0.03 delay=0.1@5ms dup=0 corrupt=0 straggle[r3@300+0 by 20ms]}", nil},
	} {
		cfg, err := compile(t, tc.args)
		if err != nil {
			t.Fatalf("%s: %v", tc.target, err)
		}
		if cfg.Fault == nil || cfg.Fault.Chaos == nil {
			t.Fatalf("%s: not on the fault path with a chaos schedule", tc.target)
		}
		if got := cfg.Fault.Chaos.String(); got != tc.chaos {
			t.Errorf("%s: chaos %s, want %s", tc.target, got, tc.chaos)
		}
		if p := cfg.Fault.Cluster.Policy; p != cluster.DropRescale {
			t.Errorf("%s: dead-rank policy %s, want rescale", tc.target, p)
		}
		switch {
		case (cfg.Guard == nil) != (tc.guard == nil):
			t.Errorf("%s: guard %+v, want %+v", tc.target, cfg.Guard, tc.guard)
		case cfg.Guard != nil && cfg.Guard.WithDefaults() != tc.guard.WithDefaults():
			t.Errorf("%s: guard %+v, want %+v", tc.target, cfg.Guard.WithDefaults(), tc.guard.WithDefaults())
		}
	}
}

// TestZeroFlagsKeepTheirMeaning: a flag whose zero means something
// reaches the config as zero, not as a submission default.
func TestZeroFlagsKeepTheirMeaning(t *testing.T) {
	cfg, err := compile(t, "-model mlp -method topk -theta 0")
	if err != nil {
		t.Fatal(err)
	}
	codec, ok := cfg.NewCompressor().(interface{ Theta() float64 })
	if !ok || codec.Theta() != 0 {
		t.Fatalf("-theta 0 did not reach the codec as θ=0 (ok=%v)", ok)
	}
	if cfg.Fault != nil {
		t.Fatal("a plain run compiled to the fault path")
	}

	cfg, err = compile(t, "-model mlp -chaos-crash 1 -chaos-crash-at 0 -chaos-crash-for 0")
	if err != nil {
		t.Fatal(err)
	}
	if cr := cfg.Fault.Chaos.Crashes; len(cr) != 1 || cr[0] != (chaos.CrashEvent{Rank: 1}) {
		t.Fatalf("crash schedule %+v, want rank 1 at op 0, never recovering", cr)
	}
}

// TestBadFlagsAreConfigErrors: unknown values and malformed lists are
// rejected before training starts.
func TestBadFlagsAreConfigErrors(t *testing.T) {
	for _, args := range []string{
		"-model mlp -method zstd",
		"-model mlp -collective star",
		"-model mlp -elastic-join 10,x",
		"-model mlp -elastic-join -3",
		"-model mlp -staleness -1",
		"-model resnet",
		"-model mlp -on-failure retry",
		"-model mlp -chaos-delay 1500us",
	} {
		if _, err := compile(t, args); err == nil {
			t.Errorf("%q compiled without error", args)
		}
	}
}
