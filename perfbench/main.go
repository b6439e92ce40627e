// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the public entry points — dist.Train for the
// training workloads, serve.Server over loopback HTTP for the service
// one — checks the outputs, and prints one JSON result line:
//
//	perfbench --workload resnet_compute --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer breakdown (nn layers, codec, compression kernels, exchange,
// dist loop, set-up, service) and writes the spans as Chrome trace_event
// JSON. BENCHMARK.json at the repository root names the workloads and
// the metrics. Build and run it with perfbench/run.sh from the root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/models"
	"fftgrad/internal/nn"
	"fftgrad/internal/serve"
)

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed: data, model init and job specs derive from it")
	seconds := flag.Float64("seconds", 20, "measured time per run, set-up excluded")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a span trace")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to print")
	traceOut := flag.String("trace-out", "", "with --trace 1, write the spans here as Chrome trace_event JSON")
	flag.Parse()

	sp, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace %d: want 0 or 1", *trace))
	}
	traced := *trace == 1
	if !traced {
		*traceOut = ""
	}
	rep, err := run(*workload, *seed, *seconds, traced, *traceOut)
	if err != nil {
		fatal(err)
	}
	out := rep.result(sp, traced)
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	printMetrics(out["metrics"].(map[string]metric))
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func run(name string, seed int64, seconds float64, traced bool, traceOut string) (*report, error) {
	if w, ok := trainWorkloads[name]; ok {
		return runTrain(w, seed, seconds, traced, traceOut)
	}
	if w, ok := serveWorkloads[name]; ok {
		return runServe(w, seed, seconds, traced, traceOut)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func fft() compress.Compressor { return compress.NewFFT(0.85) }

// trainWorkloads: why each exists and its measured layer split are
// recorded in BENCHMARK.json.
var trainWorkloads = map[string]*trainWorkload{
	// The paper's CIFAR-ResNet class: many small kernels, compute-bound.
	"resnet_compute": {
		workers: 2, batch: 4, lr: 0.03,
		itersPerEpoch: 8, lossEpoch: 4,
		data:  func(seed int64) *data.Dataset { return data.SynthImages(512, 10, 32, 0.5, seed) },
		model: func(seed int64) *nn.Network { return models.ResNetStyle(10, 1, 1, seed) },
		codec: fft,
	},
	// A 1.32M-float gradient (the paper's 2^20 regime): codec-bound.
	"wide_codec": {
		workers: 2, batch: 32, lr: 0.001,
		itersPerEpoch: 6, lossEpoch: 3,
		data:  func(seed int64) *data.Dataset { return data.GaussianBlobs(2048, 10, 256, 2, seed) },
		model: func(seed int64) *nn.Network { return models.MLP(256, 1024, 10, seed) },
		codec: fft,
	},
	// The trainer's tiny MLP on the failure-aware mesh with CRC framing and
	// the profiler: framework-overhead-bound.
	"mesh_small": {
		workers: 2, batch: 16, lr: 0.03,
		itersPerEpoch: 500, lossEpoch: 2,
		data:     func(seed int64) *data.Dataset { return data.GaussianBlobs(2048, 8, 24, 3, seed) },
		model:    func(seed int64) *nn.Network { return models.MLP(24, 48, 8, seed) },
		codec:    func() compress.Compressor { return compress.FP32{} },
		exchange: meshExchange,
	},
}

var serveWorkloads = map[string]*serveWorkload{
	// Small MLP jobs through admission, queue and scheduling.
	"serve_jobs": {
		clients: 2, slots: 2,
		job: serve.Spec{Workers: 2, Batch: 16, Epochs: 2, Samples: 1024, Classes: 32, Method: "fft", Theta: 0.85},
	},
}
