// Command trainer runs BSP data-parallel training on a synthetic image
// classification task with a selectable gradient-compression algorithm,
// printing per-epoch loss/accuracy and the compression/communication
// accounting — a command-line version of the paper's training runs.
//
// Usage:
//
//	trainer -method fft -theta 0.85 -workers 8 -epochs 5
//	trainer -method topk -theta 0.9 -drop-epoch 3   # recovery schedule
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"fftgrad/internal/adapt"
	"fftgrad/internal/buildinfo"
	"fftgrad/internal/chaos"
	"fftgrad/internal/checkpoint"
	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/dist"
	"fftgrad/internal/obs"
	"fftgrad/internal/serve"
	"fftgrad/internal/sparsify"
	"fftgrad/internal/stats"
	"fftgrad/internal/telemetry"
	itrace "fftgrad/internal/trace"
)

// options is the trainer's command line: the job itself as a serve.Spec,
// the experiment-only knobs the compiled config takes on top, and the
// process-level observability and job-service settings.
type options struct {
	spec serve.Spec

	dropEpoch    int
	alpha        bool
	sparseAR     bool
	partitioned  bool
	adapt        bool
	adaptTheta   bool
	onFailure    string
	chaosCrash   int
	chaosCorrupt float64
	straggler    chaos.StragglerEvent

	metricsAddr string
	traceOut    string
	traceIters  int
	pprof       bool
	profile     bool
	profileOut  string
	top         bool

	serve bool
	pool  int
	queue int
	spool string
}

// bindFlags defines the trainer's flags on fs. Job flags bind straight
// to the Spec, with the trainer's defaults; the chaos fault schedule is
// seeded with 1 and delays 10% of messages when -chaos-delay is set.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{spec: serve.Spec{Momentum: 0.9, Chaos: &serve.ChaosSpec{Seed: 1, DelayProb: 0.1}}}
	s, c := &o.spec, o.spec.Chaos
	fs.StringVar(&s.Method, "method", "fft", "fp32 | fft | dct | topk | qsgd | terngrad")
	fs.Float64Var(&s.Theta, "theta", 0.85, "drop ratio for fft/topk")
	fs.IntVar(&o.dropEpoch, "drop-epoch", -1, "epoch at which theta drops to 0 (-1: never)")
	fs.IntVar(&s.Workers, "workers", 4, "number of BSP workers")
	fs.IntVar(&s.Epochs, "epochs", 4, "training epochs")
	fs.IntVar(&s.Batch, "batch", 16, "per-worker batch size")
	fs.IntVar(&s.Samples, "samples", 2048, "training samples")
	fs.IntVar(&s.Classes, "classes", 8, "number of classes")
	fs.StringVar(&s.Model, "model", "cnn", "cnn | mlp")
	fs.Float64Var(&s.LR, "lr", 0.03, "learning rate")
	fs.Int64Var(&s.Seed, "seed", 1, "random seed")
	fs.BoolVar(&o.alpha, "alpha", false, "measure Assumption 3.2 alpha each iteration")
	fs.BoolVar(&o.sparseAR, "sparse-allreduce", false, "exchange via the sparse ring allreduce instead of allgather (uses -theta, ignores -method)")
	fs.StringVar(&s.Collective, "collective", "ring", "exchange strategy: ring | hier | tree | gossip (gossip implies -fault-aware)")
	fs.IntVar(&s.GroupSize, "group-size", 4, "with -collective hier, ranks per group (leader fan-in)")
	fs.IntVar(&s.BucketBytes, "bucket-bytes", 0, "split the gradient into fixed-byte buckets exchanged in flight while later buckets compress (0: monolithic)")
	fs.BoolVar(&o.partitioned, "partitioned", false, "with -sparse-allreduce, MiCRO-style disjoint rotating index partitions per rank")
	fs.BoolVar(&o.adapt, "adapt", false, "let the online perf-model controller bypass compression when it cannot win on the fabric")
	fs.BoolVar(&o.adaptTheta, "adapt-theta", false, "with -adapt, also let the controller steer theta toward the beneficial ratio")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve live Prometheus/JSON metrics on this address (e.g. :9090)")
	fs.StringVar(&o.traceOut, "trace-out", "", "record a per-iteration distributed timeline and write it here as Chrome trace_event JSON (open in ui.perfetto.dev)")
	fs.IntVar(&o.traceIters, "trace-iters", 256, "with -trace-out, iterations of history the per-rank trace ring retains")
	fs.BoolVar(&o.pprof, "pprof", false, "with -metrics-addr, also serve net/http/pprof under /debug/pprof/")
	fs.BoolVar(&o.profile, "profile", false, "enable the cross-rank iteration profiler: critical paths, straggler blame, anomaly-triggered capture, and a per-iteration breakdown")
	fs.StringVar(&o.profileOut, "profile-out", "", "write the end-of-run iteration profile here as JSON (implies -profile)")
	fs.BoolVar(&o.top, "top", false, "live per-rank blame / critical-path table on stderr while training runs (implies -profile)")

	// Job-service mode (internal/serve).
	fs.BoolVar(&o.serve, "serve", false, "run as a multi-tenant training job service instead of a one-shot run (HTTP job API on -metrics-addr, default :9090)")
	fs.IntVar(&o.pool, "pool", 8, "with -serve, worker slots in the shared scheduling pool")
	fs.IntVar(&o.queue, "queue", 16, "with -serve, maximum queued jobs before submissions get 429")
	fs.StringVar(&o.spool, "spool", "spool", "with -serve, directory for drain-time job checkpoints (\"\" disables spooling)")

	// Failure-aware runtime (internal/cluster) + chaos injection.
	fs.BoolVar(&s.Fault, "fault-aware", false, "exchange through the failure-aware cluster runtime (heartbeats, retry, degradation, rejoin)")
	fs.StringVar(&o.onFailure, "on-failure", "rescale", "with -fault-aware, dead-rank policy: failfast | rescale | stale")
	fs.IntVar(&s.Staleness, "staleness", 0, "with -fault-aware, bounded-staleness window K in iterations: ranks run up to K ahead, late gradients fold in damped (0: strict BSP)")
	fs.Float64Var(&s.StalenessDiscount, "staleness-discount", 0.9, "with -staleness, per-iteration damping factor applied to stale gradients")
	fs.Func("elastic-join", "comma-separated iterations at which brand-new ranks join mid-run (implies -fault-aware; e.g. 10,20)", func(v string) error {
		s.ElasticJoins = nil
		for _, tok := range strings.Split(v, ",") {
			if tok = strings.TrimSpace(tok); tok == "" {
				continue
			}
			at, err := strconv.Atoi(tok)
			if err != nil {
				return err
			}
			s.ElasticJoins = append(s.ElasticJoins, at)
		}
		return nil
	})
	fs.Float64Var(&c.Drop, "chaos-drop", 0, "chaos: per-message drop probability (enables fault injection)")
	fs.Func("chaos-delay", "chaos: max injected message delay, a whole number of milliseconds (e.g. 10ms)", func(v string) error {
		d, err := time.ParseDuration(v)
		if err != nil {
			return err
		}
		if d%time.Millisecond != 0 {
			return fmt.Errorf("%s is not a whole number of milliseconds", d)
		}
		c.DelayMS = int(d / time.Millisecond)
		return nil
	})
	fs.IntVar(&o.chaosCrash, "chaos-crash", -1, "chaos: rank to crash mid-run (-1: none)")
	fs.Uint64Var(&c.CrashAtOp, "chaos-crash-at", 1000, "chaos: crash at this transport-op index")
	fs.Uint64Var(&c.RecoverAfterOps, "chaos-crash-for", 1000, "chaos: recover after this many ops (0: never)")
	fs.Float64Var(&o.chaosCorrupt, "chaos-corrupt", 0, "chaos: per-message single-bit-flip probability")
	fs.IntVar(&o.straggler.Rank, "chaos-straggle", -1, "chaos: rank made persistently slow, never dead (-1: none)")
	fs.DurationVar(&o.straggler.SlowBy, "chaos-straggle-by", 20*time.Millisecond, "chaos: per-send delivery delay of the straggling rank")
	fs.Uint64Var(&o.straggler.FromOp, "chaos-straggle-at", 0, "chaos: transport-op index at which the straggle window opens")
	fs.Uint64Var(&o.straggler.Ops, "chaos-straggle-for", 0, "chaos: ops until the straggler recovers (0: never)")

	// Gradient integrity guard (internal/guard).
	fs.BoolVar(&s.Guard, "guard", false, "enable the gradient integrity guard (CRC framing, clamping scrub, anomaly detector, drift checks every 50 iterations)")
	return o
}

// config compiles the command line into a training config: the job
// through serve.Spec.Config, then the trainer's experiment-only knobs.
// It leaves out process-level wiring (telemetry, tracing, profiling,
// Stop).
func (o *options) config() (dist.Config, error) {
	spec := o.spec
	chaosSpec := *spec.Chaos
	spec.Chaos = nil
	if chaosSpec.Drop > 0 || chaosSpec.DelayMS > 0 || o.chaosCrash >= 0 || o.chaosCorrupt > 0 || o.straggler.Rank >= 0 {
		if o.chaosCrash >= 0 {
			chaosSpec.CrashRank = &o.chaosCrash
		}
		spec.Chaos = &chaosSpec
	}
	policy, err := cluster.ParsePolicy(o.onFailure)
	if err != nil {
		return dist.Config{}, err
	}
	cfg, err := spec.Config()
	if err != nil {
		return dist.Config{}, err
	}
	cfg.MeasureAlpha = o.alpha
	if o.sparseAR {
		cfg.UseSparseAllreduce = true
		cfg.SparseTheta = spec.Theta
	}
	if o.partitioned {
		if cfg.Collective == nil {
			cfg.Collective = &collective.Config{}
		}
		cfg.Collective.Partitioned = true
	}
	if o.dropEpoch >= 0 {
		cfg.ThetaSchedule = sparsify.StepDrop{Initial: spec.Theta, Final: 0, DropEpoch: o.dropEpoch}
	}
	if o.adapt {
		cfg.Adapt = adapt.New(adapt.Config{AdjustTheta: o.adaptTheta}, nil)
	}
	if f := cfg.Fault; f != nil {
		f.Cluster.Policy = policy
		if cc := f.Chaos; cc != nil {
			cc.Corrupt = o.chaosCorrupt
			if o.straggler.Rank >= 0 {
				cc.Stragglers = []chaos.StragglerEvent{o.straggler}
			}
		}
	}
	return cfg, nil
}

func main() {
	o := bindFlags(flag.CommandLine)
	flag.Parse()

	if o.serve {
		runServe(o.metricsAddr, serve.Config{
			WorkerSlots: o.pool,
			MaxQueue:    o.queue,
			SpoolDir:    o.spool,
		})
		return
	}

	cfg, err := o.config()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if cfg.Fault != nil && cfg.Fault.Chaos != nil {
		fmt.Printf("chaos schedule: %s\n", cfg.Fault.Chaos)
	}
	if o.metricsAddr != "" || cfg.Adapt != nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	spec := &o.spec
	ranks := spec.Workers + len(spec.ElasticJoins)
	var tracer *itrace.Tracer
	if o.traceOut != "" {
		tracer = itrace.New(ranks, o.traceIters*itrace.DefaultEventsPerIteration)
		cfg.Tracer = tracer
		cfg.Flight = itrace.NewFlightRecorder(tracer, flightPath(o.traceOut))
		defer func() {
			if r := recover(); r != nil {
				cfg.Flight.Trigger(0, itrace.ReasonPanic)
				panic(r)
			}
		}()
	}
	var prof *obs.Profiler
	var stopCapture func()
	if o.profile || o.profileOut != "" || o.top {
		prof = obs.New(ranks, 0)
		cfg.Profiler = prof
		if cfg.Telemetry == nil {
			// The profiler's rolling blame percentiles live in telemetry
			// histograms; give it a registry even without -metrics-addr.
			cfg.Telemetry = telemetry.NewRegistry()
		}
		// Anomaly captures (pprof CPU window + flight dump + cross-link)
		// land next to the profile output, else the trace output, else cwd.
		capDir := "."
		switch {
		case o.profileOut != "":
			capDir = filepath.Dir(o.profileOut)
		case o.traceOut != "":
			capDir = filepath.Dir(o.traceOut)
		}
		stopCapture = prof.EnableCapture(obs.CaptureConfig{Dir: capDir, Flight: cfg.Flight})
	}
	var draining atomic.Bool // flips /readyz once a halt is requested
	if o.metricsAddr != "" {
		mux := http.NewServeMux()
		buildinfo.Register(cfg.Telemetry)
		mux.Handle("/", cfg.Telemetry.Handler())
		if tracer != nil {
			mux.Handle("/trace", tracer.Handler())
		}
		if o.pprof {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		if prof != nil {
			mux.Handle("/profile", prof.Handler())
			if tracer != nil {
				mux.HandleFunc("/trace/merged", func(w http.ResponseWriter, _ *http.Request) {
					w.Header().Set("Content-Type", "application/json")
					_ = tracer.WriteMergedJSON(w, prof.Offsets())
				})
			}
		}
		mux.Handle("/debug/status", prof.StatusHandler(tracer.DroppedTotal))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			_, _ = io.WriteString(w, "ok\n")
		})
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
			if draining.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
				_, _ = io.WriteString(w, "draining\n")
				return
			}
			_, _ = io.WriteString(w, "ok\n")
		})
		bound, shutdown, err := telemetry.ServeHandler(o.metricsAddr, mux)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() { _ = shutdown() }()
		fmt.Printf("metrics: http://%s/metrics (Prometheus) and /metrics.json\n", bound)
		if tracer != nil {
			fmt.Printf("trace:   http://%s/trace (Chrome trace_event JSON)\n", bound)
		}
		if o.pprof {
			fmt.Printf("pprof:   http://%s/debug/pprof/\n", bound)
		}
		if prof != nil {
			fmt.Printf("profile: http://%s/profile (critical paths, blame ledger) and /debug/status\n", bound)
		}
	}

	// SIGINT/SIGTERM halt cooperatively at the next iteration boundary:
	// the run returns normally (Halted set), so the trace dump, metrics
	// summary, and the deferred graceful mux shutdown all still happen —
	// previously an interrupt killed the process and could lose the
	// flight recorder's final dump. A second signal force-quits.
	stopCh := make(chan struct{})
	cfg.Stop = stopCh
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "signal: halting at the next iteration boundary (send again to force quit)")
		draining.Store(true)
		close(stopCh)
		<-sigCh
		os.Exit(130)
	}()

	fmt.Printf("training %s with %s (θ=%.2f) on %d workers\n", spec.Model, spec.Method, spec.Theta, spec.Workers)
	var stopTop func()
	if o.top {
		topStop := make(chan struct{})
		topDone := make(chan struct{})
		go func() {
			prof.Top(os.Stderr, 0, topStop)
			close(topDone)
		}()
		stopTop = func() {
			close(topStop)
			<-topDone
			fmt.Fprintln(os.Stderr)
		}
	}
	res, err := dist.Train(cfg)
	if stopTop != nil {
		stopTop()
	}
	if stopCapture != nil {
		stopCapture() // drain the anomaly-capture worker before dumping
	}
	if tracer != nil {
		// Dump the timeline even when training failed: the final
		// iterations leading into the error are exactly what a
		// postmortem wants to see.
		data, merr := tracer.MarshalJSON()
		if merr == nil {
			merr = checkpoint.WriteBytesAtomic(o.traceOut, data)
		}
		if merr != nil {
			fmt.Fprintf(os.Stderr, "trace dump failed: %v\n", merr)
		} else {
			fmt.Printf("trace: wrote %s (%d bytes; open in ui.perfetto.dev)\n", o.traceOut, len(data))
		}
		if prof != nil {
			// The clock-aligned multi-process view: every rank's ring merged
			// into one timeline, re-based by the profiler's offset estimates.
			var buf bytes.Buffer
			if merr := tracer.WriteMergedJSON(&buf, prof.Offsets()); merr == nil {
				mp := mergedPath(o.traceOut)
				if werr := checkpoint.WriteBytesAtomic(mp, buf.Bytes()); werr != nil {
					fmt.Fprintf(os.Stderr, "merged trace dump failed: %v\n", werr)
				} else {
					fmt.Printf("trace: wrote %s (clock-aligned multi-process view)\n", mp)
				}
			}
		}
	}
	if prof != nil {
		// Dump the profile even when training failed, like the trace: the
		// blame ledger of the iterations before the error is the postmortem.
		doc := prof.BuildProfile(true)
		topRank, topFrac := -1, 0.0
		for _, b := range doc.Blame {
			if b.BlamedFrac > topFrac {
				topRank, topFrac = b.Rank, b.BlamedFrac
			}
		}
		if topRank >= 0 {
			fmt.Printf("profile: top blamed rank %d (%.0f%% of %.3fs blocked time over %d iterations)\n",
				topRank, 100*topFrac, float64(doc.Summary.TotalBlockedNs)/1e9, doc.Summary.Iterations)
		}
		if n := len(doc.Captures); n > 0 {
			fmt.Printf("profile: %d anomaly capture(s) written: pprof CPU window + flight dump, cross-linked by iteration\n", n)
		}
		if o.profileOut != "" {
			data, merr := json.MarshalIndent(&doc, "", "  ")
			if merr == nil {
				merr = checkpoint.WriteBytesAtomic(o.profileOut, data)
			}
			if merr != nil {
				fmt.Fprintf(os.Stderr, "profile dump failed: %v\n", merr)
			} else {
				fmt.Printf("profile: wrote %s (%d bytes)\n", o.profileOut, len(data))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if res.Halted {
		fmt.Printf("halted by signal after %d iterations\n", res.Iterations)
	}
	t := &stats.Table{Headers: []string{"epoch", "train loss", "test acc", "lr", "theta"}}
	for _, ep := range res.Epochs {
		t.AddRow(ep.Epoch, ep.TrainLoss, ep.TestAcc, ep.LR, ep.Theta)
	}
	fmt.Print(t.String())
	fmt.Printf("\ngradient size: %d floats (%.2f MB)\n", res.GradSize, float64(res.GradSize*4)/(1<<20))
	fmt.Printf("compression ratio: %.2fx (avg message %.1f KB)\n", res.CompressionRatio, res.AvgMsgBytes/1024)
	fmt.Printf("measured compute %.2fs, compress %.2fs; modeled comm %.4fs (exchange wait+copy %.4fs)\n",
		res.ComputeSeconds, res.CompressSeconds, res.CommSeconds, res.CommMeasuredSeconds)
	if cfg.Adapt != nil {
		d := cfg.Adapt.Last()
		fmt.Printf("adapt: bypassed %d iterations, %d flips; last k_min %.2f at Tcomm %.1f MB/s (ratio %.2f)\n",
			res.BypassedIterations, cfg.Adapt.Flips(), d.KMin, d.Tcomm/1e6, d.Ratio)
	}
	if res.Telemetry != nil {
		fmt.Println("live stage throughput (MB/s):")
		for _, s := range []string{"tm", "tf", "tp", "ts", "comm"} {
			if v := res.Telemetry[`fftgrad_stage_throughput_bytes_per_second{stage="`+s+`"}`]; v > 0 {
				fmt.Printf("  %-4s %10.1f\n", s, v/1e6)
			}
		}
	}
	if res.Fault != nil {
		s := res.Fault.Cluster
		fmt.Printf("fault runtime: %d retries, %d suspicions, %d degraded iters, %d stale reuses, %d rejoins, %d skipped syncs, %d/%d ranks alive at end\n",
			s.Retries, s.Suspicions, s.DegradedIterations, s.StaleReuses, s.Rejoins, s.SkippedSyncs, s.FinalAlive, ranks)
		if s.ElasticJoins > 0 || s.GossipRounds > 0 || s.StalenessMax > 0 {
			fmt.Printf("elasticity: %d elastic joins, %d gossip rounds, max folded staleness %d seqs\n",
				s.ElasticJoins, s.GossipRounds, s.StalenessMax)
		}
		if res.Fault.LostWorkers > 0 {
			fmt.Printf("fault runtime: %d worker(s) permanently lost; run completed degraded\n", res.Fault.LostWorkers)
		}
		if c := res.Fault.Chaos; c != nil {
			fmt.Printf("chaos injected: %d drops, %d delays, %d dups, %d corruptions, %d crashed ops, %d partitioned, %d straggled ops\n",
				c.Drops, c.Delays, c.Dups, c.Corruptions, c.CrashedOps, c.Partitioned, c.StraggledOps)
		}
	}
	if g := res.Guard; g != nil {
		fmt.Printf("guard: %d corrupt frames rejected, %d values scrubbed (%d gradients withheld), %d anomalies (%d clips, %d skipped updates, %d rollbacks), %d drift checks (%d forced re-syncs)\n",
			g.CorruptFrames, g.ScrubbedValues, g.SkippedGradients, g.Anomalies, g.Clips, g.SkippedUpdates, g.Rollbacks, g.DriftChecks, g.DriftResyncs)
	}
	if cfg.MeasureAlpha && len(res.Alpha) > 0 {
		e := stats.NewECDF(res.Alpha)
		fmt.Printf("alpha (Assumption 3.2): median %.3f, p95 %.3f, max %.3f\n",
			e.Quantile(0.5), e.Quantile(0.95), e.Quantile(1))
	}
	if recs := prof.Records(0); len(recs) > 0 {
		fmt.Println("\nper-iteration breakdown (first 10):")
		tt := &stats.Table{Headers: []string{"iter", "compute ms", "codec ms", "exchange ms", "msg KB"}}
		for _, r := range recs[:min(10, len(recs))] {
			tt.AddRow(r.Iter, float64(r.ComputeNs+r.UpdateNs)/1e6, float64(r.CompressNs+r.DecompressNs)/1e6,
				float64(r.ExchangeNs)/1e6, float64(r.MsgBytes)/1024)
		}
		fmt.Print(tt.String())
	}
}

// runServe runs the multi-tenant job service: the job API and the
// process telemetry endpoints share one mux and one listener. SIGINT or
// SIGTERM drains gracefully — admission closes, running jobs halt at an
// iteration boundary, their checkpoints spool to -spool, and the HTTP
// server shuts down once in-flight requests finish.
func runServe(addr string, cfg serve.Config) {
	if addr == "" {
		addr = ":9090"
	}
	if cfg.SpoolDir != "" {
		if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	srv := serve.New(cfg)
	mux := http.NewServeMux()
	reg := telemetry.NewRegistry()
	buildinfo.Register(reg)
	mux.Handle("/", reg.Handler())
	srv.Routes(mux)
	bound, shutdown, err := telemetry.ServeHandler(addr, mux)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("job service: http://%s/jobs (%d worker slots, queue %d)\n", bound, cfg.WorkerSlots, cfg.MaxQueue)

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	<-sigCh
	fmt.Println("draining: no new jobs; halting running jobs at their next iteration boundary")
	go func() { // second signal skips the drain
		<-sigCh
		os.Exit(130)
	}()
	for _, d := range srv.Drain() {
		if d.Spool != "" {
			fmt.Printf("spooled %s -> %s (resume with {\"resume_from\": %q})\n", d.ID, d.Spool, d.Spool)
		}
	}
	_ = shutdown()
}

// flightPath derives the flight-recorder dump path from the trace
// output path: trace.json -> trace.flight.json.
func flightPath(traceOut string) string {
	ext := filepath.Ext(traceOut)
	return strings.TrimSuffix(traceOut, ext) + ".flight" + ext
}

// mergedPath derives the merged multi-process timeline path from the
// trace output path: trace.json -> trace.merged.json.
func mergedPath(traceOut string) string {
	ext := filepath.Ext(traceOut)
	return strings.TrimSuffix(traceOut, ext) + ".merged" + ext
}
