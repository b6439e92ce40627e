package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/dist"
	"fftgrad/internal/netsim"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
	"fftgrad/internal/telemetry"
)

// trainWorkload is one dist.Train workload.
type trainWorkload struct {
	workers, batch int
	lr             float64
	// itersPerEpoch is the epoch length; final_loss is rank 0's mean loss
	// over epoch lossEpoch (1-based), a fixed iteration window, so it is
	// deterministic per seed whatever the run length.
	itersPerEpoch, lossEpoch int
	data                     func(seed int64) *data.Dataset
	model                    func(seed int64) *nn.Network
	codec                    func() compress.Compressor
	// exchange adds the workload's exchange-side layers (fault mesh,
	// guard, profiler) to a config.
	exchange func(c *dist.Config, seed int64)
}

// warmupIters are excluded from every per-iteration figure: they pay
// one-time allocation and cache fills that setup_s reports instead.
const warmupIters = 2

// moreSetup reports whether a run should set the workload up once more:
// at least 5 times, then until a second has gone into set-up, at most 25
// times. setup_s is the median, so cheap set-ups get more trials.
func moreSetup(trials int, spent time.Duration) bool {
	return trials < 5 || (trials < 25 && spent < time.Second)
}

func (w *trainWorkload) config(seed int64, ds *data.Dataset, ps *probeSet) dist.Config {
	c := dist.Config{
		Workers:       w.workers,
		Batch:         w.batch,
		Seed:          seed,
		Momentum:      0.9,
		LR:            optim.ConstLR(w.lr),
		Model:         ps.wrapModel(w.model),
		Train:         ds,
		NewCompressor: w.codec,
		Fabric:        netsim.CometCluster(),
	}
	if ps.traced {
		c.NewCompressor = ps.wrapCodec(w.codec)
		c.Telemetry = telemetry.NewRegistry()
	}
	if w.exchange != nil {
		w.exchange(&c, seed)
	}
	return c
}

// setupTrial times one set-up: data synthesis, then a one-iteration
// dist.Train split at the moment the last replica's model is built.
type setupTrial struct {
	dataS, modelS, firstIterS float64
}

func (s setupTrial) total() float64 { return s.dataS + s.modelS + s.firstIterS }

func (w *trainWorkload) setup(seed int64) (setupTrial, *data.Dataset, error) {
	t0 := time.Now()
	ds := w.data(seed)
	t1 := time.Now()
	ps := newProbeSet(false, 0)
	c := w.config(seed, ds, ps)
	c.Epochs, c.ItersPerEpoch = 1, 1
	_, err := dist.Train(c)
	t2 := time.Now()
	return setupTrial{
		dataS:      t1.Sub(t0).Seconds(),
		modelS:     ps.built.Sub(t1).Seconds(),
		firstIterS: t2.Sub(ps.built).Seconds(),
	}, ds, err
}

// phase is one measured dist.Train call, halted through Config.Stop once
// its time is up.
type phase struct {
	res         *dist.Result
	replicas    []*replica
	iterMs      []float64 // per-replica iteration wall times after warmup
	samplesPerS float64   // training samples completed per second after warm-up
	used        usage     // allocation and CPU time over the call
	ranIters    int       // replica-iterations executed
}

func (w *trainWorkload) measure(seed int64, ds *data.Dataset, d time.Duration, traced bool) (*phase, error) {
	ps := newProbeSet(traced, warmupIters)
	c := w.config(seed, ds, ps)
	c.ItersPerEpoch = w.itersPerEpoch
	c.Epochs = math.MaxInt32 / w.itersPerEpoch
	// Halt once the time is up and the final_loss epoch has completed,
	// whichever is later.
	stop := make(chan struct{})
	c.Stop = stop
	var mu sync.Mutex
	timeUp, lossDone := false, false
	halt := func(setTime, setLoss bool) {
		mu.Lock()
		defer mu.Unlock()
		if timeUp && lossDone {
			return // already closed
		}
		timeUp, lossDone = timeUp || setTime, lossDone || setLoss
		if timeUp && lossDone {
			close(stop)
		}
	}
	c.OnEpoch = func(st dist.EpochStats) {
		if st.Epoch+1 >= w.lossEpoch {
			halt(false, true)
		}
	}
	runtime.GC() // the set-up's garbage is not the measured window's
	u0 := readUsage()
	timer := time.AfterFunc(d, func() { halt(true, false) })
	res, err := dist.Train(c)
	timer.Stop()
	p := &phase{res: res, replicas: ps.replicas, used: readUsage().since(u0)}
	if err != nil {
		return p, err
	}
	// An iteration completes when its replica enters the next one.
	first, last := int64(math.MaxInt64), int64(0)
	var samples float64
	for _, r := range ps.replicas {
		p.ranIters += len(r.starts)
		if len(r.starts) <= warmupIters+1 {
			continue
		}
		for i := warmupIters; i+1 < len(r.starts); i++ {
			p.iterMs = append(p.iterMs, float64(r.starts[i+1]-r.starts[i])/1e6)
		}
		samples += float64((len(r.starts) - 1 - warmupIters) * w.batch)
		first = min(first, r.starts[warmupIters])
		last = max(last, r.starts[len(r.starts)-1])
	}
	if len(p.iterMs) == 0 {
		return p, fmt.Errorf("run too short: no iteration after the %d warm-up ones", warmupIters)
	}
	p.samplesPerS = samples / (float64(last-first) / 1e9)
	return p, nil
}

// losses returns rank 0's first-epoch and lossEpoch mean training loss.
func (w *trainWorkload) losses(res *dist.Result) (first, final float64, err error) {
	if len(res.Epochs) < w.lossEpoch {
		return 0, 0, fmt.Errorf("only %d of the %d epochs final_loss needs ran", len(res.Epochs), w.lossEpoch)
	}
	return res.Epochs[0].TrainLoss, res.Epochs[w.lossEpoch-1].TrainLoss, nil
}

// runTrain runs a training workload: set-up trials, then one measured
// phase (untraced), or an untraced and a traced phase of half the time
// each when traced.
func runTrain(w *trainWorkload, seed int64, seconds float64, traced bool, traceOut string) (*report, error) {
	rep := newReport()
	var trials []setupTrial
	var ds *data.Dataset
	for t0 := time.Now(); moreSetup(len(trials), time.Since(t0)); {
		st, d, err := w.setup(seed)
		rep.attempted++
		if err != nil {
			rep.fail("setup: %v", err)
			return rep, nil
		}
		trials = append(trials, st)
		ds = d
	}

	d := time.Duration(seconds * float64(time.Second))
	if traced {
		d /= 2
	}
	plain, err := w.measure(seed, ds, d, false)
	if !rep.checkPhase(w, plain, err) {
		return rep, nil
	}
	_, finalLoss, _ := w.losses(plain.res)
	p50 := median(append([]float64(nil), plain.iterMs...))

	if !traced {
		rep.e2e("samples_per_s", plain.samplesPerS, "1/s")
		rep.e2e("iter_ms_p50", p50, "ms")
		rep.e2e("alloc_mb_per_iter", plain.used.allocMB/float64(plain.ranIters), "MB")
		rep.e2e("cpu_ms_per_iter", plain.used.cpuS*1e3/float64(plain.ranIters), "ms")
		rep.e2e("peak_rss_mb", peakRSSMB(), "MB")
		rep.e2e("setup_s", median(mapSetup(trials, setupTrial.total)), "s")
		rep.note("iter_ms: %d samples; modeled_samples_per_s %.1f", len(plain.iterMs), plain.res.Throughput(w.workers, w.batch))
		return rep, nil
	}

	tr, err := w.measure(seed, ds, d, true)
	if !rep.checkPhase(w, tr, err) {
		return rep, nil
	}
	if _, trFinal, _ := w.losses(tr.res); math.Float64bits(trFinal) != math.Float64bits(finalLoss) {
		rep.fail("traced final_loss %v differs from untraced %v", trFinal, finalLoss)
	}
	rep.layers(w, tr, median(append([]float64(nil), tr.iterMs...))-p50)
	rep.perLayer("train.final_loss", finalLoss, "loss")
	rep.tail("dist.iter_ms_p90", plain.iterMs, 0.90)
	rep.perLayer("setup.data_s", median(mapSetup(trials, func(s setupTrial) float64 { return s.dataS })), "s")
	rep.perLayer("setup.model_s", median(mapSetup(trials, func(s setupTrial) float64 { return s.modelS })), "s")
	rep.perLayer("setup.first_iter_s", median(mapSetup(trials, func(s setupTrial) float64 { return s.firstIterS })), "s")
	if traceOut != "" {
		if err := writeReplicaTrace(traceOut, tr.replicas); err != nil {
			rep.note("trace not written: %v", err)
		} else {
			rep.note("trace: %s", traceOut)
		}
	}
	return rep, nil
}

func mapSetup(ts []setupTrial, f func(setupTrial) float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = f(t)
	}
	return out
}

// checkPhase counts a phase's replica-iterations and its failures: a run
// error, a missing or non-finite or non-decreasing loss, a degraded
// iteration, a resend retry and a guard-rejected frame. It reports
// whether the phase produced figures at all.
func (rep *report) checkPhase(w *trainWorkload, p *phase, err error) bool {
	rep.attempted += max(p.ranIters, 1)
	if err != nil {
		rep.failN(max(p.ranIters, 1), "train: %v", err)
		return false
	}
	res := p.res
	first, final, lerr := w.losses(res)
	switch {
	case lerr != nil:
		rep.fail("%v", lerr)
	case math.IsNaN(final) || math.IsInf(final, 0):
		rep.fail("final_loss %v is not finite", final)
	case final >= first:
		rep.fail("final_loss %v not below the first epoch's %v", final, first)
	}
	for _, e := range res.Epochs {
		if math.IsNaN(e.TrainLoss) || math.IsInf(e.TrainLoss, 0) {
			rep.failN(w.itersPerEpoch*w.workers, "epoch %d loss %v is not finite", e.Epoch, e.TrainLoss)
		}
	}
	if f := res.Fault; f != nil {
		if n := int(f.Cluster.DegradedIterations); n > 0 {
			rep.failN(n, "%d degraded iterations", n)
		}
		if n := int(f.Cluster.Retries); n > 0 {
			rep.failN(n, "%d resend retries", n)
		}
	}
	if n := rejectedFrames(res); n > 0 {
		rep.failN(n, "%d guard-rejected frames", n)
	}
	return lerr == nil
}

func rejectedFrames(res *dist.Result) int {
	n := 0
	if res.Guard != nil {
		n += int(res.Guard.CorruptFrames)
	}
	if res.Fault != nil {
		n += int(res.Fault.Cluster.CorruptFrames)
	}
	return n
}

// layers reports the traced phase's per-layer figures.
func (rep *report) layers(w *trainWorkload, p *phase, overheadMs float64) {
	var iters int
	var fwd, bwd, comp, decomp, msg int64
	var compCalls, decompCalls int
	layerFwd := map[string]int64{}
	layerBwd := map[string]int64{}
	for _, r := range p.replicas {
		iters += r.aggIters
		for i := range r.fwdNs {
			key := layerKey(i, r.names[i])
			layerFwd[key] += r.fwdNs[i]
			layerBwd[key] += r.bwdNs[i]
			fwd += r.fwdNs[i]
			bwd += r.bwdNs[i]
		}
		comp += r.compressNs
		decomp += r.decompressNs
		compCalls += r.compressCalls
		decompCalls += r.decompressCalls
		msg += r.msgBytes
	}
	perIter := func(ns int64) float64 { return float64(ns) / 1e6 / float64(max(iters, 1)) }
	iterMean := mean(p.iterMs)
	rep.perLayer("nn.fwd_ms", perIter(fwd), "ms")
	rep.perLayer("nn.bwd_ms", perIter(bwd), "ms")
	for key, ns := range layerFwd {
		rep.perLayer(key+".fwd_ms", perIter(ns), "ms")
		rep.perLayer(key+".bwd_ms", perIter(layerBwd[key]), "ms")
	}
	rep.perLayer("codec.compress_ms", float64(comp)/1e6/float64(max(compCalls, 1)), "ms")
	rep.perLayer("codec.decompress_ms", float64(decomp)/1e6/float64(max(decompCalls, 1)), "ms")
	rep.perLayer("codec.share", perIter(comp+decomp)/iterMean, "ratio")
	rep.perLayer("codec.msg_bytes", float64(msg)/float64(max(compCalls, 1)), "B")
	rep.perLayer("codec.ratio", p.res.CompressionRatio, "ratio")
	rep.perLayer("nn.share", perIter(fwd+bwd)/iterMean, "ratio")

	res := p.res
	replicaIters := float64(res.Iterations * w.workers)
	for _, st := range []string{"tm", "tf", "ts", "tp"} {
		s := res.Telemetry["fftgrad_stage_seconds_total{stage=\""+st+"\"}"]
		rep.perLayer("kernel."+st+"_ms", s*1e3/replicaIters, "ms")
	}
	iters0 := float64(max(res.Iterations, 1))
	// Every rank sends its gradient message to each of the other p-1.
	rep.perLayer("exchange.bytes_per_iter", res.AvgMsgBytes*float64(w.workers*(w.workers-1)), "B")
	rep.perLayer("exchange.modeled_ms", res.CommSeconds*1e3/iters0, "ms")
	rep.perLayer("exchange.wait_copy_ms", res.CommMeasuredSeconds*1e3/iters0, "ms")
	rep.perLayer("exchange.modeled_samples_per_s", res.Throughput(w.workers, w.batch), "1/s")
	rep.perLayer("dist.other_ms", iterMean-perIter(fwd+bwd+comp+decomp), "ms")
	var retries, degraded float64
	if res.Fault != nil {
		retries = float64(res.Fault.Cluster.Retries)
		degraded = float64(res.Fault.Cluster.DegradedIterations)
	}
	rep.perLayer("cluster.retries", retries, "count")
	rep.perLayer("cluster.degraded_iters", degraded, "count")
	rep.perLayer("guard.rejected_frames", float64(rejectedFrames(res)), "count")
	rep.perLayer("trace.overhead_ms", overheadMs, "ms")
	rep.note("traced: %d replica-iterations, %d spans dropped past the cap", iters, droppedSpans(p.replicas))
}

func droppedSpans(rs []*replica) int {
	n := 0
	for _, r := range rs {
		n += r.droppedSpans
	}
	return n
}

// layerKey names a top-level layer row: its index and its type, the
// layer's Name up to its first parenthesis ("conv(3→16,…)" → "conv").
func layerKey(i int, name string) string {
	if j := strings.IndexByte(name, '('); j >= 0 {
		name = name[:j]
	}
	return fmt.Sprintf("nn.L%d_%s", i, name)
}
