package dist

// The mesh exchanger: when Config.Fault is set, the exchange runs through
// the internal/cluster runtime over a point-to-point mesh instead of the
// barrier collectives. Dead ranks are suspected and handled by the
// configured degradation policy, stragglers by the straggler policy, and
// a crashed rank rejoins mid-run from the latest in-runtime checkpoint.
// Config.Fault.Chaos optionally wraps every worker's transport in the
// deterministic fault injector — the test harness for all of the above.
//
// The point-to-point mesh keeps per-peer delivery (nack/resend repairs
// individual links), so the hier/tree strategies inform the modeled
// collective price only. Bucketing is real: the iteration's exchange runs
// as Count() member rounds under sequence numbers iter·B+b, so a chaos
// crash mid-iteration lands between buckets and the unshipped tail folds
// into the per-bucket residuals.
//
// On top of the strict per-round exchange the mesh offers two asynchrony
// modes and one elasticity mechanism:
//
//   - Bounded staleness (Fault.Staleness = K > 0): ranks may run up to K
//     iterations ahead of the slowest live rank (Runtime.WaitWithinWindow
//     throttles the front); a peer that misses the per-round grace budget
//     contributes its freshest cached gradient damped by λ^d (λ =
//     Fault.StalenessDiscount, d = iterations stale), and each receiver
//     banks its share of the withheld (1−λ^d) mass into the
//     error-feedback residual, so damping defers information instead of
//     destroying it — the DGC/SSP regime under the same Sec. 3.4
//     bounded-error budget that covers sparsification.
//
//   - Gossip (Collective.Strategy = "gossip"): decentralized D-PSGD-style
//     averaging with the two nearest live ring neighbors under Metropolis
//     mixing weights. No root, no global barrier: a partition slows
//     convergence on each side but never stalls a round, and the periodic
//     parameter sync becomes a parameter *gossip* round under the same
//     weights instead of a root broadcast.
//
//   - Elastic scale-up (Fault.ElasticJoins): brand-new ranks enter
//     mid-run once the exchange frontier reaches their scheduled
//     iteration — the join handshake (Runtime.AdmitJoin) grows the view,
//     bumps the epoch (forcing a re-sync), restores the newest published
//     checkpoint on the joiner, and enters it at the frontier.
//
// Divergence accounting: a degraded round makes survivors average over
// fewer (or stale-damped) contributions, so replicas can drift apart
// until the next parameter re-broadcast. The loop therefore re-syncs
// whenever the membership epoch changes, and a rank whose own gradient
// was computed but never shipped folds it into the feedback residual
// (when the compressor is error-feedback wrapped) — the same
// bounded-error budget that covers sparsification (Assumption 3.2 /
// Sec. 3.4) covers the stale or missing contribution.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"fftgrad/internal/chaos"
	"fftgrad/internal/checkpoint"
	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/comm"
	"fftgrad/internal/compress"
	"fftgrad/internal/guard"
	"fftgrad/internal/trace"
)

// FaultConfig enables the failure-aware runtime for a run.
type FaultConfig struct {
	// Cluster tunes heartbeats, retry/backoff, policies and rejoin.
	Cluster cluster.Config
	// Chaos, when non-nil, injects the given deterministic fault schedule
	// into every worker's transport.
	Chaos *chaos.Config

	// Staleness > 0 enables the bounded-staleness (SSP-style) exchange:
	// a rank may run up to Staleness iterations ahead of the slowest
	// live rank, and a peer missing the per-round grace budget
	// contributes its freshest cached gradient damped by
	// StalenessDiscount^d (d = iterations stale). 0 keeps the strict
	// per-round exchange.
	Staleness int
	// StalenessDiscount is the per-iteration damping factor λ ∈ (0,1]
	// applied to stale contributions; the withheld (1−λ^d) share is
	// banked in the error-feedback residual. 0 defaults to 0.9.
	StalenessDiscount float64

	// ElasticJoins schedules brand-new ranks entering mid-run: entry k
	// admits rank Workers+k once the exchange frontier reaches the given
	// iteration. A joiner restores the newest published checkpoint,
	// enters at the frontier, and grows the view (epoch bump → forced
	// parameter re-sync on every survivor).
	ElasticJoins []int
}

// FaultReport is the end-of-run fault accounting (Result.Fault).
type FaultReport struct {
	// Cluster is the runtime's cumulative view: retries, suspicions,
	// degraded iterations, stale reuses, rejoins, elastic joins, gossip
	// rounds, skipped syncs.
	Cluster cluster.Stats
	// Chaos counts the injected faults (nil when no chaos was configured).
	Chaos *chaos.Stats
	// LostWorkers counts ranks that left permanently and did not return
	// (the run still completed under the degradation policy).
	LostWorkers int
}

// meshExchanger is one rank's failure-aware member.
type meshExchanger struct {
	m       *cluster.Member
	rt      *cluster.Runtime
	spi     int // exchange seqs per iteration
	gossip  bool
	bounded bool
	lambda  float64
	// Staleness windows in exchange-seq units: K iterations of spi seqs.
	// Gossip folds at-most-one-iteration-old caches even without an
	// explicit staleness budget (self-weight absorption covers the rest).
	staleWindow, gossipWindow uint64

	view        cluster.View // view of the last completed exchange
	gossipEpoch uint64       // last view epoch acted on (gossip mode)
	wt          []float32    // per-rank fold weights
}

// runMesh runs every rank, plus any elastic joiners, over the
// failure-aware mesh.
func runMesh(cfg *Config) ([]*Result, []error, *FaultReport) {
	p := cfg.Workers
	joins := cfg.Fault.ElasticJoins
	pmax := p + len(joins)
	gossip := cfg.Collective != nil && cfg.Collective.Strategy == collective.Gossip

	// Seqs per iteration: buckets burn Count() exchange seqs, gossip
	// burns two (gradient round, then the parameter-consensus round).
	spi := 2
	if !gossip {
		var bb int
		if cfg.Collective != nil {
			bb = cfg.Collective.BucketBytes
		}
		spi = collective.MakeBuckets(cfg.Model(cfg.Seed).NumParams(), bb).Count()
	}
	staleness := cfg.Fault.Staleness
	lambda := cfg.Fault.StalenessDiscount
	if lambda <= 0 || lambda > 1 {
		lambda = 0.9
	}
	staleWindow := uint64(staleness) * uint64(spi)
	gossipWindow := staleWindow
	if gossip && gossipWindow == 0 {
		gossipWindow = uint64(spi)
	}

	clCfg := cfg.Fault.Cluster
	if clCfg.Halt == nil {
		// A canceled/drained job must not wait out RejoinWait on a rank
		// parked in rejoin; the halt signal abandons the park.
		clCfg.Halt = cfg.Stop
	}
	if cfg.Guard != nil && cfg.Guard.Framing() {
		// The cluster receiver rejects corrupt frames before they can
		// reach a decompressor; nack/resend repairs them.
		clCfg.Verify = guard.Verify
	}
	if clCfg.SendDepth <= 0 && (spi > 1 || staleness > 0) {
		// Multi-seq iterations and bounded staleness both let the seq
		// drift between the front rank and a laggard span whole
		// iterations of seqs; size the resend cache to cover the window
		// or nack repair of old rounds silently fails.
		clCfg.SendDepth = (2+staleness)*spi + 2
	}
	rt := cluster.NewElastic(p, pmax, clCfg)
	rt.AttachTracer(cfg.Tracer)
	mesh := comm.NewMesh(pmax)
	var harness *chaos.Harness
	if cfg.Fault.Chaos != nil {
		harness = chaos.NewHarness(pmax, *cfg.Fault.Chaos)
		harness.AttachTracer(cfg.Tracer)
	}
	rt.AttachStageTimer(cfg.stageTimer)
	if cfg.Telemetry != nil {
		rt.Instrument(cfg.Telemetry)
		if harness != nil {
			harness.Instrument(cfg.Telemetry)
		}
	}
	cfg.instrument()

	members := make([]*cluster.Member, pmax)
	join := func(rank int) {
		var tr comm.Transport = mesh.Endpoint(rank)
		if harness != nil {
			tr = harness.Wrap(tr)
		}
		members[rank] = rt.Join(tr)
	}
	results := make([]*Result, pmax)
	errs := make([]error, pmax)
	run := func(rank, startIter int, restore *checkpoint.State) {
		ex := &meshExchanger{
			m: members[rank], rt: rt, spi: spi, gossip: gossip,
			bounded: staleness > 0, lambda: lambda,
			staleWindow: staleWindow, gossipWindow: gossipWindow,
		}
		results[rank], errs[rank] = runRank(cfg, ex, rank, pmax, startIter, restore)
		// A worker that finished cleanly keeps its member alive —
		// heartbeats and nack repair keep serving a slower rank still
		// catching up after a rejoin. A terminally failed worker goes
		// silent instead, so survivors suspect it rather than waiting on
		// a straggler that will never deliver.
		if errs[rank] != nil {
			members[rank].Close()
		}
	}
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		join(rank)
	}
	for rank := 0; rank < p; rank++ {
		cfg.goRank(&wg, rank, func() { run(rank, 0, nil) })
	}

	// Elastic join watchers: each parks until the fleet's exchange
	// frontier reaches its scheduled iteration, then runs the join
	// handshake and becomes a regular worker from the frontier on. A
	// watcher whose moment never comes (halt, early completion) exits
	// without joining.
	var wgJoin sync.WaitGroup
	trainingDone := make(chan struct{})
	for k, atIter := range joins {
		rank, target := p+k, uint64(atIter)*uint64(spi)
		cfg.goRank(&wgJoin, rank, func() {
			for rt.Frontier() < target {
				select {
				case <-trainingDone:
					return
				case <-clCfg.Halt:
					return
				case <-time.After(200 * time.Microsecond):
				}
			}
			_, frontier, st, err := rt.AdmitJoin(rank)
			if err != nil {
				errs[rank] = fmt.Errorf("dist: rank %d join: %w", rank, err)
				return
			}
			join(rank)
			// The view just grew: dump the timeline so the quorum change
			// and the frontier the joiner entered at are on record.
			cfg.Flight.Trigger(rank, trace.ReasonViewGrow)
			run(rank, int(frontier)/spi, st)
		})
	}

	wg.Wait()
	close(trainingDone)
	wgJoin.Wait()
	for _, m := range members {
		if m != nil {
			m.Close()
		}
	}
	report := &FaultReport{Cluster: rt.Stats()}
	if harness != nil {
		s := harness.Stats()
		report.Chaos = &s
	}
	return results, errs, report
}

// lostWorker reports whether a non-root rank's error means it died and
// could not come back — a degraded but successful run, exactly what the
// degradation policies exist for.
func lostWorker(err error) bool {
	return cluster.IsRecoverable(err) || errors.Is(err, cluster.ErrRejoinTimeout) || errors.Is(err, cluster.ErrHalted)
}

func (x *meshExchanger) start(w *worker) {
	// Seed the rejoin store so a rank crashing before the first epoch
	// boundary can still restore something consistent.
	if w.isRoot {
		x.rt.PublishCheckpoint(checkpoint.Capture(w.net, w.sgd, 0, 0), 0)
	}
}

// admit is the bounded-staleness throttle: never start an exchange more
// than K iterations ahead of the slowest live rank's frontier.
func (x *meshExchanger) admit(w *worker, iter int) bool {
	if !x.bounded {
		return true
	}
	_, err := x.rt.WaitWithinWindow(w.rank, uint64(iter)*uint64(x.spi), x.staleWindow)
	return err == nil
}

// epochEnd publishes the rejoin/join checkpoint from the current sync
// root (not necessarily rank 0 — it may be dead).
func (x *meshExchanger) epochEnd(w *worker, iter, epoch int) {
	if w.rank == x.view.LowestAlive() {
		x.rt.PublishCheckpoint(checkpoint.Capture(w.net, w.sgd, int64(epoch), int64(iter)), uint64((iter+1)*x.spi))
	}
}

// staleWeight is the weight a stale cached contribution d seqs behind the
// round folds in at, with nb seqs per iteration; false skips it.
//
//   - strict, unbucketed: the cache is the previous round's gradient and
//     folds at weight 1;
//   - strict, bucketed: the previous seq is the previous bucket, a
//     different slice shape — dropped, and the bucket rescales over the
//     fresh contributions;
//   - bounded: a cache a whole number of iterations old (d > 0, d%nb == 0)
//     is the same bucket from d/nb iterations back and folds damped by
//     λ^(d/nb); anything else is dropped, except that an unbucketed
//     stale entry with d == 0 keeps weight 1;
//   - gossip (nb = 2: gradient round, then parameter round): the same
//     whole-iteration rule, so caches from the parameter stream are
//     skipped.
func staleWeight(gossip bool, nb int, d uint64, bounded bool, lambda float64) (float32, bool) {
	if !gossip && nb == 1 && (!bounded || d == 0) {
		return 1, true
	}
	if (!gossip && !bounded) || d == 0 || d%uint64(nb) != 0 {
		return 0, false
	}
	return float32(math.Pow(lambda, float64(d/uint64(nb)))), true
}

func (x *meshExchanger) gradients(w *worker, r *round) error {
	if x.gossip {
		return x.gossipGradients(w, r)
	}
	nb := w.bk.Count()
	drift := w.gs.driftDue(r.iter)
	var ex *cluster.ExchangeResult
	for b := 0; b < nb; b++ {
		msg, err := w.compress(b, r.iter&1, r.compressed)
		if err != nil {
			return err
		}
		var tB time.Time
		if w.tc != nil {
			tB = time.Now()
		}
		s := &w.stats[b]
		seq := uint64(r.iter*nb + b)
		tEx := time.Now()
		if x.bounded {
			ex, err = x.m.ExchangeBounded(seq, msg, x.staleWindow)
		} else {
			ex, err = x.m.Exchange(seq, msg)
		}
		s.exD = time.Since(tEx)
		w.tc.SpanTimed(trace.OpExchange, int64(len(msg)), tEx, s.exD)
		if w.oc != nil {
			r.exchEndNs = w.oc.NowNs()
		}
		if err != nil {
			if !cluster.IsRecoverable(err) {
				return fmt.Errorf("exchange %d.%d: %w", r.iter, b, err)
			}
			return x.crash(w, r, b)
		}
		if ex.SlowestPeer >= 0 && (r.blamePeer < 0 || ex.WaitNs > r.blameWait) {
			r.blamePeer, r.blameWait = int64(ex.SlowestPeer), ex.WaitNs
		}
		if err := w.fold(b, r.compressed, ex.Msgs, x.weights(ex, nb), ex.Contributors); err != nil {
			return err
		}
		if b == 0 && drift && w.gs.checkDrift(ex.Msgs, ex.Stale) {
			r.driftHit = true
		}
		r.epochChanged = r.epochChanged || ex.EpochChanged
		w.bucketSpan(b, tB)
	}
	x.view = ex.View
	return nil
}

// weights fills the fold weights of one exchange's contributions.
func (x *meshExchanger) weights(ex *cluster.ExchangeResult, nb int) []float32 {
	if cap(x.wt) < len(ex.Msgs) {
		x.wt = make([]float32, len(ex.Msgs))
	}
	wt := x.wt[:len(ex.Msgs)]
	for j := range wt {
		wt[j] = 1
		if ex.Stale == nil || !ex.Stale[j] {
			continue
		}
		var d uint64
		if ex.StaleBy != nil {
			d = ex.StaleBy[j]
		}
		if sw, ok := staleWeight(false, nb, d, x.bounded, x.lambda); ok {
			wt[j] = sw
		} else {
			wt[j] = -1
		}
	}
	return wt
}

// gossipGradients is one Metropolis mixing round over the live ring
// neighborhood: avg = Σ w_j·peer_j + (1−Σ w_j)·self. A stale fold is
// damped to w_j = PeerWeight·λ^d; an absent (or wrong-stream) cache
// contributes nothing and its mass reverts to self, so the realized
// mixing row always sums to one.
func (x *meshExchanger) gossipGradients(w *worker, r *round) error {
	msg, err := w.compress(0, r.iter&1, r.compressed)
	if err != nil {
		return err
	}
	s := &w.stats[0]
	tEx := time.Now()
	gr, err := x.m.GossipExchange(uint64(r.iter)*uint64(x.spi), msg, x.gossipWindow)
	s.exD = time.Since(tEx)
	w.tc.SpanTimed(trace.OpExchange, int64(len(msg)), tEx, s.exD)
	if w.oc != nil {
		r.exchEndNs = w.oc.NowNs()
	}
	if err != nil {
		if !cluster.IsRecoverable(err) {
			return fmt.Errorf("gossip %d: %w", r.iter, err)
		}
		return x.crash(w, r, 0)
	}

	c := w.pick(0, r.compressed)
	t0 := time.Now()
	for i := range w.avg {
		w.avg[i] = 0
	}
	s.max = len(msg)
	var peerW float32
	for k, mm := range gr.Msgs {
		wk := float32(gr.PeerWeight)
		if gr.Stale[k] {
			sw, ok := staleWeight(true, x.spi, gr.StaleBy[k], x.bounded, x.lambda)
			if !ok {
				continue
			}
			wk *= sw
		}
		s.max = max(s.max, len(mm))
		if err := x.mix(c, w, mm, wk); err != nil {
			return fmt.Errorf("gossip decompress: %w", err)
		}
		peerW += wk
	}
	if err := x.mix(c, w, msg, 1-peerW); err != nil {
		return fmt.Errorf("gossip self-decode: %w", err)
	}
	s.decD = time.Since(t0)
	w.tc.SpanTimed(trace.OpDecompress, int64(len(gr.Peers)+1), t0, s.decD)
	x.view = gr.View
	r.epochChanged = gr.View.Epoch != x.gossipEpoch
	x.gossipEpoch = gr.View.Epoch
	return nil
}

// mix decodes msg with c and accumulates wt times it into w.avg.
func (x *meshExchanger) mix(c compress.Compressor, w *worker, msg []byte, wt float32) error {
	if err := compress.DecompressInto(c, w.recon, msg); err != nil {
		return err
	}
	for i, v := range w.recon {
		w.avg[i] += wt * v
	}
	return nil
}

// crash is the recoverable-failure path: the local transport is inside a
// chaos crash window, or this rank was evicted. It dumps the timeline
// while the pre-crash events are still in the ring, folds every
// unshipped bucket slice from b on into its own error-feedback residual
// (buckets below b were already averaged by the survivors), and parks
// in rejoin.
func (x *meshExchanger) crash(w *worker, r *round, b int) error {
	w.cfg.Flight.Trigger(w.rank, trace.ReasonCrash)
	for ; b < w.bk.Count(); b++ {
		lo, hi := w.bk.Range(b)
		if sink, ok := w.comps[b].(residualSink); ok {
			sink.AddToResidual(w.grad[lo:hi])
		}
	}
	return x.rejoin(w, r)
}

// rejoin parks until the transport heals, restores the published
// checkpoint when this rank was evicted, and sets r.rejoinAt to the
// iteration containing the exchange frontier — never past it: survivors
// parked mid-iteration are waiting on this rank's remaining rounds, so
// skipping to the next boundary would deadlock both sides. Replaying the
// iteration's earlier seqs is safe: peers discard late data for
// completed rounds and serve (or degrade) the replayed exchanges from
// their send cache.
func (x *meshExchanger) rejoin(w *worker, r *round) error {
	_, frontier, st, err := x.m.AwaitRejoin()
	if err != nil {
		return err
	}
	if st != nil {
		if err := st.Apply(w.net, w.sgd); err != nil {
			return fmt.Errorf("restoring checkpoint on rejoin: %w", err)
		}
	}
	r.rejoinAt = max(r.iter, int(frontier)/x.spi)
	return nil
}

// sync broadcasts from the lowest alive rank; gossip mode instead runs a
// parameter-consensus gossip round under the same Metropolis weights (no
// root to depend on).
func (x *meshExchanger) sync(w *worker, r *round) (int, error) {
	if x.gossip {
		return x.gossipParams(w, r)
	}
	root := x.view.LowestAlive()
	if root < 0 {
		return 0, nil
	}
	var payload []byte
	if w.rank == root {
		var err error
		if payload, err = w.encodeParams(); err != nil {
			return 0, err
		}
	}
	got, ok, err := x.m.SyncBroadcast(uint64((r.iter+1)*x.spi), payload, root)
	if err != nil {
		if cluster.IsRecoverable(err) {
			return 0, x.rejoin(w, r)
		}
		return 0, fmt.Errorf("sync %d: %w", r.iter, err)
	}
	if !ok {
		return 0, nil
	}
	if w.rank != root {
		if err := compress.DecompressInto(w.syncCodec, w.syncFlat, got); err != nil {
			return 0, fmt.Errorf("sync decode: %w", err)
		}
		w.net.SetParams(w.syncFlat)
	}
	return 4 * len(w.grad), nil
}

// gossipParams mixes parameters with the live ring neighbors.
func (x *meshExchanger) gossipParams(w *worker, r *round) (int, error) {
	payload, err := w.encodeParams()
	if err != nil {
		return 0, err
	}
	// Window 0: a parameter round never folds a stale cache — the cache
	// would be a gradient payload from the other seq stream; an absent
	// neighbor's mass reverts to self.
	pg, err := x.m.GossipExchange(uint64(r.iter)*uint64(x.spi)+1, payload, 0)
	if err != nil {
		if cluster.IsRecoverable(err) {
			return 0, x.rejoin(w, r)
		}
		return 0, fmt.Errorf("param gossip %d: %w", r.iter, err)
	}
	if len(pg.Msgs) == 0 {
		return 0, nil
	}
	for i := range w.avg {
		w.avg[i] = 0
	}
	var pws float32
	for k, mm := range pg.Msgs {
		if pg.Stale[k] {
			continue
		}
		wk := float32(pg.PeerWeight)
		if err := x.mix(w.syncCodec, w, mm, wk); err != nil {
			return 0, fmt.Errorf("param gossip decode: %w", err)
		}
		pws += wk
	}
	sw := 1 - pws
	for i, v := range w.syncFlat {
		w.avg[i] += sw * v
	}
	w.net.SetParams(w.avg)
	return 4 * len(w.grad), nil
}
