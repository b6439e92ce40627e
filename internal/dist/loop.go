package dist

// The iteration pipeline: one loop, run by every rank on both
// exchangers. Per iteration a rank computes and scrubs its gradient,
// takes the adapt decision, hands the gradient to its exchanger (which
// compresses, exchanges and averages it bucket by bucket into avg),
// applies the guard-checked SGD update, re-synchronizes parameters when
// due, and keeps the books. What differs between the barrier collectives
// and the failure-aware mesh — how the messages and the parameter sync
// travel, and what a crash does — lives behind the exchanger interface.

import (
	"fmt"
	"time"

	"fftgrad/internal/checkpoint"
	"fftgrad/internal/collective"
	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/guard"
	"fftgrad/internal/nn"
	"fftgrad/internal/obs"
	"fftgrad/internal/optim"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// exchanger moves one rank's gradients and parameters. Implementations:
// barrier (comm.Comm + collective.Exchanger) and meshExchanger
// (cluster.Member).
type exchanger interface {
	// start binds the exchanger to its worker before the first iteration.
	start(w *worker)
	// admit blocks until iteration iter may begin; false halts the run.
	admit(w *worker, iter int) bool
	// gradients compresses every bucket of w.grad with w.pick, exchanges
	// the messages and writes their average into w.avg, filling w.stats
	// and r. A rank that crashed and rejoined sets r.rejoinAt instead.
	gradients(w *worker, r *round) error
	// sync re-synchronizes the replicas' parameters and returns the bytes
	// it moved (0 when no sync happened); a rejoin sets r.rejoinAt.
	sync(w *worker, r *round) (int, error)
	// epochEnd runs on every rank at every epoch boundary.
	epochEnd(w *worker, iter, epoch int)
}

// round is one iteration's exchange outcome.
type round struct {
	iter       int
	theta      float64 // drop ratio in effect
	compressed bool    // false when the adapt controller chose FP32
	exchEndNs  int64   // instant the last exchange call returned (obs)
	// blamePeer/blameWait are the mesh's in-exchange straggler
	// attribution (ExchangeResult.SlowestPeer/WaitNs); -1 on the barrier.
	blamePeer, blameWait int64
	driftHit             bool // a fingerprint mismatch calls for a re-sync
	epochChanged         bool // the membership view moved
	rejoinAt             int  // >= 0: crashed and rejoined; resume here
}

// bucketStat is one bucket's share of an iteration, written only by the
// code handling that bucket.
type bucketStat struct {
	cmpD, exD, decD time.Duration
	size            int // this rank's message bytes
	max             int // largest message folded (prices the collective)
}

// thetaGetter reads a codec's own drop ratio.
type thetaGetter interface{ Theta() float64 }

// residualSink is implemented by error-feedback compressors; the mesh
// uses it to keep a computed-but-unshipped gradient in the information
// stream instead of discarding it. scaledResidualSink is its
// bounded-staleness sibling: the damped remainder of a stale
// contribution re-enters through the residual at the discount's
// complement.
type (
	residualSink       interface{ AddToResidual([]float32) }
	scaledResidualSink interface {
		AddToResidualScaled([]float32, float32)
	}
)

// worker is one rank's training state.
type worker struct {
	cfg          *Config
	rank, p      int
	isRoot       bool
	gossip       bool // gossip replicas differ between mixing rounds: no drift checks
	col          collective.Config
	tc           *trace.Ctx
	oc           *obs.RankCtx
	net          *nn.Network
	sgd          *optim.SGD
	shard        *data.Dataset
	it           *data.Iterator
	gs           *guardState
	res          *Result
	grad, avg    []float32
	recon, delta []float32

	// The codec set: the gradient split into buckets (one when the run is
	// unbucketed), each with its own configured codec — own CRC frame,
	// own error-feedback residual slice — and its own FP32 twin for
	// adapt-bypassed iterations. msgs holds each bucket's outgoing
	// message, double-buffered by iteration parity: barrier Allgather
	// returns aliases of the senders' buffers, and peers keep reading
	// iteration i's message until every rank has entered round i+1, so
	// rank r's buffer from i-1 has no reader left when it compresses i+1.
	bk    collective.Buckets
	comps []compress.Compressor
	wire  []compress.Compressor
	msgs  [2][][]byte
	stats []bucketStat

	// The parameter sync's guard-framed FP32 codec and staging buffers.
	syncCodec   compress.Compressor
	syncFlat    []float32
	syncPayload []byte

	round round // the current iteration's exchange outcome
}

// runRank builds rank's worker and runs the iteration loop over ex from
// startIter. restore, when non-nil, is an elastic joiner's checkpoint.
func runRank(cfg *Config, ex exchanger, rank, p, startIter int, restore *checkpoint.State) (*Result, error) {
	w := &worker{cfg: cfg, rank: rank, p: p, isRoot: rank == 0}
	// The compressor's internal stage timings reach the rank's timeline
	// track through a sink-carrying handle of the shared stage timer, so
	// Tm/Tf/Ts/Tp spans get rank and iteration attribution without the
	// compressors knowing about tracing.
	w.tc = cfg.Tracer.Rank(rank)
	wst := cfg.stageTimer.WithSink(w.tc.StageSink())
	w.oc = cfg.Profiler.Rank(rank)

	w.net = cfg.Model(cfg.Seed) // identical init on every rank
	n := w.net.NumParams()
	w.shard = cfg.Train.Shard(rank, p)
	w.it = data.NewIterator(w.shard.Len(), cfg.Batch, cfg.Seed+int64(rank)*7919)
	w.sgd = optim.NewSGD(cfg.LR.LR(0), cfg.Momentum, n)
	for _, st := range []*checkpoint.State{cfg.Resume, restore} {
		if st == nil {
			continue
		}
		if err := st.Apply(w.net, w.sgd); err != nil {
			return nil, fmt.Errorf("dist: rank %d restoring checkpoint: %w", rank, err)
		}
	}
	w.gs = newGuardState(cfg, rank, n, w.tc)

	w.col = collective.Config{}.WithDefaults()
	if cfg.Collective != nil {
		w.col = *cfg.Collective
	}
	w.gossip = w.col.Strategy == collective.Gossip
	w.bk = collective.MakeBuckets(n, w.col.BucketBytes)
	nb := w.bk.Count()
	w.comps = make([]compress.Compressor, nb)
	w.wire = make([]compress.Compressor, nb)
	for b := range w.comps {
		w.comps[b] = w.gs.wrap(cfg.NewCompressor())
		compress.Instrument(w.comps[b], wst)
		w.wire[b] = w.gs.wrap(compress.FP32{})
	}
	w.msgs = [2][][]byte{make([][]byte, nb), make([][]byte, nb)}
	w.stats = make([]bucketStat, nb)
	w.syncCodec = w.gs.wrap(compress.FP32{})
	w.syncFlat = make([]float32, n)
	w.grad = make([]float32, n)
	w.avg = make([]float32, n)
	w.recon = make([]float32, n)
	w.delta = make([]float32, n)
	w.res = &Result{GradSize: n}

	// The rollback ring seeds with the initial state so a rollback always
	// has a target.
	w.gs.retain(checkpoint.Capture(w.net, w.sgd, 0, -1))
	ex.start(w)
	res, err := w.run(ex, startIter, startIter > 0 || restore != nil)
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d: %w", rank, err)
	}
	return res, nil
}

// pick returns bucket b's codec for this iteration: the configured
// compressor, or its FP32 twin when the adapt controller bypassed it.
func (w *worker) pick(b int, compressed bool) compress.Compressor {
	if compressed {
		return w.comps[b]
	}
	return w.wire[b]
}

// setTheta fans θ out to every bucket codec that accepts one and reports
// whether any did.
func (w *worker) setTheta(theta float64) bool {
	ok := false
	for _, c := range w.comps {
		if ts, is := c.(compress.ThetaSetter); is {
			ts.SetTheta(theta)
			ok = true
		}
	}
	return ok
}

// codecTheta is the drop ratio the run uses when no schedule drives it:
// the sparse collective's SparseTheta, else the codec's own θ, else 0 —
// the codec has no drop ratio (FP32, the quantizers).
func (w *worker) codecTheta() float64 {
	if w.cfg.UseSparseAllreduce {
		return w.cfg.SparseTheta
	}
	if tg, ok := w.comps[0].(thetaGetter); ok {
		return tg.Theta()
	}
	return 0
}

// compress encodes bucket b of the local gradient into this iteration's
// message buffer.
func (w *worker) compress(b, parity int, compressed bool) ([]byte, error) {
	lo, hi := w.bk.Range(b)
	s := &w.stats[b]
	t0 := time.Now()
	msg, err := compress.AppendCompress(w.pick(b, compressed), w.msgs[parity][b][:0], w.grad[lo:hi])
	if err != nil {
		return nil, fmt.Errorf("bucket %d compress: %w", b, err)
	}
	w.msgs[parity][b] = msg
	s.cmpD = time.Since(t0)
	s.size = len(msg)
	w.tc.SpanTimed(trace.OpCompress, int64(len(msg)), t0, s.cmpD)
	return msg, nil
}

// fold decodes bucket b's exchanged messages and writes their weighted
// mean into avg's bucket slice. wt nil weighs every message 1; otherwise
// wt[j] < 0 skips message j, and a damped wt[j] < 1 banks the withheld
// share of the contribution in the bucket codec's residual.
func (w *worker) fold(b int, compressed bool, msgs [][]byte, wt []float32, contributors int) error {
	lo, hi := w.bk.Range(b)
	avg, recon := w.avg[lo:hi], w.recon[lo:hi]
	c := w.pick(b, compressed)
	s := &w.stats[b]
	t0 := time.Now()
	for i := range avg {
		avg[i] = 0
	}
	var wsum float32
	for j, m := range msgs {
		if m == nil {
			continue
		}
		wj := float32(1)
		if wt != nil {
			if wj = wt[j]; wj < 0 {
				continue
			}
		}
		if len(m) > s.max {
			s.max = len(m)
		}
		if err := compress.DecompressInto(c, recon, m); err != nil {
			return fmt.Errorf("bucket %d decompress: %w", b, err)
		}
		for i, v := range recon {
			avg[i] += wj * v
		}
		wsum += wj
		if wj < 1 {
			if sink, ok := w.comps[b].(scaledResidualSink); ok {
				sink.AddToResidualScaled(recon, (1-wj)/float32(contributors))
			}
		}
	}
	inv := 1 / wsum
	for i := range avg {
		avg[i] *= inv
	}
	s.decD = time.Since(t0)
	w.tc.SpanTimed(trace.OpDecompress, int64(contributors), t0, s.decD)
	return nil
}

// bucketSpan closes bucket b's timeline span (bucketed runs only, so an
// unbucketed run's trace has no bucket events).
func (w *worker) bucketSpan(b int, t0 time.Time) {
	if w.bk.Count() > 1 {
		w.tc.SpanSince(trace.OpBucket, int64(b), t0)
	}
}

// encodeParams stages the current parameters as an FP32 sync payload.
// Reusing the payload buffer across syncs is safe on both exchangers:
// every barrier non-root finishes decoding it before entering the next
// collective's barrier, and mesh sends copy.
func (w *worker) encodeParams() ([]byte, error) {
	payload, err := compress.AppendCompress(w.syncCodec, w.syncPayload[:0], w.net.GetParams(w.syncFlat))
	if err != nil {
		return nil, fmt.Errorf("sync encode: %w", err)
	}
	w.syncPayload = payload
	return payload, nil
}

// run is the iteration loop.
func (w *worker) run(ex exchanger, iter int, forceSync bool) (*Result, error) {
	cfg, tc, oc, gs := w.cfg, w.tc, w.oc, w.gs
	net, sgd, res, grad, avg := w.net, w.sgd, w.res, w.grad, w.avg
	n := len(grad)
	loss := nn.SoftmaxCE{}
	totalIters := cfg.Epochs * cfg.ItersPerEpoch
	var totalMsgBytes, lossSum float64
	var lossCount int
	// liveRatio is the compression ratio of this rank's most recent
	// compressed message, fed to the adapt controller (which remembers it
	// across bypassed stretches so re-enablement can be judged).
	var liveRatio float64

	for iter < totalIters {
		if cfg.haltCheck(iter) || !ex.admit(w, iter) {
			res.Halted = true
			break
		}
		epoch := iter / cfg.ItersPerEpoch
		sgd.LR = cfg.LR.LR(epoch)
		tc.SetIter(uint64(iter))
		var tIter time.Time
		if tc != nil {
			tIter = time.Now()
		}
		// The iteration's one record: rank 0 folds it into Result, the
		// profiler (when set) keeps it.
		rec := obs.IterRecord{Iter: int64(iter), StartNs: oc.NowNs()}
		r := &w.round
		*r = round{iter: iter, compressed: true, blamePeer: -1, rejoinAt: -1}
		if cfg.ThetaSchedule != nil {
			r.theta = cfg.ThetaSchedule.Theta(epoch)
			w.setTheta(r.theta)
		}

		// --- local gradient ---------------------------------------------
		t0 := time.Now()
		x, labels := w.shard.Batch(w.it.Next())
		net.ZeroGrads()
		logits := net.Forward(x, true)
		l, dl := loss.Loss(logits, labels)
		net.Backward(dl)
		net.FlattenGrads(grad)
		if tc != nil {
			tScrub := time.Now()
			gs.scrubGrad(grad)
			tc.SpanSince(trace.OpScrub, int64(n), tScrub)
		} else {
			gs.scrubGrad(grad)
		}
		computeT := time.Since(t0)
		rec.ComputeNs = computeT.Nanoseconds()
		tc.SpanTimed(trace.OpCompute, int64(cfg.Batch), t0, computeT)
		if w.isRoot {
			lossSum += l
			lossCount++
			if cfg.SampleGradients > 0 && iter%cfg.SampleGradients == 0 {
				res.GradSamples = append(res.GradSamples, append([]float32(nil), grad...))
			}
		}

		// --- adaptive compression decision -------------------------------
		// All ranks consult the controller before building any message; the
		// per-iteration decision cache guarantees they agree on the wire
		// format even though telemetry keeps moving between calls. Without
		// a schedule the controller sees θ = 0, which suppresses its θ
		// suggestions.
		if cfg.Adapt != nil && !cfg.UseSparseAllreduce {
			d := cfg.Adapt.DecideIter(iter, liveRatio, r.theta)
			if !d.Compress {
				r.compressed = false
				tc.Instant(trace.OpBypass, 0)
			} else if d.ThetaAdjusted && w.setTheta(d.Theta) {
				r.theta = d.Theta
			}
		}
		if cfg.ThetaSchedule == nil {
			r.theta = w.codecTheta()
		}
		if !w.gossip && gs.driftDue(iter) {
			// One fingerprint per iteration, riding bucket 0's frame.
			gs.attachFingerprint(net, w.pick(0, r.compressed))
		}

		// --- compress + exchange + average -------------------------------
		for b := range w.stats {
			w.stats[b] = bucketStat{}
		}
		if err := ex.gradients(w, r); err != nil {
			return nil, err
		}
		if r.rejoinAt >= 0 {
			iter, forceSync = r.rejoinAt, true
			continue
		}
		for _, s := range w.stats {
			rec.CompressNs += s.cmpD.Nanoseconds()
			rec.DecompressNs += s.decD.Nanoseconds()
			rec.ExchangeNs += s.exD.Nanoseconds()
			rec.MsgBytes += int64(s.size)
		}
		if r.compressed && rec.MsgBytes > 0 {
			liveRatio = float64(4*n) / float64(rec.MsgBytes)
		}
		forceSync = forceSync || r.driftHit

		// --- exchange-rate observation (the live Tcomm of Eq. 2) ---------
		// Per bucket. With a Fabric, the modeled collective time prices
		// the exchange (in-process wall time is not a fabric); without
		// one, the measured wall time is the real thing.
		if st := cfg.stageTimer; st != nil {
			for _, s := range w.stats {
				switch {
				case s.size == 0:
				case cfg.Fabric == nil:
					st.ObserveStage(telemetry.StageComm, s.size, s.exD.Seconds())
				case w.isRoot:
					st.ObserveStage(telemetry.StageComm, s.max, w.col.ModelAllgather(cfg.Fabric, w.p, s.max))
				}
			}
		}

		// --- numerical health + update -----------------------------------
		// The detector sees the post-average norm (identical on every
		// rank), so all ranks take the same escalation rung in lockstep.
		t0 = time.Now()
		switch gs.observe(avg) {
		case guard.ActionRollback:
			gs.rollback(net, sgd)
			forceSync = true
			if w.isRoot {
				// The decision is global and identical on every rank; one
				// dump (root's) captures all tracks.
				cfg.Flight.Trigger(w.rank, trace.ReasonRollback)
			}
		case guard.ActionSkip:
			// Poisoned round: no update.
		default:
			sgd.Delta(w.delta, avg)
			net.AddToParams(w.delta)
		}
		updateT := time.Since(t0)
		rec.UpdateNs = updateT.Nanoseconds()
		tc.SpanTimed(trace.OpUpdate, int64(n), t0, updateT)

		// --- parameter re-sync -------------------------------------------
		// Periodic, forced (drift, rollback, rejoin), or early after any
		// membership change: degraded rounds, rejoins and elastic joins
		// leave replicas apart, and the re-sync bounds that drift window.
		var syncBytes int
		if (iter+1)%cfg.SyncEvery == 0 || forceSync || r.epochChanged {
			tSync := time.Now()
			sb, err := ex.sync(w, r)
			if err != nil {
				return nil, err
			}
			if r.rejoinAt >= 0 {
				iter, forceSync = r.rejoinAt, true
				continue
			}
			syncBytes, forceSync = sb, false
			rec.SyncNs = time.Since(tSync).Nanoseconds()
			tc.SpanSince(trace.OpSync, int64(syncBytes), tSync)
		}

		// --- bookkeeping (rank 0) ----------------------------------------
		if w.isRoot {
			res.add(&rec)
			totalMsgBytes += float64(rec.MsgBytes)
			if !r.compressed {
				res.BypassedIterations++
			}
			if cfg.Fabric != nil {
				var commS float64
				// The sum of per-bucket collectives at the observed max
				// message sizes: overlap hides codec time behind flight, a
				// wall-time effect, not a communication-volume one.
				for _, s := range w.stats {
					if s.max > 0 {
						commS += w.col.ModelAllgather(cfg.Fabric, w.p, s.max)
					}
				}
				switch {
				case syncBytes == 0:
				case w.gossip:
					commS += w.col.ModelAllgather(cfg.Fabric, w.p, syncBytes)
				default:
					commS += w.col.ModelBroadcast(cfg.Fabric, w.p, syncBytes)
				}
				res.CommSeconds += commS
			}
		}

		// --- epoch boundary ----------------------------------------------
		if (iter+1)%cfg.ItersPerEpoch == 0 {
			if w.isRoot {
				stats := EpochStats{
					Epoch:     epoch,
					TrainLoss: lossSum / float64(lossCount),
					LR:        sgd.LR,
					Theta:     r.theta,
				}
				lossSum, lossCount = 0, 0
				if cfg.Test != nil {
					stats.TestAcc = evaluate(net, cfg.Test, cfg.Batch)
				}
				res.Epochs = append(res.Epochs, stats)
				if cfg.OnEpoch != nil {
					cfg.OnEpoch(stats)
				}
				if cfg.CheckpointEvery > 0 && cfg.OnCheckpoint != nil && (epoch+1)%cfg.CheckpointEvery == 0 {
					cfg.OnCheckpoint(checkpoint.Capture(net, sgd, int64(epoch), int64(iter)))
				}
			}
			ex.epochEnd(w, iter, epoch)
		}
		gs.maybeRetain(iter, epoch, net, sgd)
		tc.SpanSince(trace.OpIteration, rec.MsgBytes, tIter)
		rec.ExchEndNs, rec.EndNs = r.exchEndNs, oc.NowNs()
		rec.BlamePeer, rec.BlameWaitNs = r.blamePeer, r.blameWait
		oc.Commit(rec)
		iter++
	}

	if w.isRoot {
		if res.Iterations > 0 {
			res.AvgMsgBytes = totalMsgBytes / float64(res.Iterations)
			res.CompressionRatio = float64(n*4) / res.AvgMsgBytes
		}
		cfg.finalState(res, net, sgd)
	}
	return res, nil
}
