package dist

// The barrier exchanger: the BSP collectives of the paper's harness over
// the in-process comm.Comm, rescheduled by collective.Exchanger (flat
// ring, hierarchical, or binomial tree — same message multiset, so the
// strategy never changes arithmetic).
//
// With bucketing (collective.Config.BucketBytes) the buckets run as a
// two-stage pipeline: while bucket b's compressed message is in flight
// (exchange + decompress + accumulate), bucket b+1 is still being
// compressed — compute/communication overlap inside the exchange phase.
// The two stages touch disjoint state (bucket b's message/recon/avg
// slices vs bucket b+1's grad slice and codec), so the only
// synchronization needed is the parallel.Run join between pipeline
// steps. Every rank still averages the same p reconstructions of the
// same slices in the same order, so overlap is scheduling, not numerics.
//
// The barrier path also carries the sparse ring allreduce (with the
// MiCRO-style partitioner) and the MeasureAlpha side channel, neither of
// which has a failure-aware variant.

import (
	"fmt"
	"math"
	"sync"
	"time"

	"fftgrad/internal/collective"
	"fftgrad/internal/comm"
	"fftgrad/internal/compress"
	"fftgrad/internal/pack"
	"fftgrad/internal/parallel"
	"fftgrad/internal/sparsify"
	"fftgrad/internal/trace"
)

type barrier struct {
	cm *comm.Comm
	ex *collective.Exchanger
	pt *collective.Partitioner // sparse path, Partitioned only

	// MeasureAlpha state: raw-fp32 messages double-buffered like the
	// gradient messages, and root-only decode scratch.
	rawBufs          [2][]byte
	rawAvg, alphaTmp []float32
}

// runBarrier runs every rank over the in-process barrier collectives.
func runBarrier(cfg *Config) ([]*Result, []error) {
	p := cfg.Workers
	cl := comm.NewCluster(p)
	if cfg.Telemetry != nil {
		cl.Instrument(cfg.Telemetry)
	}
	cfg.instrument()
	results := make([]*Result, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		cfg.goRank(&wg, rank, func() {
			results[rank], errs[rank] = runRank(cfg, &barrier{cm: cl.Rank(rank)}, rank, p, 0, nil)
		})
	}
	wg.Wait()
	return results, errs
}

func (b *barrier) start(w *worker) {
	b.cm.AttachTrace(w.tc)
	// A nil Config is the flat ring.
	b.ex = collective.New(w.cfg.Collective, b.cm)
	if w.cfg.UseSparseAllreduce && w.col.Partitioned {
		b.pt = collective.NewPartitioner(w.p, w.rank, len(w.grad))
	}
}

func (b *barrier) admit(*worker, int) bool { return true }

func (b *barrier) epochEnd(*worker, int, int) {}

func (b *barrier) gradients(w *worker, r *round) error {
	if w.cfg.UseSparseAllreduce {
		b.sparse(w, r)
	} else if err := b.pipeline(w, r); err != nil {
		return err
	}
	if w.cfg.MeasureAlpha {
		return b.alpha(w, r.iter)
	}
	return nil
}

// pipeline runs the bucketed exchange for one iteration:
//
//	compress(0); for b: { exchange+decompress(b) ∥ compress(b+1) }
//
// An unbucketed run is the one-bucket case: compress, then exchange.
func (b *barrier) pipeline(w *worker, r *round) error {
	nb := w.bk.Count()
	if _, err := w.compress(0, r.iter&1, r.compressed); err != nil {
		return err
	}
	for k := 0; k+1 < nb; k++ {
		var exErr, cmpErr error
		parallel.Run(
			func() { exErr = b.exchange(w, r, k) },
			func() { _, cmpErr = w.compress(k+1, r.iter&1, r.compressed) },
		)
		if exErr != nil {
			return exErr
		}
		if cmpErr != nil {
			return cmpErr
		}
	}
	return b.exchange(w, r, nb-1)
}

// exchange allgathers bucket k's messages and folds them into avg.
func (b *barrier) exchange(w *worker, r *round, k int) error {
	var tB time.Time
	if w.tc != nil {
		tB = time.Now()
	}
	s := &w.stats[k]
	tEx := time.Now()
	msgs := b.ex.Allgather(w.msgs[r.iter&1][k])
	s.exD = time.Since(tEx)
	w.tc.SpanTimed(trace.OpExchange, int64(s.size), tEx, s.exD)
	if w.oc != nil {
		r.exchEndNs = w.oc.NowNs()
	}
	if err := w.fold(k, r.compressed, msgs, nil, w.p); err != nil {
		return err
	}
	if k == 0 && w.gs.driftDue(r.iter) && w.gs.checkDrift(msgs, nil) {
		r.driftHit = true
	}
	w.bucketSpan(k, tB)
	return nil
}

// sparse exchanges the gradient through the sparse ring allreduce: the
// collective itself is the compression, selecting at the θ in effect.
func (b *barrier) sparse(w *worker, r *round) {
	n := len(w.grad)
	s := &w.stats[0]
	t0 := time.Now()
	var sp *pack.Sparse
	if b.pt != nil {
		// MiCRO-style: select only inside this rank's rotating disjoint
		// partition; everything outside banks in the partitioner's
		// residual until ownership rotates around.
		sp = b.pt.Select(w.grad, r.theta, r.iter)
	} else {
		work := append(w.grad[:0:0], w.grad...)
		sp = pack.PackMask(work, sparsify.TopKSpatial(work, r.theta))
	}
	s.cmpD = time.Since(t0)
	w.tc.SpanTimed(trace.OpCompress, int64(n), t0, s.cmpD)

	tEx := time.Now()
	reduced, moved := b.ex.SparseAllreduce(sp)
	s.exD = time.Since(tEx)
	w.tc.SpanTimed(trace.OpExchange, int64(moved), tEx, s.exD)
	if w.oc != nil {
		r.exchEndNs = w.oc.NowNs()
	}

	t0 = time.Now()
	reduced.Unpack(w.avg)
	inv := 1 / float32(w.p)
	for i := range w.avg {
		w.avg[i] *= inv
	}
	s.decD = time.Since(t0)
	w.tc.SpanTimed(trace.OpDecompress, int64(n), t0, s.decD)
	// Per-rank sent volume normalized to an equivalent allgather message
	// so ratios stay comparable across exchange modes.
	s.size = moved / max(w.p-1, 1)
	s.max = s.size
}

// alpha additionally allgathers the raw FP32 gradients (off the timed
// path) and records the Assumption 3.2 constant α = ‖v̄−v̂̄‖/‖v̄‖ on the
// root. It is a measurement, not part of the guarded data plane, so the
// messages stay unframed.
func (b *barrier) alpha(w *worker, iter int) error {
	fp32 := compress.FP32{}
	rawMsg, err := fp32.AppendCompress(b.rawBufs[iter&1][:0], w.grad)
	if err != nil {
		return err
	}
	b.rawBufs[iter&1] = rawMsg
	raws := b.cm.Allgather(rawMsg)
	if w.isRoot {
		if b.rawAvg == nil {
			b.rawAvg = make([]float32, len(w.grad))
			b.alphaTmp = make([]float32, len(w.grad))
		}
		raw := b.rawAvg
		for i := range raw {
			raw[i] = 0
		}
		for _, m := range raws {
			if err := fp32.DecompressInto(b.alphaTmp, m); err != nil {
				return err
			}
			for i, v := range b.alphaTmp {
				raw[i] += v
			}
		}
		inv := 1 / float32(w.p)
		var num, den float64
		for i := range raw {
			raw[i] *= inv
			d := float64(raw[i] - w.avg[i])
			num += d * d
			den += float64(raw[i]) * float64(raw[i])
		}
		alpha := 0.0
		if den > 0 {
			alpha = math.Sqrt(num / den)
		}
		w.res.Alpha = append(w.res.Alpha, alpha)
	}
	// The root decodes the peers' buffers in place; hold everyone until
	// it is done.
	b.cm.Barrier()
	return nil
}

// sync re-broadcasts rank 0's parameters.
func (b *barrier) sync(w *worker, r *round) (int, error) {
	var payload []byte
	if w.isRoot {
		var err error
		if payload, err = w.encodeParams(); err != nil {
			return 0, err
		}
	}
	got := b.ex.Broadcast(payload, 0)
	if !w.isRoot {
		if err := compress.DecompressInto(w.syncCodec, w.syncFlat, got); err != nil {
			return 0, fmt.Errorf("sync decode: %w", err)
		}
		w.net.SetParams(w.syncFlat)
	}
	return 4 * len(w.grad), nil
}
