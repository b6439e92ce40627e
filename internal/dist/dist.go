// Package dist implements Bulk Synchronous Parallel data-parallel SGD
// with pluggable gradient compression — the training harness of the
// paper's evaluation (Sec. 4).
//
// Per iteration, every worker: computes a local sub-gradient on its data
// shard, linearizes it, compresses it, allgathers everyone's compressed
// messages (the paper uses allgather for *all* algorithms, including the
// lossless baseline, because sparse allreduce does not exist in MPI/NCCL),
// decompresses and averages all p messages, and applies an identical SGD
// update. Parameters are re-broadcast from rank 0 every SyncEvery
// iterations to eliminate floating-point drift.
//
// One iteration pipeline runs every rank (loop.go) over one of two
// exchangers: the barrier collectives (barrier.go: ring, hierarchical or
// tree allgather, bucketed compute/comm overlap, sparse allreduce) or,
// with Config.Fault, the failure-aware mesh (mesh.go: degradation
// policies, crash and rejoin, bounded staleness, gossip, elastic joins).
// The two change how messages and parameters travel, never the
// arithmetic: a fault-free mesh run is bit-identical to the barrier run.
//
// Compute and compression are measured on the actual CPU; communication is
// priced through a netsim fabric model at the real message sizes — the
// substitution that stands in for the paper's 8-GPU InfiniBand testbed
// (see DESIGN.md).
package dist

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"fftgrad/internal/adapt"
	"fftgrad/internal/checkpoint"
	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/guard"
	"fftgrad/internal/nn"
	"fftgrad/internal/obs"
	"fftgrad/internal/optim"
	"fftgrad/internal/sparsify"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// Fabric prices collectives; netsim.Profile and netsim.Hierarchical both
// satisfy it.
type Fabric interface {
	// Allgather returns the seconds to allgather m bytes per rank across
	// n ranks.
	Allgather(n, m int) float64
	// Broadcast returns the seconds to broadcast m bytes to n ranks.
	Broadcast(n, m int) float64
}

// Config describes one distributed training run.
type Config struct {
	Workers       int
	Batch         int // per-worker batch size
	Epochs        int
	ItersPerEpoch int // 0 = one pass over each worker's shard
	Seed          int64

	Momentum float64 // 0 means no momentum; the paper uses 0.9
	LR       optim.LRSchedule

	// ThetaSchedule, when non-nil, drives the drop ratio of compressors
	// implementing compress.ThetaSetter at every epoch boundary.
	ThetaSchedule sparsify.Schedule

	// SyncEvery is the parameter re-broadcast period in iterations
	// (default 10, as in the paper).
	SyncEvery int

	Model func(seed int64) *nn.Network
	Train *data.Dataset
	Test  *data.Dataset

	// NewCompressor builds one compressor instance per worker.
	NewCompressor func() compress.Compressor

	// UseSparseAllreduce exchanges gradients through the sparse ring
	// allreduce (comm.SparseAllreduce) instead of allgathering compressed
	// messages — the collective the paper's conclusion calls for. In this
	// mode gradients are sparsified spatially at SparseTheta (driven by
	// ThetaSchedule when set) and NewCompressor is ignored: the collective
	// itself is the compression. Numerically this matches Top-k +
	// allgather: both average the same sparsified vectors.
	UseSparseAllreduce bool
	// SparseTheta is the drop ratio for the sparse-allreduce path.
	SparseTheta float64

	// Fabric prices communication. Nil disables the timing model.
	Fabric Fabric

	// Collective selects the exchange strategy (ring, hierarchical or
	// binomial tree), gradient bucketing with compute/comm overlap, and
	// MiCRO-style partitioned selection on the sparse path. Nil keeps the
	// flat ring exchange. On the barrier path the strategy reschedules the
	// real collectives; on the Fault path the point-to-point mesh keeps
	// per-peer delivery and the strategy prices the modeled collectives
	// only, while bucketing still splits the exchange into per-bucket
	// rounds (see DESIGN.md Sec. 12).
	Collective *collective.Config

	// Telemetry, when non-nil, receives live metrics for the run:
	// bytes-on-wire counters on the in-process transport, per-stage
	// pipeline throughput gauges (the Sec. 3.3 Tm/Tf/Tp/Ts terms), and —
	// when Adapt is set — the controller's decision gauges. A final
	// Snapshot lands in Result.Telemetry. All hot-path updates are
	// atomics; exposition is cold.
	Telemetry *telemetry.Registry

	// Adapt, when non-nil, is consulted every iteration: the controller
	// folds the live-measured stage throughputs and the effective
	// exchange rate into the Sec. 3.3 model and may bypass compression
	// to FP32 when no ratio is beneficial (re-enabling when the model
	// flips back), and may suggest θ adjustments (composing with
	// ThetaSchedule, which still runs first). Ignored when
	// UseSparseAllreduce is set — that exchange has no per-message
	// compressor to bypass.
	Adapt *adapt.Controller

	// stageTimer is the shared per-stage timer threaded into every
	// worker's compressor and the exchange loop; derived from Adapt or
	// Telemetry in Train.
	stageTimer *telemetry.StageTimer

	// MeasureAlpha additionally allgathers raw FP32 gradients each
	// iteration (excluded from timing) to measure the Assumption 3.2
	// constant α = ‖v̄−v̂̄‖/‖v̄‖ (Fig. 12).
	MeasureAlpha bool

	// SampleGradients, when > 0, stores rank-0's raw flat gradient every
	// SampleGradients iterations (for the histogram experiments).
	SampleGradients int

	// Tracer, when non-nil, records the full iteration lifecycle on
	// per-rank timeline tracks (internal/trace): compute, scrub, the
	// compressor's internal stage spans, exchange with per-peer sub-spans
	// on the cluster path, decompress, update and sync, plus cluster and
	// guard incidents as instant markers. Nil keeps tracing off with zero
	// hot-path cost — the barrier path's output is bit-identical either
	// way.
	Tracer *trace.Tracer

	// Flight, when non-nil, dumps Tracer's last-N-iteration timeline to
	// disk the moment a guard rollback, quorum loss, chaos crash window
	// or worker panic fires (see trace.FlightRecorder).
	Flight *trace.FlightRecorder

	// Profiler, when non-nil, receives one obs.IterRecord per rank per
	// iteration — the cross-rank iteration profiler (internal/obs): clock
	// alignment for merged timelines, per-iteration critical paths with
	// the straggler blame ledger, and the EWMA anomaly engine. The only
	// hot-path touch is RankCtx.Commit (zero allocations); training output
	// is bit-identical with or without it. On the Fault path the committed
	// records carry the cluster's in-exchange straggler attribution
	// (ExchangeResult.SlowestPeer/WaitNs).
	Profiler *obs.Profiler

	// CheckpointEvery, when > 0, invokes OnCheckpoint with rank-0's
	// captured state every CheckpointEvery epochs. The callback runs on
	// the worker goroutine; keep it fast or hand off.
	CheckpointEvery int
	OnCheckpoint    func(*checkpoint.State)

	// Resume, when non-nil, restores parameters and optimizer momentum on
	// every worker before training starts (kill-and-resume).
	Resume *checkpoint.State

	// Stop, when non-nil, requests a cooperative halt once closed: the
	// first rank to observe it proposes the next iteration boundary as
	// the halt point, every rank stops there in agreement (see haltCheck
	// for why the vote cannot deadlock the collectives), rank 0 captures
	// a final checkpoint into Result.Final, and Train returns with
	// Result.Halted set — not an error. This is how the job service
	// cancels and drains running jobs.
	Stop <-chan struct{}

	// OnEpoch, when non-nil, is invoked on rank 0 at every epoch
	// boundary with that epoch's statistics — the live progress stream
	// of a service job. Runs on the worker goroutine; keep it fast.
	OnEpoch func(EpochStats)

	// CaptureFinal asks rank 0 to capture the end-of-run parameter and
	// optimizer state into Result.Final even when the run completes
	// normally (a halted run always captures one).
	CaptureFinal bool

	// haltAt is the agreed halt boundary (MaxUint64 = none); allocated
	// in withDefaults when Stop is set, shared by every worker.
	haltAt *atomic.Uint64

	// Fault, when non-nil, routes the gradient exchange through the
	// failure-aware cluster runtime (internal/cluster) instead of the
	// barrier-based collectives: heartbeats, bounded retry, straggler
	// and dead-rank degradation policies, and checkpoint-based rejoin.
	// Optionally injects a deterministic chaos schedule. Mutually
	// exclusive with UseSparseAllreduce and MeasureAlpha.
	Fault *FaultConfig

	// Guard, when non-nil and enabled, activates the data-plane
	// integrity layer (internal/guard): CRC32C wire framing (rejected
	// before decompression, repaired via nack/resend under Fault),
	// pre-compress NaN/Inf scrubbing, the EWMA gradient-norm anomaly
	// detector with its clip → skip → rollback escalation, and periodic
	// cross-rank parameter-fingerprint drift detection with forced
	// re-sync. The same Config must reach every rank (it defines the
	// wire format); with healthy gradients the guards are bit-exact
	// pure overhead. Incompatible with UseSparseAllreduce.
	Guard *guard.Config

	// guardStats is the run-wide shared guard accounting; created in
	// withDefaults when Guard is enabled.
	guardStats *guard.Stats
}

// EpochStats records per-epoch training progress.
type EpochStats struct {
	Epoch     int
	TrainLoss float64 // mean rank-0 shard loss over the epoch
	TestAcc   float64 // top-1 accuracy on the test set (rank 0)
	// Theta is the drop ratio in effect: the ThetaSchedule's value (as
	// adjusted by Adapt), else the codec's own θ (SparseTheta on the
	// sparse path), else 0 — the codec has no drop ratio.
	Theta float64
	LR    float64
}

// Result aggregates a full run.
type Result struct {
	Epochs      []EpochStats
	Alpha       []float64   // per-iteration α when MeasureAlpha
	GradSamples [][]float32 // raw gradient snapshots when SampleGradients > 0

	GradSize         int     // flat gradient length
	Iterations       int     // total iterations executed
	AvgMsgBytes      float64 // mean compressed message size
	CompressionRatio float64

	ComputeSeconds  float64 // measured forward+backward+update (rank 0)
	CompressSeconds float64 // measured compress+decompress (rank 0)
	CommSeconds     float64 // modeled via Fabric (0 if Fabric nil)
	// CommMeasuredSeconds is the summed measured wall time of the
	// gradient exchanges on rank 0 (obs.IterRecord.ExchangeNs). On the
	// in-process transport that is barrier wait plus copy time, not a
	// fabric stand-in.
	CommMeasuredSeconds float64
	// BypassedIterations counts iterations the adapt controller decided
	// to ship uncompressed.
	BypassedIterations int
	// Telemetry is the end-of-run snapshot of Config.Telemetry (nil when
	// no registry was supplied).
	Telemetry telemetry.Snapshot
	// Fault is the fault-tolerance accounting of a Config.Fault run (nil
	// otherwise): retries, suspicions, degraded iterations, rejoins,
	// injected chaos counts, and permanently lost workers.
	Fault *FaultReport
	// Guard is the integrity-layer accounting of a Config.Guard run (nil
	// otherwise): corrupt frames rejected, values scrubbed, anomalies
	// and the escalation actions taken, drift checks and forced re-syncs.
	Guard *guard.Report
	// Halted reports that Config.Stop ended the run early at an agreed
	// iteration boundary.
	Halted bool
	// Final is rank-0's end-of-run checkpoint: always captured when the
	// run halted, and on normal completion when Config.CaptureFinal or
	// Config.Stop was set.
	Final *checkpoint.State
}

// add folds rank 0's record of one iteration into the measured totals.
func (r *Result) add(rec *obs.IterRecord) {
	r.Iterations++
	r.ComputeSeconds += float64(rec.ComputeNs+rec.UpdateNs) / 1e9
	r.CompressSeconds += float64(rec.CompressNs+rec.DecompressNs) / 1e9
	r.CommMeasuredSeconds += float64(rec.ExchangeNs) / 1e9
}

// ModeledWallSeconds returns the end-to-end modeled wall time: measured
// compute and compression plus modeled communication.
func (r *Result) ModeledWallSeconds() float64 {
	return r.ComputeSeconds + r.CompressSeconds + r.CommSeconds
}

// Throughput returns modeled training throughput in samples/second for
// the given per-worker batch size and worker count.
func (r *Result) Throughput(workers, batch int) float64 {
	w := r.ModeledWallSeconds()
	if w <= 0 {
		return 0
	}
	return float64(r.Iterations*workers*batch) / w
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Batch < 1 {
		cfg.Batch = 32
	}
	if cfg.Epochs < 1 {
		cfg.Epochs = 1
	}
	if cfg.SyncEvery < 1 {
		cfg.SyncEvery = 10
	}
	if cfg.LR == nil {
		cfg.LR = optim.ConstLR(0.01)
	}
	if cfg.NewCompressor == nil {
		cfg.NewCompressor = func() compress.Compressor { return compress.FP32{} }
	}
	if cfg.ItersPerEpoch == 0 {
		shard := cfg.Train.Len() / cfg.Workers
		cfg.ItersPerEpoch = shard / cfg.Batch
		if cfg.ItersPerEpoch < 1 {
			cfg.ItersPerEpoch = 1
		}
	}
	if cfg.Collective != nil {
		cc := cfg.Collective.WithDefaults()
		cfg.Collective = &cc
	}
	if cfg.Guard != nil {
		if cfg.Guard.Enabled() {
			g := cfg.Guard.WithDefaults()
			cfg.Guard = &g
			cfg.guardStats = &guard.Stats{}
		} else {
			cfg.Guard = nil
		}
	}
	if cfg.Stop != nil {
		cfg.haltAt = new(atomic.Uint64)
		cfg.haltAt.Store(math.MaxUint64)
	}
	return cfg
}

// haltCheck runs at the top of every iteration and reports whether the
// agreed halt boundary has been reached. The first rank to observe the
// closed Stop channel at the top of iteration i proposes halting before
// iteration i+1 (CAS-min, earliest proposal wins). This cannot deadlock
// the collectives: when a rank is at the top of iteration i, no peer can
// have passed its own top-of-loop check for iteration i+1 — exiting the
// iteration-i exchange requires every rank (including this one) to have
// entered it first — so by the time any rank loads haltAt for its
// iteration-i+1 check, the barrier's happens-before edge has published
// the proposal and all ranks stop at the same boundary. On the
// fault-aware path a straggler can lag several iterations behind the
// proposer; it stops as soon as its own check reaches the boundary, and
// the degradation policies cover the rounds in between exactly as they
// cover any other absentee.
func (c *Config) haltCheck(iter int) bool {
	if c.haltAt == nil {
		return false
	}
	if uint64(iter) >= c.haltAt.Load() {
		return true
	}
	select {
	case <-c.Stop:
		want := uint64(iter) + 1
		for {
			cur := c.haltAt.Load()
			if cur <= want || c.haltAt.CompareAndSwap(cur, want) {
				break
			}
		}
		return uint64(iter) >= c.haltAt.Load()
	default:
	}
	return false
}

// finalState captures rank-0's end-of-run checkpoint when the config
// asked for one (explicitly, or implicitly by being stoppable).
func (c *Config) finalState(res *Result, net *nn.Network, sgd *optim.SGD) {
	if !c.CaptureFinal && c.Stop == nil {
		return
	}
	done := int64(res.Iterations)
	res.Final = checkpoint.Capture(net, sgd, done/int64(c.ItersPerEpoch), done-1)
}

// Validate rejects option combinations no exchanger implements. Train
// runs it; a caller that compiles a Config ahead of the run (the job
// service at submission) runs it too, to fail early.
func (c *Config) Validate() error {
	if c.Guard != nil && c.UseSparseAllreduce {
		return fmt.Errorf("dist: Guard requires the compressed-message exchange; disable UseSparseAllreduce")
	}
	if col := c.Collective; col != nil {
		if err := col.Validate(); err != nil {
			return fmt.Errorf("dist: %w", err)
		}
		if col.BucketBytes > 0 && c.UseSparseAllreduce {
			return fmt.Errorf("dist: BucketBytes applies to the compressed-message exchange; disable UseSparseAllreduce")
		}
		if col.Strategy == collective.Gossip && c.Fault == nil {
			return fmt.Errorf("dist: the gossip strategy is decentralized averaging over the failure-aware mesh; set Fault")
		}
	}
	f := c.Fault
	if f == nil {
		return nil
	}
	if c.UseSparseAllreduce {
		return fmt.Errorf("dist: Fault and UseSparseAllreduce are mutually exclusive (the ring collective has no failure-aware variant yet)")
	}
	if c.MeasureAlpha {
		return fmt.Errorf("dist: MeasureAlpha requires the barrier-based exchange; disable Fault")
	}
	if f.Staleness < 0 {
		return fmt.Errorf("dist: negative Fault.Staleness %d", f.Staleness)
	}
	if l := f.StalenessDiscount; l < 0 || l > 1 {
		return fmt.Errorf("dist: Fault.StalenessDiscount %v outside (0,1]", l)
	}
	for _, at := range f.ElasticJoins {
		if at < 0 {
			return fmt.Errorf("dist: negative ElasticJoins iteration %d", at)
		}
	}
	return nil
}

// instrument registers the run's shared observability on the telemetry
// registry, after the exchanger's transport registered its own.
func (c *Config) instrument() {
	if c.Telemetry == nil {
		return
	}
	c.Tracer.Instrument(c.Telemetry)
	c.Profiler.Instrument(c.Telemetry)
	c.stageTimer.Register(c.Telemetry)
	if c.Adapt != nil {
		c.Adapt.Register(c.Telemetry)
	}
	if c.guardStats != nil {
		c.guardStats.Register(c.Telemetry)
	}
}

// goRank runs fn on its own goroutine under wg. A panic dumps the
// timeline before it propagates: the flight recording is the postmortem
// for exactly this.
func (c *Config) goRank(wg *sync.WaitGroup, rank int, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				c.Flight.Trigger(rank, trace.ReasonPanic)
				panic(r)
			}
		}()
		fn()
	}()
}

// Train runs BSP data-parallel training and returns rank-0's statistics.
func Train(c Config) (*Result, error) {
	if c.Model == nil || c.Train == nil {
		return nil, fmt.Errorf("dist: Model and Train dataset are required")
	}
	cfg := c.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// One stage timer is shared by every worker's compressor and the
	// exchange loop; the adapt controller reads it, the registry (if any)
	// exposes it.
	if cfg.Adapt != nil {
		cfg.stageTimer = cfg.Adapt.StageTimer()
	} else if cfg.Telemetry != nil {
		cfg.stageTimer = telemetry.NewStageTimer()
	}

	var results []*Result
	var errs []error
	var report *FaultReport
	if cfg.Fault != nil {
		results, errs, report = runMesh(&cfg)
	} else {
		results, errs = runBarrier(&cfg)
	}
	for rank, err := range errs {
		if err == nil {
			continue
		}
		if report != nil && rank != 0 && lostWorker(err) {
			report.LostWorkers++
			continue
		}
		// Terminal failure (quorum loss, fail-fast, stall, or losing the
		// bookkeeping root): dump the timeline before surfacing the error —
		// the last N iterations are exactly the postmortem evidence.
		if errors.Is(err, cluster.ErrNoQuorum) {
			cfg.Flight.Trigger(rank, trace.ReasonNoQuorum)
		} else {
			cfg.Flight.Trigger(rank, trace.ReasonFailure)
		}
		return nil, err
	}
	res := results[0]
	res.Fault = report
	if cfg.Telemetry != nil {
		res.Telemetry = cfg.Telemetry.Snapshot()
	}
	if cfg.guardStats != nil {
		rep := cfg.guardStats.Report()
		if report != nil {
			rep.CorruptFrames = report.Cluster.CorruptFrames
		}
		res.Guard = &rep
	}
	return res, nil
}

// evaluate computes top-1 accuracy over the full test set in eval mode.
func evaluate(net *nn.Network, test *data.Dataset, batch int) float64 {
	correct := 0.0
	total := 0
	idx := make([]int, 0, batch)
	for s := 0; s < test.Len(); s += batch {
		idx = idx[:0]
		for j := s; j < s+batch && j < test.Len(); j++ {
			idx = append(idx, j)
		}
		x, labels := test.Batch(idx)
		logits := net.Forward(x, false)
		correct += nn.Accuracy(logits, labels) * float64(len(idx))
		total += len(idx)
	}
	if total == 0 {
		return 0
	}
	return correct / float64(total)
}
