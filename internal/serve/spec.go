// Package serve is the multi-tenant training job service: an HTTP/JSON
// control plane over a scheduler that admits jobs against a shared
// worker pool. Each submitted job is one dist.Job — the BSP-allreduce
// backend or the parameter-server backend, chosen per submission — wired
// with its own compression pipeline, integrity guard, chaos schedule,
// telemetry registry and trace ring, so tenants share the fleet but not
// their observability.
//
// The control plane mounts on the same mux as the trainer's telemetry
// endpoints (see Server.Routes); the merged /metrics view relabels every
// per-job registry with a job="<id>" pair so one Prometheus scrape
// distinguishes tenants.
package serve

import (
	"fmt"
	"time"

	"fftgrad/internal/chaos"
	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/dist"
	"fftgrad/internal/guard"
	"fftgrad/internal/models"
	"fftgrad/internal/netsim"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
	"fftgrad/internal/ps"
)

// Spec describes one training job: the JSON job submission, and what the
// trainer's command line compiles into. Every field is optional at
// submission, where zero values take the defaults noted inline, so `{}`
// is a valid two-worker BSP job with FFT compression. Config compiles a
// Spec as it stands, without defaults.
type Spec struct {
	Name     string `json:"name,omitempty"`
	Backend  string `json:"backend,omitempty"`  // "bsp" (default) or "ps"
	Priority int    `json:"priority,omitempty"` // higher admits first

	Workers int   `json:"workers,omitempty"` // default 2
	Batch   int   `json:"batch,omitempty"`   // default 16
	Epochs  int   `json:"epochs,omitempty"`  // default 2
	Seed    int64 `json:"seed,omitempty"`

	Model   string `json:"model,omitempty"`   // "mlp" (default) or "cnn"
	Classes int    `json:"classes,omitempty"` // default 4
	Samples int    `json:"samples,omitempty"` // default 2048 train samples

	Method string  `json:"method,omitempty"` // compressor name; default "fft"
	Theta  float64 `json:"theta,omitempty"`  // drop ratio; default 0.85

	LR        float64 `json:"lr,omitempty"`         // default 0.05
	Momentum  float64 `json:"momentum,omitempty"`   // default 0.9
	SyncEvery int     `json:"sync_every,omitempty"` // BSP re-broadcast period

	// Async selects asynchronous PS updates (ignored on BSP).
	Async bool `json:"async,omitempty"`

	// Collective selects the BSP exchange strategy: "ring" (default),
	// "hier" or "tree". GroupSize sets the hierarchical group width
	// (default 4); BucketBytes > 0 splits the gradient into fixed-byte
	// buckets compressed and exchanged as an overlapped pipeline.
	Collective  string `json:"collective,omitempty"`
	GroupSize   int    `json:"group_size,omitempty"`
	BucketBytes int    `json:"bucket_bytes,omitempty"`

	// Guard enables the data-plane integrity layer (CRC framing, scrub,
	// anomaly detector, drift checks). BSP only.
	Guard bool `json:"guard,omitempty"`
	// Fault routes the BSP exchange through the failure-aware cluster
	// runtime; implied by Chaos, Staleness, ElasticJoins, and the gossip
	// collective.
	Fault bool `json:"fault,omitempty"`
	// Chaos injects a deterministic fault schedule (BSP fault path).
	Chaos *ChaosSpec `json:"chaos,omitempty"`

	// Staleness > 0 selects the bounded-staleness exchange: workers may
	// run up to this many iterations ahead of the slowest live rank, and
	// a peer missing the round's grace budget contributes its freshest
	// cached gradient damped by StalenessDiscount^d.
	Staleness int `json:"staleness,omitempty"`
	// StalenessDiscount is the per-iteration damping factor λ ∈ (0,1]
	// for stale contributions; 0 defaults to 0.9.
	StalenessDiscount float64 `json:"staleness_discount,omitempty"`
	// ElasticJoins schedules brand-new ranks joining mid-run at the given
	// iterations. Each entry grows the job's worker quota by one slot,
	// reserved from submission time.
	ElasticJoins []int `json:"elastic_joins,omitempty"`

	// ResumeFrom names a checkpoint file (e.g. a drain spool entry) to
	// restore before training starts.
	ResumeFrom string `json:"resume_from,omitempty"`
}

// ChaosSpec mirrors the chaos.Config knobs a submission may set.
type ChaosSpec struct {
	Seed      int64   `json:"seed,omitempty"`
	Drop      float64 `json:"drop,omitempty"`
	DelayProb float64 `json:"delay_prob,omitempty"` // default 0.1 with delay_ms
	DelayMS   int     `json:"delay_ms,omitempty"`

	// CrashRank, when set, crashes that rank at CrashAtOp transport
	// operations (default 1200) and recovers it RecoverAfterOps later
	// (default 1000; Config compiles an explicit 0 as never) — the
	// kill-a-worker-mid-job scenario of the rejoin tests.
	CrashRank       *int   `json:"crash_rank,omitempty"`
	CrashAtOp       uint64 `json:"crash_at_op,omitempty"`
	RecoverAfterOps uint64 `json:"recover_after_ops,omitempty"`
}

// normalize fills the zero-means-default fields of a submission and
// applies the service's admission rules: the slot and epoch caps, and
// the features the parameter-server backend lacks. Whether the job
// itself is valid is for Config to say.
func (s *Spec) normalize() error {
	if s.Backend == "" {
		s.Backend = "bsp"
	}
	if s.Backend != "bsp" && s.Backend != "ps" {
		return fmt.Errorf("backend %q: want bsp or ps", s.Backend)
	}
	if s.Workers == 0 {
		s.Workers = 2
	}
	if s.Workers < 1 || s.Workers > 64 {
		return fmt.Errorf("workers %d out of range [1,64]", s.Workers)
	}
	if s.Batch == 0 {
		s.Batch = 16
	}
	if s.Batch < 1 {
		return fmt.Errorf("batch %d must be positive", s.Batch)
	}
	if s.Epochs == 0 {
		s.Epochs = 2
	}
	if s.Epochs < 1 || s.Epochs > 100 {
		return fmt.Errorf("epochs %d out of range [1,100]", s.Epochs)
	}
	if s.Model == "" {
		s.Model = "mlp"
	}
	if s.Classes == 0 {
		s.Classes = 4
	}
	if s.Samples == 0 {
		s.Samples = 2048
	}
	if s.Samples < s.Workers*s.Batch {
		return fmt.Errorf("samples %d too few for %d workers x batch %d", s.Samples, s.Workers, s.Batch)
	}
	if s.Method == "" {
		s.Method = "fft"
	}
	if s.Theta == 0 {
		s.Theta = 0.85
	}
	if s.LR == 0 {
		s.LR = 0.05
	}
	if s.Momentum == 0 {
		s.Momentum = 0.9
	}
	if s.Chaos != nil {
		c := *s.Chaos // the caller's ChaosSpec stays as submitted
		if c.DelayMS > 0 && c.DelayProb == 0 {
			c.DelayProb = 0.1
		}
		if c.CrashRank != nil {
			if c.CrashAtOp == 0 {
				c.CrashAtOp = 1200
			}
			if c.RecoverAfterOps == 0 {
				c.RecoverAfterOps = 1000
			}
		}
		s.Chaos = &c
	}
	if s.Backend == "ps" && (s.Guard || s.faultPath() || s.Collective != "" || s.BucketBytes != 0 || s.GroupSize != 0) {
		return fmt.Errorf("guard, fault, chaos, staleness, elastic joins and collective options require the bsp backend")
	}
	if s.Workers+len(s.ElasticJoins) > 64 {
		return fmt.Errorf("workers %d + %d elastic joins exceed the 64-slot cap", s.Workers, len(s.ElasticJoins))
	}
	return nil
}

// faultPath reports whether the job runs on the failure-aware cluster
// runtime — requested directly or implied by a feature that needs it
// (chaos, bounded staleness, elastic joins, gossip). A negative
// Staleness counts too, so that validation sees and rejects it.
func (s *Spec) faultPath() bool {
	return s.Fault || s.Chaos != nil || s.Staleness != 0 || len(s.ElasticJoins) > 0 ||
		s.Collective == string(collective.Gossip)
}

// collectiveConfig compiles the exchange-strategy fields into a
// collective.Config, or nil when the job keeps the flat default.
func (s *Spec) collectiveConfig() *collective.Config {
	if (s.Collective == "" || s.Collective == "ring") && s.BucketBytes == 0 {
		return nil
	}
	return &collective.Config{
		Strategy:    collective.Strategy(s.Collective),
		GroupSize:   s.GroupSize,
		BucketBytes: s.BucketBytes,
	}
}

// workload builds the dataset split and the model constructor.
func (s *Spec) workload() (train, test *data.Dataset, model func(int64) *nn.Network, err error) {
	classes := s.Classes
	switch s.Model {
	case "cnn":
		train, test = data.SynthImages(s.Samples+512, classes, 16, 0.3, s.Seed).Split(s.Samples)
		model = func(seed int64) *nn.Network { return models.TinyCNN(classes, 16, seed) }
	case "mlp":
		train, test = data.GaussianBlobs(s.Samples+512, classes, 24, 0.8, s.Seed).Split(s.Samples)
		model = func(seed int64) *nn.Network { return models.MLP(24, 48, classes, seed) }
	default:
		return nil, nil, nil, fmt.Errorf("model %q: want mlp or cnn", s.Model)
	}
	return train, test, model, nil
}

// codec returns the per-worker compressor factory.
func (s *Spec) codec() (func() compress.Compressor, error) {
	method, theta := s.Method, s.Theta
	if _, err := compress.New(method, theta); err != nil {
		return nil, err
	}
	return func() compress.Compressor {
		c, err := compress.New(method, theta)
		if err != nil {
			panic(err) // checked above
		}
		return c
	}, nil
}

// Config compiles the job into a BSP training config — dataset, model,
// codec factory, and the collective, guard and fault/chaos layers — and
// validates it. It fills no defaults: a zero field reaches the config as
// zero. On the fault path the dead-rank policy is left to the caller
// (Fault.Cluster.Policy; the cluster default is fail-fast).
func (s *Spec) Config() (dist.Config, error) {
	newComp, err := s.codec()
	if err != nil {
		return dist.Config{}, err
	}
	train, test, model, err := s.workload()
	if err != nil {
		return dist.Config{}, err
	}
	cfg := dist.Config{
		Workers:       s.Workers,
		Batch:         s.Batch,
		Epochs:        s.Epochs,
		Seed:          s.Seed,
		Momentum:      s.Momentum,
		LR:            optim.ConstLR(s.LR),
		SyncEvery:     s.SyncEvery,
		Model:         model,
		Train:         train,
		Test:          test,
		NewCompressor: newComp,
		Fabric:        netsim.CometCluster(),
		Collective:    s.collectiveConfig(),
	}
	if s.Guard {
		cfg.Guard = &guard.Config{CRC: true, Scrub: guard.ScrubClamp, Detect: true, DriftEvery: 50}
	}
	if s.faultPath() {
		// One cluster tuning for every in-process fault-path job: tight
		// heartbeats so failure detection and rejoin complete within a
		// short job, and deadlines long enough that a loaded machine's
		// scheduling delays are not mistaken for failures.
		cfg.Fault = &dist.FaultConfig{
			Cluster: cluster.Config{
				Heartbeat:    2 * time.Millisecond,
				SuspectAfter: 200 * time.Millisecond,
				BackoffBase:  2 * time.Millisecond,
				BackoffMax:   50 * time.Millisecond,
				MaxRetries:   8,
				MaxStall:     30 * time.Second,
				RejoinWait:   30 * time.Second,
				OnStraggler:  cluster.StragglerWait,
				Seed:         s.Seed,
			},
			Staleness:         s.Staleness,
			StalenessDiscount: s.StalenessDiscount,
			ElasticJoins:      s.ElasticJoins,
		}
		if c := s.Chaos; c != nil {
			cc := &chaos.Config{
				Seed:      c.Seed,
				Drop:      c.Drop,
				DelayProb: c.DelayProb,
				Delay:     time.Duration(c.DelayMS) * time.Millisecond,
			}
			if c.CrashRank != nil {
				cc.Crashes = []chaos.CrashEvent{{Rank: *c.CrashRank, AtOp: c.CrashAtOp, RecoverAfterOps: c.RecoverAfterOps}}
			}
			cfg.Fault.Chaos = cc
		}
	}
	if err := cfg.Validate(); err != nil {
		return dist.Config{}, err
	}
	return cfg, nil
}

// buildJob compiles a normalized submission into a runnable dist.Job on
// its backend.
func (s *Spec) buildJob() (dist.Job, error) {
	if s.Backend == "ps" {
		newComp, err := s.codec()
		if err != nil {
			return nil, err
		}
		train, test, model, err := s.workload()
		if err != nil {
			return nil, err
		}
		fabric := netsim.InfiniBandFDR
		cfg := ps.Config{
			Workers:       s.Workers,
			Batch:         s.Batch,
			Epochs:        s.Epochs,
			Seed:          s.Seed,
			Momentum:      s.Momentum,
			LR:            optim.ConstLR(s.LR),
			Model:         model,
			Train:         train,
			Test:          test,
			NewCompressor: newComp,
			Async:         s.Async,
			Fabric:        &fabric,
		}
		return cfg.NewJob(), nil
	}
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	if cfg.Fault != nil {
		// A service job rides out a dead rank on its last gradient.
		cfg.Fault.Cluster.Policy = cluster.StaleReuse
	}
	return cfg.NewJob(), nil
}
