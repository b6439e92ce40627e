package main

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"time"

	"fftgrad/internal/compress"
	"fftgrad/internal/nn"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/tensor"
)

// The probes measure the program from outside: a timing decorator around
// each replica's top-level nn.Layers, built inside Config.Model, and one
// around its compress.Compressor, built inside Config.NewCompressor.
// Untraced, only layer 0 is wrapped and it only stamps the start of each
// iteration (its Forward entry). Traced, every layer and the codec record
// their time and a span.

// Span kinds, in Chrome-trace naming order.
const (
	kindIter = iota
	kindFwd
	kindBwd
	kindCompress
	kindDecompress
)

type span struct {
	kind  uint8
	layer int16
	iter  int32
	start int64 // ns since the probe set's base
	dur   int64
}

// maxSpans bounds the spans one replica keeps in memory for the trace
// file; aggregates keep counting past it.
const maxSpans = 1 << 15

// replica is one model replica's probe state. Only the replica's worker
// goroutine touches it while dist.Train runs (the codec decorator binds
// to the replica built on its own goroutine), and Train's return orders
// those writes before the caller reads them.
type replica struct {
	id     int
	traced bool
	base   time.Time
	warmup int

	iter   int     // index of the iteration in progress (-1 before the first)
	starts []int64 // iteration start stamps, ns since base
	names  []string

	// Traced aggregates over iterations >= warmup.
	fwdNs, bwdNs    []int64 // per top-level layer
	compressNs      int64
	decompressNs    int64
	compressCalls   int
	decompressCalls int
	msgBytes        int64
	aggIters        int
	spans           []span
	droppedSpans    int
}

func (r *replica) now() int64 { return int64(time.Since(r.base)) }

func (r *replica) beginIter() {
	t := r.now()
	if r.traced && r.iter >= 0 {
		prev := r.starts[len(r.starts)-1]
		r.addSpan(kindIter, -1, r.iter, prev, t-prev)
	}
	r.iter++
	r.starts = append(r.starts, t)
	if r.traced && r.iter >= r.warmup {
		r.aggIters++
	}
}

func (r *replica) measuring() bool { return r.iter >= r.warmup }

func (r *replica) addSpan(kind uint8, layer, iter int, start, dur int64) {
	if len(r.spans) >= maxSpans {
		r.droppedSpans++
		return
	}
	r.spans = append(r.spans, span{kind: kind, layer: int16(layer), iter: int32(iter), start: start, dur: dur})
}

// timedLayer decorates one top-level layer. It embeds the layer, so Name
// and Params are the layer's own and the network is unchanged apart from
// the clock reads.
type timedLayer struct {
	nn.Layer
	r   *replica
	idx int
}

func (l *timedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if l.idx == 0 {
		l.r.beginIter()
	}
	if !l.r.traced {
		return l.Layer.Forward(x, train)
	}
	t0 := l.r.now()
	y := l.Layer.Forward(x, train)
	l.r.record(kindFwd, l.idx, t0)
	return y
}

func (l *timedLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if !l.r.traced {
		return l.Layer.Backward(dy)
	}
	t0 := l.r.now()
	dx := l.Layer.Backward(dy)
	l.r.record(kindBwd, l.idx, t0)
	return dx
}

func (r *replica) record(kind uint8, layer int, t0 int64) {
	d := r.now() - t0
	if !r.measuring() {
		return
	}
	switch kind {
	case kindFwd:
		r.fwdNs[layer] += d
	case kindBwd:
		r.bwdNs[layer] += d
	}
	r.addSpan(kind, layer, r.iter, t0, d)
}

// probeSet hands out replicas as dist.Train builds models, and binds each
// codec decorator to the replica built on the same goroutine.
type probeSet struct {
	traced bool
	warmup int
	base   time.Time

	mu       sync.Mutex
	replicas []*replica
	byG      map[uint64]*replica
	built    time.Time // when the most recent replica finished building
}

func newProbeSet(traced bool, warmup int) *probeSet {
	return &probeSet{traced: traced, warmup: warmup, base: time.Now(), byG: map[uint64]*replica{}}
}

// wrapModel returns a Config.Model func that decorates build's networks.
func (ps *probeSet) wrapModel(build func(int64) *nn.Network) func(int64) *nn.Network {
	return func(seed int64) *nn.Network {
		net := build(seed)
		r := &replica{traced: ps.traced, base: ps.base, warmup: ps.warmup, iter: -1}
		wrapped := net.Layers[:1]
		if ps.traced {
			wrapped = net.Layers
			r.fwdNs = make([]int64, len(net.Layers))
			r.bwdNs = make([]int64, len(net.Layers))
		}
		for _, l := range net.Layers {
			r.names = append(r.names, l.Name())
		}
		for i := range wrapped {
			wrapped[i] = &timedLayer{Layer: wrapped[i], r: r, idx: i}
		}
		ps.mu.Lock()
		r.id = len(ps.replicas)
		ps.replicas = append(ps.replicas, r)
		ps.byG[goid()] = r
		ps.built = time.Now()
		ps.mu.Unlock()
		return net
	}
}

// wrapCodec returns a Config.NewCompressor func that decorates mk's
// compressors (traced runs only).
func (ps *probeSet) wrapCodec(mk func() compress.Compressor) func() compress.Compressor {
	return func() compress.Compressor { return &timedCodec{inner: mk(), ps: ps} }
}

func (ps *probeSet) replicaOfCaller() *replica {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.byG[goid()]
}

// goid returns the calling goroutine's id. Replicas and their codecs are
// built and driven on one worker goroutine per rank, in an order dist
// does not promise across ranks; the id is the link, read once per codec.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// timedCodec decorates a compressor. It implements every optional
// interface the program type-asserts and forwards each to the inner
// compressor when that implements it; where the inner one does not, the
// fallback does exactly what the program does for a compressor without
// it (the plain Compress/Decompress path, or nothing).
type timedCodec struct {
	inner compress.Compressor
	ps    *probeSet
	r     *replica
}

func (c *timedCodec) replica() *replica {
	if c.r == nil {
		c.r = c.ps.replicaOfCaller()
	}
	return c.r
}

func (c *timedCodec) Name() string { return c.inner.Name() }

func (c *timedCodec) Compress(grad []float32) ([]byte, error) {
	t0 := time.Now()
	msg, err := c.inner.Compress(grad)
	c.observeCompress(t0, len(msg))
	return msg, err
}

func (c *timedCodec) Decompress(dst []float32, msg []byte) error {
	t0 := time.Now()
	err := c.inner.Decompress(dst, msg)
	c.observeDecompress(t0)
	return err
}

func (c *timedCodec) AppendCompress(dst []byte, grad []float32) ([]byte, error) {
	t0 := time.Now()
	n0 := len(dst)
	out, err := compress.AppendCompress(c.inner, dst, grad)
	c.observeCompress(t0, len(out)-n0)
	return out, err
}

func (c *timedCodec) DecompressInto(dst []float32, msg []byte) error {
	t0 := time.Now()
	err := compress.DecompressInto(c.inner, dst, msg)
	c.observeDecompress(t0)
	return err
}

func (c *timedCodec) SetTheta(theta float64) {
	if ts, ok := c.inner.(compress.ThetaSetter); ok {
		ts.SetTheta(theta)
	}
}

func (c *timedCodec) Instrument(st *telemetry.StageTimer) { compress.Instrument(c.inner, st) }

func (c *timedCodec) AddToResidual(g []float32) {
	if s, ok := c.inner.(interface{ AddToResidual([]float32) }); ok {
		s.AddToResidual(g)
	}
}

func (c *timedCodec) AddToResidualScaled(g []float32, scale float32) {
	if s, ok := c.inner.(interface{ AddToResidualScaled([]float32, float32) }); ok {
		s.AddToResidualScaled(g, scale)
	}
}

func (c *timedCodec) observeCompress(t0 time.Time, n int) {
	d := time.Since(t0).Nanoseconds()
	r := c.replica()
	if r == nil || !r.measuring() {
		return
	}
	r.compressNs += d
	r.compressCalls++
	r.msgBytes += int64(n)
	r.addSpan(kindCompress, -1, r.iter, int64(t0.Sub(r.base)), d)
}

func (c *timedCodec) observeDecompress(t0 time.Time) {
	d := time.Since(t0).Nanoseconds()
	r := c.replica()
	if r == nil || !r.measuring() {
		return
	}
	r.decompressNs += d
	r.decompressCalls++
	r.addSpan(kindDecompress, -1, r.iter, int64(t0.Sub(r.base)), d)
}
