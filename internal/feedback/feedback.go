// Package feedback implements error-feedback (residual accumulation) on
// top of any gradient compressor.
//
// The paper notes (Sec. 5) that the heuristics Deep Gradient Compression
// uses to rescue vanilla Top-k — error accumulation and momentum
// correction — are "orthogonal to our methods and can also be applied to
// improve ours". This package is that extension: the compressor wrapper
// keeps the per-worker residual e_t = g_t + e_{t-1} − ĝ_t and folds it
// into the next iteration's gradient, so information dropped by
// sparsification is delayed rather than lost. Under the bounded-error
// Assumption 3.2 this restores convergence even for fixed aggressive θ.
package feedback

import (
	"fmt"
	"math"

	"fftgrad/internal/compress"
)

// Compressor wraps an inner compressor with error feedback. It is NOT
// safe for concurrent use: each training worker owns one instance (the
// residual is per-worker state, exactly as in DGC).
type Compressor struct {
	inner    compress.Compressor
	residual []float32
	carry    []float32 // scratch: g + residual
}

// New wraps inner with error feedback.
func New(inner compress.Compressor) *Compressor {
	return &Compressor{inner: inner}
}

// Name implements compress.Compressor.
func (c *Compressor) Name() string { return c.inner.Name() + "+ef" }

// Inner returns the wrapped compressor.
func (c *Compressor) Inner() compress.Compressor { return c.inner }

// SetTheta forwards to the inner compressor when it supports schedules.
func (c *Compressor) SetTheta(theta float64) {
	if ts, ok := c.inner.(compress.ThetaSetter); ok {
		ts.SetTheta(theta)
	}
}

// Theta reports the inner compressor's drop ratio, 0 when it has none.
func (c *Compressor) Theta() float64 {
	if t, ok := c.inner.(interface{ Theta() float64 }); ok {
		return t.Theta()
	}
	return 0
}

// Compress adds the accumulated residual to grad, compresses the sum with
// the inner compressor, and retains what the compression dropped as the
// next residual. grad is not modified.
func (c *Compressor) Compress(grad []float32) ([]byte, error) {
	n := len(grad)
	if c.residual == nil {
		c.residual = make([]float32, n)
		c.carry = make([]float32, n)
	}
	if len(c.residual) != n {
		return nil, fmt.Errorf("feedback: gradient length changed from %d to %d", len(c.residual), n)
	}
	for i := range c.carry {
		c.carry[i] = grad[i] + c.residual[i]
	}
	msg, err := c.inner.Compress(c.carry)
	if err != nil {
		return nil, err
	}
	// Residual = what the receiver will NOT see: carry − decode(msg).
	rec := make([]float32, n)
	if err := c.inner.Decompress(rec, msg); err != nil {
		return nil, err
	}
	for i := range c.residual {
		c.residual[i] = c.carry[i] - rec[i]
	}
	return msg, nil
}

// Decompress forwards to the inner compressor (reconstruction is
// stateless; the feedback lives entirely on the sender).
func (c *Compressor) Decompress(dst []float32, msg []byte) error {
	return c.inner.Decompress(dst, msg)
}

// AddToResidual folds g into the residual. The failure-aware trainer
// calls this with a gradient that was computed but never shipped (the
// rank crashed or was evicted before its exchange completed): instead of
// discarding the work, the information re-enters the stream on the next
// successful iteration, exactly like sparsification error under the
// Sec. 3.4 bounded-error assumption.
func (c *Compressor) AddToResidual(g []float32) {
	if c.residual == nil {
		c.residual = make([]float32, len(g))
		c.carry = make([]float32, len(g))
	}
	if len(c.residual) != len(g) {
		return
	}
	for i, v := range g {
		c.residual[i] += v
	}
}

// AddToResidualScaled folds scale·g into the residual — the
// staleness-discounted accumulation of the bounded-staleness mode. When
// a peer's d-iteration-old gradient is folded into a round with weight
// λ^d, the withheld (1−λ^d) share would otherwise leave the information
// stream entirely; each receiver banks its share of that mass here, so
// it re-enters through the next compressed message exactly like
// sparsification error under the Sec. 3.4 bounded-error assumption.
func (c *Compressor) AddToResidualScaled(g []float32, scale float32) {
	if scale == 0 {
		return
	}
	if c.residual == nil {
		c.residual = make([]float32, len(g))
		c.carry = make([]float32, len(g))
	}
	if len(c.residual) != len(g) {
		return
	}
	for i, v := range g {
		c.residual[i] += scale * v
	}
}

// ResidualNorm returns the L2 norm of the current residual — a direct
// measurement of how much information is in flight (deferred, not lost).
func (c *Compressor) ResidualNorm() float64 {
	var s float64
	for _, v := range c.residual {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Reset clears the residual (e.g. after a parameter re-broadcast if the
// caller wants strict BSP determinism across restarts).
func (c *Compressor) Reset() {
	for i := range c.residual {
		c.residual[i] = 0
	}
}
