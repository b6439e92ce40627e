package feedback

import (
	"fmt"

	"fftgrad/internal/compress"
)

// MomentumCorrected implements DGC-style momentum correction: classical
// momentum is applied *before* sparsification, and the residual keeps the
// post-momentum update, so delayed gradient mass arrives already shaped
// by the momentum dynamics instead of being amplified by the optimizer's
// momentum afterwards:
//
//	u_t = m·u_{t-1} + g_t          (local velocity)
//	v_t = v_{t-1} + u_t            (accumulated update)
//	send  ĝ_t = C(v_t);   v_t ← v_t − ĝ_t
//
// When this wrapper is used, the trainer's optimizer must run WITHOUT its
// own momentum (the velocity lives here) — see TestMomentumCorrectedTrains.
type MomentumCorrected struct {
	inner compress.Compressor
	m     float64
	u, v  []float32
}

// NewMomentumCorrected wraps inner with momentum correction at momentum m.
func NewMomentumCorrected(inner compress.Compressor, m float64) *MomentumCorrected {
	return &MomentumCorrected{inner: inner, m: m}
}

// Name implements compress.Compressor.
func (c *MomentumCorrected) Name() string { return c.inner.Name() + "+mc" }

// SetTheta forwards to the inner compressor when it supports schedules.
func (c *MomentumCorrected) SetTheta(theta float64) {
	if ts, ok := c.inner.(compress.ThetaSetter); ok {
		ts.SetTheta(theta)
	}
}

// Theta reports the inner compressor's drop ratio, 0 when it has none.
func (c *MomentumCorrected) Theta() float64 {
	if t, ok := c.inner.(interface{ Theta() float64 }); ok {
		return t.Theta()
	}
	return 0
}

// Compress implements compress.Compressor. grad is not modified.
func (c *MomentumCorrected) Compress(grad []float32) ([]byte, error) {
	n := len(grad)
	if c.u == nil {
		c.u = make([]float32, n)
		c.v = make([]float32, n)
	}
	if len(c.u) != n {
		return nil, fmt.Errorf("feedback: gradient length changed from %d to %d", len(c.u), n)
	}
	m := float32(c.m)
	for i := range c.u {
		c.u[i] = m*c.u[i] + grad[i]
		c.v[i] += c.u[i]
	}
	msg, err := c.inner.Compress(c.v)
	if err != nil {
		return nil, err
	}
	rec := make([]float32, n)
	if err := c.inner.Decompress(rec, msg); err != nil {
		return nil, err
	}
	for i := range c.v {
		c.v[i] -= rec[i]
	}
	return msg, nil
}

// Decompress implements compress.Compressor.
func (c *MomentumCorrected) Decompress(dst []float32, msg []byte) error {
	return c.inner.Decompress(dst, msg)
}
