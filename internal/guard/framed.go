package guard

import (
	"fftgrad/internal/telemetry"
)

// Inner is the compressor shape Framed wraps. It is declared locally
// (structurally identical to compress.Compressor) so that guard does
// not import internal/compress — which lets the compress package's own
// fuzz tests import guard and fuzz the framed decoder without an import
// cycle.
type Inner interface {
	Name() string
	Compress(grad []float32) ([]byte, error)
	Decompress(dst []float32, msg []byte) error
}

// Optional inner capabilities, forwarded when present. These mirror
// compress.Appender, compress.IntoDecompressor, compress.ThetaSetter and
// its Theta getter, compress.Instrumentable and feedback's residual sink.
type (
	appender interface {
		AppendCompress(dst []byte, grad []float32) ([]byte, error)
	}
	intoDecompressor interface {
		DecompressInto(dst []float32, msg []byte) error
	}
	thetaSetter    interface{ SetTheta(theta float64) }
	thetaGetter    interface{ Theta() float64 }
	instrumentable interface {
		Instrument(st *telemetry.StageTimer)
	}
	residualSink       interface{ AddToResidual(g []float32) }
	scaledResidualSink interface {
		AddToResidualScaled(g []float32, scale float32)
	}
)

// Framed wraps a compressor so every message it emits carries the guard
// frame header and every message it decodes is integrity-checked before
// the inner decoder sees a single payload byte. The frame is built in
// place around the inner compressor's append path, so a zero-alloc
// inner round trip stays zero-alloc with CRC framing on.
//
// Framed is per-rank state (the pending fingerprint is one-shot
// per-message), like the compressors it wraps.
type Framed struct {
	inner Inner
	crc   bool

	fp    uint64
	hasFP bool
}

// NewFramed wraps inner; withCRC selects whether frames carry a CRC32C
// or just the versioned header (fingerprints can ride either way).
func NewFramed(inner Inner, withCRC bool) *Framed {
	return &Framed{inner: inner, crc: withCRC}
}

// Inner returns the wrapped compressor.
func (f *Framed) Inner() Inner { return f.inner }

// Name implements compress.Compressor.
func (f *Framed) Name() string {
	if f.crc {
		return f.inner.Name() + "+crc"
	}
	return f.inner.Name() + "+frame"
}

// SetNextFingerprint attaches fp to the next compressed message (one
// shot). dist calls this on drift-check iterations so the fingerprint
// rides the existing gradient exchange instead of a second collective.
func (f *Framed) SetNextFingerprint(fp uint64) {
	f.fp, f.hasFP = fp, true
}

// AppendCompress implements compress.Appender: header, then the inner
// compressor's payload appended in place, then the CRC patched in.
func (f *Framed) AppendCompress(dst []byte, grad []float32) ([]byte, error) {
	start := len(dst)
	dst = appendHeader(dst, f.crc, f.fp, f.hasFP)
	f.hasFP = false
	var err error
	if a, ok := f.inner.(appender); ok {
		dst, err = a.AppendCompress(dst, grad)
	} else {
		var msg []byte
		msg, err = f.inner.Compress(grad)
		dst = append(dst, msg...)
	}
	if err != nil {
		return dst[:start], err
	}
	return sealFrame(dst, start), nil
}

// Compress implements compress.Compressor.
func (f *Framed) Compress(grad []float32) ([]byte, error) {
	return f.AppendCompress(nil, grad)
}

// DecompressInto implements compress.IntoDecompressor. The integrity
// check runs first: a corrupt frame returns an error wrapping
// comm.ErrCorrupt and the inner decoder never sees the payload.
func (f *Framed) DecompressInto(dst []float32, msg []byte) error {
	payload, err := Unframe(msg)
	if err != nil {
		return err
	}
	if d, ok := f.inner.(intoDecompressor); ok {
		return d.DecompressInto(dst, payload)
	}
	return f.inner.Decompress(dst, payload)
}

// Decompress implements compress.Compressor.
func (f *Framed) Decompress(dst []float32, msg []byte) error {
	return f.DecompressInto(dst, msg)
}

// SetTheta forwards to the inner compressor when it is tunable.
func (f *Framed) SetTheta(theta float64) {
	if t, ok := f.inner.(thetaSetter); ok {
		t.SetTheta(theta)
	}
}

// Theta reports the inner compressor's drop ratio, 0 when it has none.
func (f *Framed) Theta() float64 {
	if t, ok := f.inner.(thetaGetter); ok {
		return t.Theta()
	}
	return 0
}

// Instrument forwards stage-timer instrumentation to the inner
// compressor.
func (f *Framed) Instrument(st *telemetry.StageTimer) {
	if i, ok := f.inner.(instrumentable); ok {
		i.Instrument(st)
	}
}

// AddToResidual forwards to the inner error-feedback residual when the
// inner compressor keeps one (unshipped gradients must not be lost).
func (f *Framed) AddToResidual(g []float32) {
	if r, ok := f.inner.(residualSink); ok {
		r.AddToResidual(g)
	}
}

// AddToResidualScaled forwards the bounded-staleness damping remainder
// to the inner error-feedback residual when the inner compressor keeps
// one.
func (f *Framed) AddToResidualScaled(g []float32, scale float32) {
	if r, ok := f.inner.(scaledResidualSink); ok {
		r.AddToResidualScaled(g, scale)
	}
}
