package guard

import (
	"errors"
	"math"
	"testing"

	"fftgrad/internal/comm"
	"fftgrad/internal/telemetry"
)

// rawCodec is a minimal inner compressor for the Framed tests: float32
// little-endian, no compression.
type rawCodec struct{}

func (rawCodec) Name() string { return "raw" }
func (rawCodec) Compress(grad []float32) ([]byte, error) {
	out := make([]byte, 4*len(grad))
	for i, v := range grad {
		putU32(out[4*i:], math.Float32bits(v))
	}
	return out, nil
}
func (rawCodec) Decompress(dst []float32, msg []byte) error {
	if len(msg) != 4*len(dst) {
		return errors.New("raw: length mismatch")
	}
	for i := range dst {
		dst[i] = math.Float32frombits(getU32(msg[4*i:]))
	}
	return nil
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte{0, 1, 2, 3, 250, 251, 252, 253}
	for _, withCRC := range []bool{false, true} {
		msg := AppendFrame(nil, payload, withCRC)
		if err := Verify(msg); err != nil {
			t.Fatalf("crc=%v: verify fresh frame: %v", withCRC, err)
		}
		got, err := Unframe(msg)
		if err != nil {
			t.Fatalf("crc=%v: unframe: %v", withCRC, err)
		}
		if string(got) != string(payload) {
			t.Fatalf("crc=%v: payload mangled: %v", withCRC, got)
		}
		if _, ok := PeekFingerprint(msg); ok {
			t.Fatalf("crc=%v: fingerprint reported on a frame without one", withCRC)
		}
	}
}

func TestFrameFingerprint(t *testing.T) {
	const fp uint64 = 0xDEADBEEFCAFEF00D
	msg := AppendFrameFP(nil, []byte("grad"), true, fp)
	if err := Verify(msg); err != nil {
		t.Fatal(err)
	}
	got, ok := PeekFingerprint(msg)
	if !ok || got != fp {
		t.Fatalf("PeekFingerprint = %#x, %v; want %#x, true", got, ok, fp)
	}
	payload, err := Unframe(msg)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "grad" {
		t.Fatalf("payload = %q", payload)
	}
}

// TestFrameDetectsEveryBitFlip is the wire-integrity core: for a flip
// of any single bit anywhere in the frame — header, fingerprint, or
// payload — either the frame is rejected with comm.ErrCorrupt, or the
// flip provably changed nothing the receiver consumes (the payload and
// fingerprint decode bit-exact). Single-bit flips are exactly the
// corruption model the chaos harness injects, so no flip may yield an
// altered gradient.
func TestFrameDetectsEveryBitFlip(t *testing.T) {
	payload := []byte("the averaged gradient of iteration 42")
	const fp uint64 = 0x0123456789ABCDEF
	msg := AppendFrameFP(nil, payload, true, fp)
	if err := Verify(msg); err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < len(msg)*8; bit++ {
		bad := append([]byte(nil), msg...)
		bad[bit/8] ^= 1 << (bit % 8)
		err := Verify(bad)
		if err != nil {
			if !errors.Is(err, comm.ErrCorrupt) {
				t.Fatalf("flip of bit %d: error %v does not wrap comm.ErrCorrupt", bit, err)
			}
			continue
		}
		// Undetected: only acceptable when the decode is unaltered.
		got, uerr := Unframe(bad)
		if uerr != nil {
			t.Fatalf("flip of bit %d: Verify passed but Unframe failed: %v", bit, uerr)
		}
		if string(got) != string(payload) {
			t.Fatalf("flip of bit %d silently altered the payload", bit)
		}
		if gfp, ok := PeekFingerprint(bad); !ok || gfp != fp {
			t.Fatalf("flip of bit %d silently altered the fingerprint", bit)
		}
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	for _, msg := range [][]byte{
		nil,
		{},
		{0x47},
		{0x47, 0x46, 1},                         // shorter than header
		{0x00, 0x00, 1, 0, 0, 0, 0, 0},          // bad magic
		{0x47, 0x46, 9, 0, 0, 0, 0, 0},          // unknown version
		{0x47, 0x46, 1, flagFP, 0, 0, 0, 0, 1},  // truncated fingerprint
		{0x47, 0x46, 1, flagCRC, 1, 2, 3, 4, 5}, // wrong crc
	} {
		if err := Verify(msg); !errors.Is(err, comm.ErrCorrupt) {
			t.Errorf("Verify(%v) = %v, want comm.ErrCorrupt", msg, err)
		}
	}
	// A CRC-less frame with valid magic/version passes: integrity is
	// opt-in per frame.
	if err := Verify([]byte{0x47, 0x46, 1, 0, 0, 0, 0, 0}); err != nil {
		t.Errorf("minimal valid frame rejected: %v", err)
	}
}

func TestFramedCompressor(t *testing.T) {
	f := NewFramed(rawCodec{}, true)
	if f.Name() != "raw+crc" {
		t.Fatalf("Name = %q", f.Name())
	}
	grad := []float32{1, -2, 3.5, 0}
	msg, err := f.Compress(grad)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(msg); err != nil {
		t.Fatalf("framed message fails Verify: %v", err)
	}
	dst := make([]float32, len(grad))
	if err := f.Decompress(dst, msg); err != nil {
		t.Fatal(err)
	}
	for i := range grad {
		if dst[i] != grad[i] {
			t.Fatalf("round trip mismatch at %d: %v != %v", i, dst[i], grad[i])
		}
	}

	// A flipped payload bit must surface as comm.ErrCorrupt from the
	// decoder, before the inner codec sees the payload.
	bad := append([]byte(nil), msg...)
	bad[len(bad)-1] ^= 0x10
	if err := f.Decompress(dst, bad); !errors.Is(err, comm.ErrCorrupt) {
		t.Fatalf("corrupt framed message: err = %v, want comm.ErrCorrupt", err)
	}
}

func TestFramedFingerprintOneShot(t *testing.T) {
	f := NewFramed(rawCodec{}, true)
	grad := []float32{1, 2}
	f.SetNextFingerprint(77)
	msg1, err := f.Compress(grad)
	if err != nil {
		t.Fatal(err)
	}
	if fp, ok := PeekFingerprint(msg1); !ok || fp != 77 {
		t.Fatalf("first message fingerprint = %d, %v; want 77, true", fp, ok)
	}
	msg2, err := f.Compress(grad)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := PeekFingerprint(msg2); ok {
		t.Fatal("fingerprint leaked onto the second message")
	}
	// Fingerprinted and plain frames both decode.
	dst := make([]float32, 2)
	for _, m := range [][]byte{msg1, msg2} {
		if err := f.Decompress(dst, m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFrameAppendZeroAlloc(t *testing.T) {
	payload := make([]byte, 1024)
	buf := make([]byte, 0, 4096)
	var msg []byte
	allocs := testing.AllocsPerRun(100, func() {
		msg = AppendFrameFP(buf[:0], payload, true, 42)
		if err := Verify(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := Unframe(msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("frame+verify+unframe allocates %.2f allocs/op, want 0", allocs)
	}
}

func TestFingerprint(t *testing.T) {
	a := []float32{0.5, -1.25, 3e-9, 42}
	b := append([]float32(nil), a...)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("identical parameter vectors hash differently")
	}
	b[2] = math.Nextafter32(b[2], 1)
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("one-ulp divergence not reflected in the fingerprint")
	}
	if Fingerprint(nil) != Fingerprint([]float32{}) {
		t.Fatal("empty vectors hash differently")
	}
}

func TestScrubClamp(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	g := []float32{1, nan, -inf, 2, inf}
	scrubbed, skip := Scrub(g, ScrubClamp, 0)
	if skip {
		t.Fatal("clamp must never skip")
	}
	if scrubbed != 3 {
		t.Fatalf("scrubbed = %d, want 3", scrubbed)
	}
	if g[1] != 0 {
		t.Fatalf("NaN → %v, want 0", g[1])
	}
	if g[2] != -math.MaxFloat32 || g[4] != math.MaxFloat32 {
		t.Fatalf("Inf clamp wrong: %v, %v", g[2], g[4])
	}
	if g[0] != 1 || g[3] != 2 {
		t.Fatal("healthy values modified")
	}
}

func TestScrubClampLimit(t *testing.T) {
	g := []float32{5, -5, 0.5, float32(math.Inf(1))}
	scrubbed, _ := Scrub(g, ScrubClamp, 2)
	if scrubbed != 3 {
		t.Fatalf("scrubbed = %d, want 3", scrubbed)
	}
	want := []float32{2, -2, 0.5, 2}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("g[%d] = %v, want %v", i, g[i], want[i])
		}
	}
}

func TestScrubHealthyIsUntouched(t *testing.T) {
	g := []float32{1, -0.25, 1e30, -1e-30, 0}
	orig := append([]float32(nil), g...)
	for _, p := range []ScrubPolicy{ScrubClamp, ScrubSkip} {
		scrubbed, skip := Scrub(g, p, 0)
		if scrubbed != 0 || skip {
			t.Fatalf("%v flagged a healthy gradient (%d, %v)", p, scrubbed, skip)
		}
		for i := range g {
			if g[i] != orig[i] {
				t.Fatalf("%v modified healthy value %d", p, i)
			}
		}
	}
}

func TestScrubSkip(t *testing.T) {
	nan := float32(math.NaN())
	g := []float32{1, nan, 2}
	scrubbed, skip := Scrub(g, ScrubSkip, 0)
	if !skip || scrubbed != 1 {
		t.Fatalf("skip = %v, scrubbed = %d; want true, 1", skip, scrubbed)
	}
	// Skip leaves g untouched — the caller zeroes its shipped copy and
	// the residual keeps the original.
	if g[0] != 1 || !math.IsNaN(float64(g[1])) || g[2] != 2 {
		t.Fatalf("ScrubSkip modified the gradient: %v", g)
	}
}

// feed pushes n healthy samples around base so the detector warms up.
func feed(d *Detector, base float64, n int) {
	for i := 0; i < n; i++ {
		jitter := 1 + 0.02*float64(i%5-2)
		if a, _ := d.Observe(base * jitter); a != ActionNone {
			panic("healthy warmup sample flagged")
		}
	}
}

func TestDetectorEscalationLadder(t *testing.T) {
	cfg := Config{Detect: true, SkipAfter: 2, RollbackAfter: 4}.WithDefaults()
	d := NewDetector(cfg)
	feed(d, 10, 40)

	burst := 1e6
	var got []Action
	for i := 0; i < 6; i++ {
		a, scale := d.Observe(burst)
		got = append(got, a)
		if a == ActionClip && (scale <= 0 || scale >= 1) {
			t.Fatalf("clip scale = %v, want in (0,1)", scale)
		}
	}
	want := []Action{ActionClip, ActionClip, ActionSkip, ActionSkip, ActionRollback, ActionClip}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder step %d = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestDetectorRecovers(t *testing.T) {
	d := NewDetector(Config{Detect: true}.WithDefaults())
	feed(d, 10, 40)
	if a, _ := d.Observe(1e6); a != ActionClip {
		t.Fatalf("first anomaly = %v, want clip", a)
	}
	// A healthy sample resets the consecutive counter.
	if a, _ := d.Observe(10); a != ActionNone {
		t.Fatal("healthy sample after anomaly still flagged")
	}
	if a, _ := d.Observe(1e6); a != ActionClip {
		t.Fatal("ladder did not reset after recovery")
	}
}

func TestDetectorNonFinite(t *testing.T) {
	d := NewDetector(Config{Detect: true}.WithDefaults())
	feed(d, 10, 40)
	// Non-finite norms are not clippable: the ladder starts at skip.
	if a, _ := d.Observe(math.NaN()); a != ActionSkip {
		t.Fatalf("NaN norm = %v, want skip", a)
	}
	if a, _ := d.Observe(math.Inf(1)); a != ActionSkip {
		t.Fatalf("Inf norm = %v, want skip", a)
	}
	if !math.IsInf(d.Z(), 1) {
		t.Fatalf("Z after non-finite = %v, want +Inf", d.Z())
	}
}

func TestDetectorWarmupAbsorbs(t *testing.T) {
	d := NewDetector(Config{Detect: true, Warmup: 20}.WithDefaults())
	// Wild swings inside the warmup window must not trigger anything.
	for i, norm := range []float64{1, 100, 3, 50, 0.1, 80} {
		if a, _ := d.Observe(norm); a != ActionNone {
			t.Fatalf("warmup sample %d flagged %v", i, a)
		}
	}
}

func TestDetectorReset(t *testing.T) {
	d := NewDetector(Config{Detect: true}.WithDefaults())
	feed(d, 10, 40)
	d.Observe(math.NaN())
	d.Reset()
	if d.Z() != 0 {
		t.Fatal("Reset did not clear the z-score")
	}
	if a, _ := d.Observe(1e6); a != ActionNone {
		t.Fatal("first post-reset sample should re-seed the baseline")
	}
}

func TestConfigPredicates(t *testing.T) {
	if (Config{}).Enabled() || (Config{}).Framing() {
		t.Fatal("zero config must be fully off")
	}
	if !(Config{CRC: true}).Framing() || !(Config{DriftEvery: 10}).Framing() {
		t.Fatal("CRC and drift both require framing")
	}
	if (Config{Scrub: ScrubClamp}).Framing() {
		t.Fatal("scrub alone must not force framing")
	}
	for _, c := range []Config{{CRC: true}, {Scrub: ScrubSkip}, {Detect: true}, {DriftEvery: 5}} {
		if !c.Enabled() {
			t.Fatalf("%+v should count as enabled", c)
		}
	}
	d := Config{Detect: true}.WithDefaults()
	if d.ZThreshold <= 0 || d.SkipAfter <= 0 || d.RollbackAfter <= d.SkipAfter || d.Warmup <= 0 || d.RetainEvery <= 0 || d.RetainK <= 0 {
		t.Fatalf("WithDefaults left gaps: %+v", d)
	}
}

func TestStatsReportAndRegister(t *testing.T) {
	var s Stats
	reg := telemetry.NewRegistry()
	s.Register(reg) // before SetZ — the z gauge exists only once registered
	s.AddScrubbed(3)
	s.AddSkippedGrad()
	s.AddAnomaly()
	s.AddClip()
	s.AddSkippedUpdate()
	s.AddRollback()
	s.AddDriftCheck()
	s.AddDriftResync()
	s.SetZ(2.5)
	rep := s.Report()
	if rep.ScrubbedValues != 3 || rep.SkippedGradients != 1 || rep.Anomalies != 1 ||
		rep.Clips != 1 || rep.SkippedUpdates != 1 || rep.Rollbacks != 1 ||
		rep.DriftChecks != 1 || rep.DriftResyncs != 1 {
		t.Fatalf("report mismatch: %+v", rep)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"fftgrad_guard_scrubbed_values": 3,
		"fftgrad_guard_anomalies":       1,
		"fftgrad_guard_rollbacks":       1,
		"fftgrad_guard_drift_resyncs":   1,
		"fftgrad_guard_norm_z":          2.5,
	} {
		if snap[name] != want {
			t.Errorf("%s = %v, want %v", name, snap[name], want)
		}
	}
}
