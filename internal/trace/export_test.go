package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestMain pins the build identity the exporter stamps into metadata:
// the real values change with every commit and toolchain, which would
// make the golden files churn.
func TestMain(m *testing.M) {
	flag.Parse()
	buildVersion = func() string { return "test" }
	buildGo = func() string { return "gotest" }
	os.Exit(m.Run())
}

// buildDeterministic records a fixed timeline via raw ring appends (the
// Ctx API anchors on the wall clock, which would jitter a golden file):
// two ranks, two iterations of pipeline spans, plus cluster/guard
// instants. Timestamps are exact nanosecond literals.
func buildDeterministic() *Tracer {
	tr := New(2, 64)
	for iter := uint64(0); iter < 2; iter++ {
		base := int64(iter) * 10_000
		for rank := 0; rank < 2; rank++ {
			off := base + int64(rank)*50
			tr.put(int32(rank), OpCompute, iter, 16, off, 3000)
			tr.put(int32(rank), OpCompress, iter, 1024, off+3000, 1000)
			tr.put(int32(rank), OpExchange, iter, 1024, off+4000, 2000)
			tr.put(int32(rank), OpUpdate, iter, 16, off+6000, 500)
			tr.put(int32(rank), OpIteration, iter, 1024, off, 7000)
		}
	}
	tr.put(1, OpSuspect, 1, 0, 15_000, 0)
	tr.put(0, OpRollback, 1, 0, 15_500, 0)
	tr.put(0, OpFlightTrigger, 1, int64(ReasonRollback), 16_000, 0)
	return tr
}

func TestWriteJSONGolden(t *testing.T) {
	tr := buildDeterministic()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("export drifted from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestWriteJSONValid(t *testing.T) {
	tr := buildDeterministic()
	data, err := tr.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var meta, spans, instants int
	ranks := map[float64]bool{}
	for _, e := range events {
		switch e["ph"] {
		case "M":
			meta++
		case "X":
			spans++
			ranks[e["tid"].(float64)] = true
			if e["dur"] == nil || e["name"] == "" || e["cat"] == "" {
				t.Errorf("span missing fields: %v", e)
			}
		case "i":
			instants++
			if e["s"] != "t" {
				t.Errorf("instant missing scope: %v", e)
			}
		default:
			t.Errorf("unknown phase: %v", e)
		}
	}
	if meta != 4 { // process_name + fftgrad_build + 2 thread_name
		t.Errorf("got %d metadata events, want 4", meta)
	}
	if spans != 20 || instants != 3 {
		t.Errorf("got %d spans, %d instants; want 20, 3", spans, instants)
	}
	if !ranks[0] || !ranks[1] {
		t.Errorf("spans missing a rank track: %v", ranks)
	}
}

func TestNilTracerExport(t *testing.T) {
	var tr *Tracer
	data, err := tr.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("nil export is not valid JSON: %v", err)
	}
}

func TestHandler(t *testing.T) {
	tr := buildDeterministic()
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	var events []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatalf("handler body is not valid JSON: %v", err)
	}
}
