package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteMergedJSONGolden pins the multi-process merged export: the
// deterministic two-rank timeline, with rank 1's +50ns recording skew
// handed in as a clock offset, must render byte-for-byte as committed.
func TestWriteMergedJSONGolden(t *testing.T) {
	tr := buildDeterministic()
	var buf bytes.Buffer
	if err := tr.WriteMergedJSON(&buf, []int64{0, 50}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_merged.json")
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
		t.Errorf("merged export drifted from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestWriteMergedJSONStructure checks the merged view's invariants
// without pinning bytes: one process per rank, offsets actually applied
// (rank 1's spans land on rank 0's timestamps after the +50ns shift),
// and a build stamp present.
func TestWriteMergedJSONStructure(t *testing.T) {
	tr := buildDeterministic()
	var buf bytes.Buffer
	if err := tr.WriteMergedJSON(&buf, []int64{0, 50}); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("merged export is not valid JSON: %v", err)
	}
	procs := map[float64]string{}
	spanTS := map[float64]map[float64]bool{} // pid -> set of span ts
	build := false
	for _, e := range events {
		switch e["ph"] {
		case "M":
			switch e["name"] {
			case "process_name":
				args := e["args"].(map[string]any)
				procs[e["pid"].(float64)] = args["name"].(string)
			case "fftgrad_build":
				args := e["args"].(map[string]any)
				if args["version"] == "test" && args["go"] == "gotest" {
					build = true
				}
			}
		case "X":
			pid := e["pid"].(float64)
			if spanTS[pid] == nil {
				spanTS[pid] = map[float64]bool{}
			}
			spanTS[pid][e["ts"].(float64)] = true
		}
	}
	if !build {
		t.Error("merged export missing the pinned build stamp")
	}
	if len(procs) != 2 || !strings.HasPrefix(procs[1], "rank 0") || !strings.HasPrefix(procs[2], "rank 1") {
		t.Errorf("want one process per rank, got %v", procs)
	}
	// After subtracting rank 1's +50ns skew both ranks recorded identical
	// span starts, so their aligned timestamp sets must coincide.
	for ts := range spanTS[1] {
		if !spanTS[2][ts] {
			t.Errorf("rank 1 missing aligned span at ts=%v after offset correction", ts)
		}
	}
}

// TestDroppedAccounting: a ring of capacity 8 that absorbs 11 events has
// lost exactly 3 to wraparound, and the merged export flags the rank as
// incomplete.
func TestDroppedAccounting(t *testing.T) {
	tr := New(2, 8)
	for i := 0; i < 11; i++ {
		tr.put(0, OpCompute, uint64(i), 0, int64(i)*1000, 100)
	}
	tr.put(1, OpCompute, 0, 0, 0, 100)
	if got := tr.Dropped(0); got != 3 {
		t.Errorf("Dropped(0) = %d, want 3", got)
	}
	if got := tr.Dropped(1); got != 0 {
		t.Errorf("Dropped(1) = %d, want 0", got)
	}
	if got := tr.DroppedTotal(); got != 3 {
		t.Errorf("DroppedTotal() = %d, want 3", got)
	}
	if tr.Dropped(-1) != 0 || tr.Dropped(99) != 0 || (*Tracer)(nil).Dropped(0) != 0 {
		t.Error("out-of-range/nil Dropped must be 0")
	}

	var buf bytes.Buffer
	if err := tr.WriteMergedJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"labels":"incomplete: dropped 3 events"`) {
		t.Error("merged export did not flag the wrapped rank as incomplete")
	}
}
