package netsim

import (
	"math"
	"testing"
)

func TestFitAllgatherRecoversProfile(t *testing.T) {
	truth := Ethernet1G
	var obs []AllgatherObs
	for _, n := range []int{2, 4, 8} {
		for _, m := range []int{1 << 12, 1 << 16, 1 << 20} {
			obs = append(obs, AllgatherObs{N: n, M: m, Seconds: truth.Allgather(n, m)})
		}
	}
	got, err := FitAllgather(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Bandwidth-truth.Bandwidth)/truth.Bandwidth > 1e-6 {
		t.Errorf("bandwidth = %v, want %v", got.Bandwidth, truth.Bandwidth)
	}
	if math.Abs(got.Latency-truth.Latency)/truth.Latency > 1e-6 {
		t.Errorf("latency = %v, want %v", got.Latency, truth.Latency)
	}
}

func TestFitAllgatherDegenerate(t *testing.T) {
	// All observations the same shape: singular normal equations.
	obs := []AllgatherObs{
		{N: 4, M: 1 << 16, Seconds: 0.01},
		{N: 4, M: 1 << 16, Seconds: 0.011},
	}
	if _, err := FitAllgather(obs); err == nil {
		t.Fatal("degenerate observations should not fit")
	}
	if _, err := FitAllgather(nil); err == nil {
		t.Fatal("no observations should not fit")
	}
}

// TestFitTreeReduceRecoversProfile: exact model-generated tree-reduce
// observations must recover the generating profile.
func TestFitTreeReduceRecoversProfile(t *testing.T) {
	truth := Ethernet10G
	var obs []TreeReduceObs
	for _, n := range []int{2, 8, 64, 1024} {
		for _, m := range []int{1 << 10, 1 << 16, 1 << 22} {
			obs = append(obs, TreeReduceObs{N: n, M: m, Seconds: truth.TreeReduce(n, m)})
		}
	}
	got, err := FitTreeReduce(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Bandwidth-truth.Bandwidth)/truth.Bandwidth > 1e-6 {
		t.Errorf("bandwidth = %v, want %v", got.Bandwidth, truth.Bandwidth)
	}
	if math.Abs(got.Latency-truth.Latency)/truth.Latency > 1e-6 {
		t.Errorf("latency = %v, want %v", got.Latency, truth.Latency)
	}
	if _, err := FitTreeReduce(obs[:1]); err == nil {
		t.Error("single observation should fail to fit")
	}
	same := []TreeReduceObs{{N: 8, M: 1 << 20, Seconds: 1}, {N: 8, M: 1 << 20, Seconds: 1.1}}
	if _, err := FitTreeReduce(same); err == nil {
		t.Error("degenerate observations should fail to fit")
	}
}
