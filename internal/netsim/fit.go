package netsim

import "fmt"

// AllgatherObs is one measured ring allgather: n ranks each contributing
// m bytes took Seconds of wall time.
type AllgatherObs struct {
	N       int
	M       int
	Seconds float64
}

// FitAllgather least-squares fits a Profile to measured allgather times
// using the ring model t = (n−1)·L + (n−1)·m/B, which is linear in the
// unknowns L and 1/B. Observations must span at least two distinct
// (n, m) shapes or the system is singular. The fitted latency is clamped
// at zero (a small negative intercept is measurement noise, not physics).
func FitAllgather(obs []AllgatherObs) (Profile, error) {
	var a11, a12, a22, b1, b2 float64
	used := 0
	for _, o := range obs {
		if o.N <= 1 || o.M <= 0 || o.Seconds <= 0 {
			continue
		}
		s := float64(o.N - 1)
		sm := s * float64(o.M)
		a11 += s * s
		a12 += s * sm
		a22 += sm * sm
		b1 += s * o.Seconds
		b2 += sm * o.Seconds
		used++
	}
	if used < 2 {
		return Profile{}, fmt.Errorf("netsim: need at least 2 usable observations, have %d", used)
	}
	det := a11*a22 - a12*a12
	if det <= 0 || det < 1e-12*a11*a22 {
		return Profile{}, fmt.Errorf("netsim: observations are degenerate (all the same shape?)")
	}
	lat := (a22*b1 - a12*b2) / det
	invB := (a11*b2 - a12*b1) / det
	if invB <= 0 {
		return Profile{}, fmt.Errorf("netsim: fitted bandwidth is non-positive")
	}
	if lat < 0 {
		lat = 0
	}
	return Profile{Name: "fitted", Bandwidth: 1 / invB, Latency: lat}, nil
}

// TreeReduceObs is one measured binomial-tree reduction: n ranks reducing
// an m-byte buffer to a root took Seconds of wall time.
type TreeReduceObs struct {
	N       int
	M       int
	Seconds float64
}

// FitTreeReduce least-squares fits a Profile to measured tree-reduce
// times using t = r·L + r·m/B with r = ⌈log2 n⌉, linear in L and 1/B
// like FitAllgather. With both fits in hand, cmd/sweep can plot ring vs.
// tree vs. hierarchical predictions from the same measured fabric.
func FitTreeReduce(obs []TreeReduceObs) (Profile, error) {
	var a11, a12, a22, b1, b2 float64
	used := 0
	for _, o := range obs {
		if o.N <= 1 || o.M <= 0 || o.Seconds <= 0 {
			continue
		}
		r := float64(log2ceil(o.N))
		rm := r * float64(o.M)
		a11 += r * r
		a12 += r * rm
		a22 += rm * rm
		b1 += r * o.Seconds
		b2 += rm * o.Seconds
		used++
	}
	if used < 2 {
		return Profile{}, fmt.Errorf("netsim: need at least 2 usable observations, have %d", used)
	}
	det := a11*a22 - a12*a12
	if det <= 0 || det < 1e-12*a11*a22 {
		return Profile{}, fmt.Errorf("netsim: observations are degenerate (all the same shape?)")
	}
	lat := (a22*b1 - a12*b2) / det
	invB := (a11*b2 - a12*b1) / det
	if invB <= 0 {
		return Profile{}, fmt.Errorf("netsim: fitted bandwidth is non-positive")
	}
	if lat < 0 {
		lat = 0
	}
	return Profile{Name: "fitted-tree", Bandwidth: 1 / invB, Latency: lat}, nil
}
