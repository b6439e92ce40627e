package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// usage is the process's cumulative heap allocation and CPU time.
type usage struct{ allocMB, cpuS float64 }

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{allocMB: float64(ms.TotalAlloc) / (1 << 20), cpuS: math.NaN()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return u
}

func (u usage) since(prev usage) usage {
	return usage{allocMB: u.allocMB - prev.allocMB, cpuS: u.cpuS - prev.cpuS}
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
