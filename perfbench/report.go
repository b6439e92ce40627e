package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// report collects one run's outcome: operation counts, failures and the
// metrics the workload produced.
type report struct {
	attempted, failed int
	problems          []string
	e2eVals           map[string]metric
	layerVals         map[string]metric
	notes             []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{e2eVals: map[string]metric{}, layerVals: map[string]metric{}}
}

func (r *report) e2e(name string, v float64, unit string)      { r.e2eVals[name] = metric{v, unit} }
func (r *report) perLayer(name string, v float64, unit string) { r.layerVals[name] = metric{v, unit} }

// tail reports the q-quantile of xs as a per-layer metric, with a note
// when fewer than ten samples lie beyond it.
func (r *report) tail(name string, xs []float64, q float64) {
	if beyond := (1 - q) * float64(len(xs)); beyond < 10 {
		r.note("%s: only %.0f of %d samples lie beyond it", name, beyond, len(xs))
	}
	r.perLayer(name, quantile(xs, q), "ms")
}

func (r *report) fail(format string, args ...any) { r.failN(1, format, args...) }

func (r *report) failN(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// spec is the part of BENCHMARK.json the program needs: which metrics to
// print, with their units.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// result renders the final JSON line. Traced runs print every per-layer
// metric (0 for a layer the workload does not have); untraced runs print
// every end-to-end metric, and a missing or non-finite one is a failure.
func (r *report) result(s *spec, traced bool) map[string]any {
	want, have := s.EndToEnd, r.e2eVals
	if traced {
		r.perLayer("error_rate", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
		want, have = s.PerLayer, r.layerVals
	}
	out := map[string]metric{}
	for _, m := range want {
		v, ok := have[m.Name]
		switch {
		case !ok && traced:
			v = metric{0, m.Unit}
		case !ok:
			r.fail("metric %s not measured", m.Name)
			v = metric{0, m.Unit}
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			r.fail("metric %s is %v", m.Name, v.Value)
			v.Value = 0
		case v.Unit != m.Unit:
			r.fail("metric %s measured in %s, declared in %s", m.Name, v.Unit, m.Unit)
		}
		out[m.Name] = v
	}
	var extra []string
	for name := range have {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		r.note("measured but not declared in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": max(r.attempted, r.failed, 1),
		"failed":    r.failed,
		"metrics":   out,
	}
}
