package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec mirrors BENCHMARK.json, the one place metric names, units,
// directions and bounds are declared. The program emits exactly the
// metrics the file lists, so the two cannot drift apart.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 || len(s.Workloads) == 0 {
		return nil, fmt.Errorf("%s: workloads, end_to_end and per_layer must all be non-empty", path)
	}
	return &s, nil
}

// metricValue is one emitted metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit builds the result's metric map: every metric the spec lists for
// this pass (end-to-end untraced, per-layer traced), with its declared
// unit. A listed metric the run did not compute is a bug in the harness.
// What the run computed beyond the list comes back as extra, with the
// unit the other list declares for it.
func (s *benchSpec) emit(traced bool, values map[string]float64) (listed, extra map[string]metricValue, err error) {
	list, other := s.EndToEnd, s.PerLayer
	if traced {
		list, other = other, list
	}
	listed = make(map[string]metricValue, len(list))
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s is declared in the spec but was not computed", m.Name)
		}
		listed[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	extra = make(map[string]metricValue)
	for _, m := range other {
		if v, ok := values[m.Name]; ok {
			extra[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	return listed, extra, nil
}
