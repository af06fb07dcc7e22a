package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// payload is everything a workload's generator hands the program, as bytes.
func payload(t *testing.T, w *workload, seed int64) []byte {
	t.Helper()
	in, err := w.gen(seed, 40)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := json.Marshal(in.preload)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(pre)
	for _, b := range in.stream {
		buf.WriteString(b.key)
		buf.Write(b.body)
	}
	return buf.Bytes()
}

func TestGeneratorsAreSeeded(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			a, b, c := payload(t, w, 7), payload(t, w, 7), payload(t, w, 8)
			if !bytes.Equal(a, b) {
				t.Error("the same seed gave different payloads")
			}
			if bytes.Equal(a, c) {
				t.Error("different seeds gave identical payloads")
			}
		})
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the metrics and workloads this
// program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, the program reports %s/%s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloads[i].name)
		}
	}
}
