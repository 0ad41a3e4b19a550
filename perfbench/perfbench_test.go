package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
)

// weatherInputs builds the weather workload's inputs once per test binary.
var weatherInputs = sync.OnceValues(func() (*inputs, error) { return buildWeather(7, "") })

func mustWeatherInputs(t *testing.T) *inputs {
	t.Helper()
	in, err := weatherInputs()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json and the metric
// and workload tables the program reports from in step.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndDefs))
	}
	maxBound := 0.0
	for i, m := range spec.EndToEnd {
		if d := endToEndDefs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %g is not the largest (%g)", m.Bound, maxBound)
		}
	}
	if len(spec.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerDefs))
	}
	for i, m := range spec.PerLayer {
		if d := layerDefs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

// TestUntracedPathRunsProgramTypes: without a tracer the program gets the
// dataset, format and augment it would get in production, unwrapped.
func TestUntracedPathRunsProgramTypes(t *testing.T) {
	in := mustWeatherInputs(t)
	var tr *tracer
	ds, f, aug := tr.wrap(in.mem, in.format, in.augment)
	if ds != pipeline.Dataset(in.mem) || f != in.format {
		t.Fatalf("untraced wrap changed the dataset or format: %T, %T", ds, f)
	}
	if reflect.ValueOf(aug).Pointer() != reflect.ValueOf(in.augment).Pointer() {
		t.Fatal("untraced wrap changed the augment func")
	}
	ds, f, _ = newTracer().wrap(in.mem, in.format, in.augment)
	if _, ok := ds.(*tracedDataset); !ok {
		t.Fatalf("traced dataset is %T", ds)
	}
	if _, ok := f.(*tracedFormat); !ok {
		t.Fatalf("traced format is %T", f)
	}
}

// TestTracedWrappersAddNoAllocs: reading, opening, decoding, recycling and
// augmenting one sample allocates exactly as much traced as untraced.
func TestTracedWrappersAddNoAllocs(t *testing.T) {
	in := mustWeatherInputs(t)
	i := 0
	for len(in.mem.Blobs[i]) < 64 { // skip stations with no observations
		i++
	}
	dst, err := decodeOne(in, i)
	if err != nil {
		t.Fatal(err)
	}
	step := func(ds pipeline.Dataset, f codec.Format, aug augmentFn) func() {
		return func() {
			b, err := ds.Blob(i)
			if err != nil {
				t.Fatal(err)
			}
			cd, err := f.Open(b)
			if err != nil {
				t.Fatal(err)
			}
			err = codec.DecodeInto(cd, dst)
			codec.Recycle(cd)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := aug(dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	tr := newTracer()
	tds, tf, taug := tr.wrap(in.mem, in.format, in.augment)
	plain := testing.AllocsPerRun(200, step(in.mem, in.format, in.augment))
	traced := testing.AllocsPerRun(200, step(tds, tf, taug))
	if traced != plain {
		t.Fatalf("traced sample path allocates %v per sample, untraced %v", traced, plain)
	}
	if tr.readCalls.Load() == 0 || tr.chunks.Load() == 0 || tr.augCalls.Load() == 0 || tr.nspans.Load() == 0 {
		t.Fatal("traced wrappers recorded nothing")
	}
	// A full span buffer drops spans without allocating.
	tr.nspans.Store(maxSpans)
	if full := testing.AllocsPerRun(200, step(tds, tf, taug)); full != plain {
		t.Fatalf("with a full span buffer the traced path allocates %v, untraced %v", full, plain)
	}
}

// TestConsumerAddsNoAllocs: recording a wait and checking a batch, plain or
// padded, allocates nothing.
func TestConsumerAddsNoAllocs(t *testing.T) {
	ref := &reference{refs: make([]sampleRef, 2)}
	c := newConsumer(ref, newTracer(), 1<<12)
	c.sched = make([]int, 1<<12)
	b := &pipeline.Batch{
		Data:    []*tensor.Tensor{tensor.New(tensor.F16, 3, 8)},
		Labels:  []*tensor.Tensor{tensor.New(tensor.F32, 4)},
		Indices: []int{0},
	}
	if a := testing.AllocsPerRun(200, func() { c.noteWait(1, 2, b.Indices); c.checkBatch(b) }); a != 0 {
		t.Fatalf("plain batch: %v allocs", a)
	}
	pb := &pipeline.PaddedBatch{
		Data:    tensor.New(tensor.F32, 2, 3, 8),
		Mask:    tensor.New(tensor.F32, 2, 8),
		Lengths: []int{0, 0},
		Labels:  []*tensor.Tensor{tensor.New(tensor.F32, 4), tensor.New(tensor.F32, 4)},
		Indices: []int{0, 1},
	}
	c.pos = 0
	if a := testing.AllocsPerRun(200, func() { c.noteWait(1, 2, pb.Indices); c.checkPadded(pb) }); a != 0 {
		t.Fatalf("padded batch: %v allocs", a)
	}
}

// TestCheckCatchesMismatches: a flipped bit, a reordered sample and a
// missing sample each count as failed, and the digests then differ.
func TestCheckCatchesMismatches(t *testing.T) {
	data := []*tensor.Tensor{
		tensor.FromF32([]float32{1, 2, 3}, 3),
		tensor.FromF32([]float32{4, 5, 6}, 3),
		tensor.FromF32([]float32{7, 8, 9}, 3),
	}
	label := tensor.FromF32([]float32{1}, 1)
	ref := &reference{refs: make([]sampleRef, len(data))}
	for i, d := range data {
		ref.refs[i] = sampleRef{data: crcTensor(d), label: crcTensor(label)}
	}
	deliver := func(order []int, corrupt int) *consumer {
		c := newConsumer(ref, nil, 8)
		c.sched = []int{0, 1, 2}
		for _, i := range order {
			d := data[i].Clone()
			if i == corrupt {
				d.F32s[1] = -d.F32s[1]
			}
			c.checkBatch(&pipeline.Batch{Data: []*tensor.Tensor{d}, Labels: []*tensor.Tensor{label}, Indices: []int{i}})
		}
		c.endEpoch()
		return c
	}
	for _, tc := range []struct {
		name    string
		order   []int
		corrupt int
		failed  int64
	}{
		{"exact", []int{0, 1, 2}, -1, 0},
		{"flipped bit", []int{0, 1, 2}, 1, 1},
		{"reordered", []int{0, 2, 1}, -1, 2},
		{"missing", []int{0, 1}, -1, 1},
	} {
		c := deliver(tc.order, tc.corrupt)
		if c.failed != tc.failed || c.attempted != 3 {
			t.Errorf("%s: failed %d of %d, want %d of 3", tc.name, c.failed, c.attempted, tc.failed)
		}
		if (c.got == c.want) != (tc.failed == 0) {
			t.Errorf("%s: digests %x/%x disagree with the failure count", tc.name, c.got, c.want)
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n      int
		q      float64
		v      int64
		beyond int
	}{
		{20000, 0.999, 19980, 20},
		{1000, 0.99, 990, 10},
		{150, 0.9, 135, 15},
		{60, 0.75, 45, 15},
		{12, 0.5, 6, 6},
	} {
		q, v, beyond := tail(seq(tc.n))
		if q != tc.q || v != tc.v || beyond != tc.beyond {
			t.Errorf("n=%d: got p%g=%d (%d beyond), want p%g=%d (%d beyond)", tc.n, q*100, v, beyond, tc.q*100, tc.v, tc.beyond)
		}
	}
}

// TestRunPrintsContract runs short untraced and traced runs end to end and
// checks the last output line against the result contract.
func TestRunPrintsContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	for _, tc := range []struct {
		workload, trace string
		defs            []metricDef
	}{
		{"weather-ragged", "0", endToEndDefs},
		{"weather-ragged", "1", layerDefs},
		{"dataserve-shared", "1", layerDefs},
	} {
		out := t.TempDir()
		var stdout bytes.Buffer
		err := run([]string{"-workload", tc.workload, "-seed", "3", "-seconds", "0.4", "-trace", tc.trace, "-out", out}, &stdout)
		if err != nil {
			t.Fatalf("%s trace %s: %v", tc.workload, tc.trace, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		last := []byte(lines[len(lines)-1])
		var keys map[string]json.RawMessage
		var r result
		if err := json.Unmarshal(last, &keys); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(last, &r); err != nil {
			t.Fatal(err)
		}
		if len(keys) != 4 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Fatalf("%s trace %s: result %s", tc.workload, tc.trace, lines[len(lines)-1])
		}
		if err := checkNames(r.Metrics, tc.defs); err != nil {
			t.Fatal(err)
		}
		for _, d := range tc.defs {
			if r.Metrics[d.name].Unit != d.unit {
				t.Errorf("%s: unit %q, want %q", d.name, r.Metrics[d.name].Unit, d.unit)
			}
		}
		if tc.trace == "1" {
			raw, err := os.ReadFile(filepath.Join(out, "trace-"+tc.workload+"-seed3.json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []traceEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Fatalf("trace file: %d events, %v", len(doc.TraceEvents), err)
			}
		}
	}
}
