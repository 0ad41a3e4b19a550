// Command perfbench is the repository's benchmark. It runs one named
// workload closed-loop against the data-loading pipeline or the multi-tenant
// data service, checks every delivered batch against a single-goroutine
// reference decode, and prints its metrics by name and unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {"samples_per_s": {"value": 61.3, "unit": "1/s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the run
// makes an untraced pass and a traced pass over the same inputs, prints the
// per-layer metrics, and writes the traced pass's spans as Chrome
// trace-event JSON (loadable in Perfetto) under -out.
//
// Build and run it from the root of a checkout with
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// METRICS.md lists the workloads and metrics and what each layer metric
// should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fingerprint stamps a result with the machine and inputs it came from.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
}

// record is the full account of one run, written beside the trace file.
type record struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Result      result            `json:"result"`
	Notes       map[string]string `json:"notes"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 makes the traced run that reports the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for generated inputs, run records and traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	fp := machineFingerprint(w.name, *seed, *trace == 1)

	dataDir := filepath.Join(*out, fmt.Sprintf("data-%s-%d-%d", w.name, *seed, os.Getpid()))
	defer os.RemoveAll(dataDir)
	in, err := w.build(*seed, dataDir)
	if err != nil {
		return fmt.Errorf("building inputs: %w", err)
	}
	ref, err := buildReference(in)
	if err != nil {
		return fmt.Errorf("reference decode: %w", err)
	}

	var rep report
	if *trace == 1 {
		rep, err = runTraced(w, in, ref, *seconds, *out, fp)
	} else {
		rep, err = runPlain(w, in, ref, *seconds)
	}
	if err != nil {
		return err
	}
	defs := endToEndDefs
	if *trace == 1 {
		defs = layerDefs
	}
	if err := checkNames(rep.metrics, defs); err != nil {
		return err
	}
	res := result{
		Correct:   rep.failed == 0 && rep.got == rep.want,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	rep.notes["digest"] = fmt.Sprintf("delivered %016x, reference %016x", rep.got, rep.want)
	rep.notes["failed_ratio"] = fmt.Sprint(float64(rep.failed) / float64(max(rep.attempted, 1)))
	if err := writeJSON(filepath.Join(*out, fmt.Sprintf("record-%s-seed%d-trace%d.json", w.name, *seed, *trace)),
		record{Fingerprint: fp, Result: res, Notes: rep.notes}); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fingerprint: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s workload=%s seed=%d\n",
		fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.Go, fp.Commit, fp.Workload, fp.Seed)
	printReport(&b, res, rep.notes)
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(stdout, b.String())
	return err
}

// printReport prints every metric and note by name, one per line, ahead of
// the JSON result line.
func printReport(w *strings.Builder, res result, notes map[string]string) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	keys := make([]string, 0, len(notes))
	for k := range notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "note %s: %s\n", k, notes[k])
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}

// finite maps a non-finite value (a ratio over an empty window) to 0, which
// JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func machineFingerprint(workload string, seed uint64, traced bool) fingerprint {
	fp := fingerprint{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Workload:   workload,
		Seed:       seed,
		Traced:     traced,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if fp.Commit != "unknown" {
			fp.Commit += dirty
		}
	}
	return fp
}

func writeJSON(path string, v any) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(v)
	})
}

// writeFile creates path, writes it through fill and checks the flush and
// the close.
func writeFile(path string, fill func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
