package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// waitCap preallocates each consumer's per-batch wait log, so recording a
// wait does not allocate during a window.
const waitCap = 1 << 16

// report is what runPlain or runTraced hands back for printing.
type report struct {
	metrics           map[string]metric
	notes             map[string]string
	attempted, failed int64
	got, want         uint64
}

// tally folds consumers' check results into the report.
func (r *report) tally(cons []*consumer) {
	for _, c := range cons {
		r.attempted += c.attempted
		r.failed += c.failed
		r.got = fold(r.got, c.got)
		r.want = fold(r.want, c.want)
	}
}

// setup is one set-up of the program as a training job pays it: open the
// stored dataset, construct the loader or service, run the cold first epoch.
type setup struct {
	sys          system
	openS, warmS float64
	cons         []*consumer // the cold epoch's consumers
}

func (s setup) seconds() float64 { return s.openS + s.warmS }

func setUp(w *workload, in *inputs, ref *reference, tr *tracer) (setup, error) {
	t0 := time.Now()
	ds, err := in.open()
	if err != nil {
		return setup{}, err
	}
	ds, f, aug := tr.wrap(ds, in.format, in.augment)
	sys, err := w.start(in, ds, f, aug)
	if err != nil {
		return setup{}, err
	}
	s := setup{sys: sys, openS: time.Since(t0).Seconds()}
	s.cons = newConsumers(sys, ref, tr)
	t1 := time.Now()
	err = drive(sys, s.cons, 0, t1)
	s.warmS = time.Since(t1).Seconds()
	if err != nil {
		sys.close()
		return setup{}, fmt.Errorf("cold epoch: %w", err)
	}
	return s, nil
}

func newConsumers(sys system, ref *reference, tr *tracer) []*consumer {
	cons := make([]*consumer, sys.lanes())
	for k := range cons {
		cons[k] = newConsumer(ref, tr, waitCap)
	}
	return cons
}

// drive runs epochs first, first+1, ... on every lane at once, one goroutine
// per lane, each lane stopping at the first epoch boundary at or after
// until.
func drive(sys system, cons []*consumer, first int, until time.Time) error {
	errs := make([]error, len(cons))
	var wg sync.WaitGroup
	for k, c := range cons {
		wg.Add(1)
		go func(k int, c *consumer) {
			defer wg.Done()
			for e := first; ; e++ {
				if err := sys.epoch(k, e, c); err != nil {
					errs[k] = fmt.Errorf("lane %d epoch %d: %w", k, e, err)
					return
				}
				if !time.Now().Before(until) {
					return
				}
			}
		}(k, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// usage is a snapshot of the process's CPU time and Go runtime counters.
type usage struct {
	at    time.Time
	cpu   float64 // user+sys seconds
	steal float64 // the machine's CPU seconds stolen by a hypervisor
	mem   runtime.MemStats
}

func snapshot() usage {
	u := usage{at: time.Now(), steal: hostSteal()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	runtime.ReadMemStats(&u.mem)
	return u
}

// hostSteal reads the CPU time, summed over all CPUs, that a hypervisor
// gave to other guests while this machine's CPUs wanted to run, from
// /proc/stat (in USER_HZ ticks of 10 ms); 0 where unavailable. Wall-clock
// metrics absorb it, so runs note it.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// window is one timed stretch of closed-loop epochs.
type window struct {
	cons     []*consumer
	from, to usage
	// liveMedian and livePeak are the median and peak live heap over the
	// collections in the window.
	liveMedian, livePeak uint64
}

// programMB is a heap reading in MB less what the benchmark itself holds:
// the inputs and the consumers' wait logs.
func (w window) programMB(in *inputs, heap uint64) float64 {
	held := in.heldBytes()
	for _, c := range w.cons {
		held += int64(cap(c.waits)) * 8
	}
	return float64(int64(heap)-held) / (1 << 20)
}

func (w window) wallS() float64 { return w.to.at.Sub(w.from.at).Seconds() }

func (w window) samples() int64 {
	var n int64
	for _, c := range w.cons {
		n += c.delivered
	}
	return n
}

// measure runs timed epochs from epoch 1 on until seconds have passed.
func measure(s setup, ref *reference, tr *tracer, seconds float64) (window, error) {
	w := window{cons: newConsumers(s.sys, ref, tr)}
	lh := startLiveHeap()
	w.from = snapshot()
	err := drive(s.sys, w.cons, 1, w.from.at.Add(time.Duration(seconds*float64(time.Second))))
	w.to = snapshot()
	w.liveMedian, w.livePeak = lh.end()
	return w, err
}

// liveHeap records the live Go heap, the bytes each garbage collection
// marked live, once per collection during a window. Garbage awaiting
// collection is left out, so the readings do not depend on when
// collections happen to run.
type liveHeap struct {
	stop  chan struct{}
	lives chan []uint64
}

func startLiveHeap() *liveHeap {
	h := &liveHeap{stop: make(chan struct{}), lives: make(chan []uint64, 1)}
	go func() {
		sample := liveHeapSample()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var lives []uint64
		var cycle uint64
		for {
			metrics.Read(sample)
			if c := sample[0].Value.Uint64(); c != cycle || lives == nil {
				cycle = c
				lives = append(lives, sample[1].Value.Uint64())
			}
			select {
			case <-h.stop:
				h.lives <- lives
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func liveHeapSample() []metrics.Sample {
	return []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
}

// end stops the recording, adds the live heap a collection finds at the end
// of the window, and returns the median and the peak reading.
func (h *liveHeap) end() (median, peak uint64) {
	close(h.stop)
	lives := <-h.lives
	runtime.GC()
	sample := liveHeapSample()
	metrics.Read(sample)
	lives = append(lives, sample[1].Value.Uint64())
	sort.Slice(lives, func(i, j int) bool { return lives[i] < lives[j] })
	return lives[len(lives)/2], lives[len(lives)-1]
}

// runPlain is the untraced run: set up several times, then one timed window
// on the last set-up; it reports the end-to-end metrics.
func runPlain(w *workload, in *inputs, ref *reference, seconds float64) (report, error) {
	rep := report{notes: map[string]string{}}
	setupS := make([]float64, 0, w.setups)
	var s setup
	for i := 0; i < w.setups; i++ {
		if i > 0 {
			s.sys.close()
		}
		var err error
		if s, err = setUp(w, in, ref, nil); err != nil {
			return rep, err
		}
		setupS = append(setupS, s.seconds())
		rep.tally(s.cons)
	}
	defer s.sys.close()
	runtime.GC()
	win, err := measure(s, ref, nil, seconds)
	rep.tally(win.cons)
	if err != nil {
		return rep, err
	}
	rep.metrics = endToEnd(in, win, median(setupS), rep.notes)
	rep.notes["setup_runs"] = fmt.Sprint(setupS)
	return rep, nil
}

// endToEnd computes the end-to-end metrics of one untraced window.
func endToEnd(in *inputs, win window, setupS float64, notes map[string]string) map[string]metric {
	samples := float64(win.samples())
	var all []int64
	tailMS, tailQ, blocks, batches := 0.0, 0.0, 0, 0
	for k, c := range win.cons {
		all = append(all, c.waits...)
		if ms, q, nb := blockTail(c.waits); k == 0 || ms > tailMS {
			tailMS, tailQ, blocks, batches = ms, q, nb, len(c.waits)
		}
	}
	all = sortedCopy(all)
	notes["batch_wait_tail"] = fmt.Sprintf("median over %d blocks of p%g, %d batches, worst lane of %d", blocks, tailQ*100, batches, len(win.cons))
	notes["batch_wait_quantiles_ms"] = fmt.Sprintf("p10 %.4g, p25 %.4g, p50 %.4g, p75 %.4g, p90 %.4g",
		float64(percentile(all, 0.1))/1e6, float64(percentile(all, 0.25))/1e6, float64(percentile(all, 0.5))/1e6,
		float64(percentile(all, 0.75))/1e6, float64(percentile(all, 0.9))/1e6)
	notes["window"] = fmt.Sprintf("%.3f s, %d samples, %d lanes, %.2f CPU-s stolen from this machine by its hypervisor",
		win.wallS(), int64(samples), len(win.cons), win.to.steal-win.from.steal)
	return map[string]metric{
		"samples_per_s":      {finite(samples / win.wallS()), "1/s"},
		"batch_wait_p50_ms":  {float64(percentile(all, 0.5)) / 1e6, "ms"},
		"batch_wait_tail_ms": {tailMS, "ms"},
		"cpu_ms_per_sample":  {finite((win.to.cpu - win.from.cpu) * 1e3 / samples), "ms"},
		"mem_live_mb":        {win.programMB(in, win.liveMedian), "MB"},
		"setup_s":            {setupS, "s"},
	}
}

// runTraced makes an untraced window and a traced one over the same inputs,
// then the solo passes, and reports the per-layer metrics. The traced phase
// (set-up plus window) is what the layer counters cover.
func runTraced(w *workload, in *inputs, ref *reference, seconds float64, out string, fp fingerprint) (report, error) {
	rep := report{notes: map[string]string{}}
	s, err := setUp(w, in, ref, nil)
	if err != nil {
		return rep, err
	}
	rep.tally(s.cons)
	runtime.GC()
	plain, err := measure(s, ref, nil, seconds/2)
	s.sys.close()
	rep.tally(plain.cons)
	if err != nil {
		return rep, err
	}

	tr := newTracer()
	runtime.GC()
	from := snapshot()
	ts, err := setUp(w, in, ref, tr)
	if err != nil {
		return rep, err
	}
	rep.tally(ts.cons)
	traced, err := measure(ts, ref, tr, seconds/2)
	lc := ts.sys.counters()
	ts.sys.close()
	rep.tally(traced.cons)
	if err != nil {
		return rep, err
	}
	solo, err := measureSolo(in)
	if err != nil {
		return rep, err
	}
	ph := phase{from: from, to: traced.to, setup: ts, win: traced, counters: lc}
	rep.metrics = layerMetrics(w, in, ref, tr, ph, plain, solo, rep.notes)

	path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", w.name, in.seed))
	if err := writeChromeTrace(path, tr, fp); err != nil {
		return rep, err
	}
	rep.notes["trace_file"] = path
	rep.notes["trace_spans"] = fmt.Sprintf("%d kept, %d dropped past the %d-span buffer", min(tr.nspans.Load(), maxSpans), tr.dropped.Load(), maxSpans)
	return rep, nil
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// percentile is the nearest-rank q-quantile of sorted, 0 when empty.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailBlock is the fewest batches in one block of the tail estimate: enough
// for p99 to leave ten batches beyond it.
const tailBlock = 1000

// blockTail splits one lane's waits, in delivery order, into equal blocks of
// at least tailBlock batches (one block when there are fewer) and returns
// the median over blocks of each block's tail in ms, the percentile the
// blocks used, and the block count. A single tail over tens of thousands of
// batches is set by a few dozen host-scheduling stalls; the median over
// blocks is not.
func blockTail(waits []int64) (ms, q float64, blocks int) {
	blocks = max(1, len(waits)/tailBlock)
	vals := make([]float64, blocks)
	for b := range vals {
		var v int64
		q, v, _ = tail(sortedCopy(waits[b*len(waits)/blocks : (b+1)*len(waits)/blocks]))
		vals[b] = float64(v) / 1e6
	}
	return median(vals), q, blocks
}

// tail returns the highest of p99.9, p99, p90 and p75 that leaves at least
// ten batches beyond it, with its value and that count; p50 when none does.
func tail(sorted []int64) (q float64, v int64, beyond int) {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.75, 0.5} {
		beyond = len(sorted) - int(math.Ceil(q*float64(len(sorted))))
		if beyond >= 10 || q == 0.5 {
			return q, percentile(sorted, q), beyond
		}
	}
	return 0, 0, 0 // not reached: q == 0.5 always returns
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
