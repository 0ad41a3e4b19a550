package main

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"

	"scipp/internal/codec"
	"scipp/internal/gpusim"
	"scipp/internal/pipeline"
	"scipp/internal/platform"
	"scipp/internal/tensor"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanRead    spanKind = iota // pipeline.Dataset.Blob
	spanOpen                    // codec.Format.Open
	spanDecode                  // first to last ChunkDecoder.DecodeChunk of one decoder
	spanAugment                 // the Augment func
	spanNext                    // the consumer's Next/NextPadded call
)

var spanNames = [...]string{"dataset.blob", "format.open", "decoder.chunks", "augment", "consumer.next"}

// span is one timed call. Spans of one sample share its dataset index where
// the call exposes it (-1 otherwise); parent is the id of the span that
// caused it (-1 for none).
type span struct {
	start, end     int64
	parent, sample int32
	kind           spanKind
}

// maxSpans bounds the in-memory trace; later spans are counted, not kept.
const maxSpans = 50000

// maxReadDurations bounds the read durations kept for read.p50_us.
const maxReadDurations = 1 << 17

// tracer records spans and counters at the benchmark's wrappers around the
// program's public layer interfaces: pipeline.Dataset, codec.Format and its
// ChunkDecoders, and the Augment func. Recording allocates nothing; spans go
// into a preallocated buffer and are written out after the run.
type tracer struct {
	spans   []span
	nspans  atomic.Int64
	dropped atomic.Int64

	readCalls, readBytes, readBusy atomic.Int64
	readDur                        []int64
	nreadDur                       atomic.Int64

	opens, openBusy, chunks, chunkBusy, bytesOut atomic.Int64
	kernelModelPS                                atomic.Int64 // modeled GPU kernel time, picoseconds
	augCalls, augBusy                            atomic.Int64

	device *gpusim.Device // models kernel time for every opened decoder

	freeMu sync.Mutex
	free   []*tracedDecoder
}

func newTracer() *tracer {
	return &tracer{
		spans:   make([]span, maxSpans),
		readDur: make([]int64, maxReadDurations),
		device:  gpusim.New(platform.Summit().GPU),
	}
}

// record keeps one span and returns its id, or -1 once the buffer is full.
func (t *tracer) record(k spanKind, start, end int64, parent, sample int32) int32 {
	i := t.nspans.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{start: start, end: end, parent: parent, sample: sample, kind: k}
	return int32(i)
}

// wrap returns ds, f and aug instrumented by t. A nil tracer returns them
// unchanged: the untraced path runs the program's own types.
func (t *tracer) wrap(ds pipeline.Dataset, f codec.Format, aug augmentFn) (pipeline.Dataset, codec.Format, augmentFn) {
	if t == nil {
		return ds, f, aug
	}
	if aug != nil {
		inner := aug
		aug = func(x *tensor.Tensor) (*tensor.Tensor, error) {
			s := nowNS()
			y, err := inner(x)
			e := nowNS()
			t.augCalls.Add(1)
			t.augBusy.Add(e - s)
			t.record(spanAugment, s, e, -1, -1)
			return y, err
		}
	}
	return &tracedDataset{inner: ds, t: t}, &tracedFormat{inner: f, t: t}, aug
}

type tracedDataset struct {
	inner pipeline.Dataset
	t     *tracer
}

func (d *tracedDataset) Len() int { return d.inner.Len() }

func (d *tracedDataset) Label(i int) (*tensor.Tensor, error) { return d.inner.Label(i) }

func (d *tracedDataset) Blob(i int) ([]byte, error) {
	s := nowNS()
	b, err := d.inner.Blob(i)
	e := nowNS()
	t := d.t
	t.readCalls.Add(1)
	t.readBytes.Add(int64(len(b)))
	t.readBusy.Add(e - s)
	if j := t.nreadDur.Add(1) - 1; j < int64(len(t.readDur)) {
		t.readDur[j] = e - s
	}
	t.record(spanRead, s, e, -1, int32(i))
	return b, err
}

type tracedFormat struct {
	inner codec.Format
	t     *tracer
}

func (f *tracedFormat) Name() string { return f.inner.Name() }

func (f *tracedFormat) Open(blob []byte) (codec.ChunkDecoder, error) {
	t := f.t
	s := nowNS()
	cd, err := f.inner.Open(blob)
	e := nowNS()
	t.opens.Add(1)
	t.openBusy.Add(e - s)
	id := t.record(spanOpen, s, e, -1, -1)
	if err != nil {
		return nil, err
	}
	w := cd.Workload()
	t.bytesOut.Add(int64(w.BytesOut))
	t.kernelModelPS.Add(int64(t.device.KernelTime(w) * 1e12))
	d := t.getDecoder()
	d.inner, d.open = cd, id
	return d, nil
}

// getDecoder takes a decoder wrapper off the free list; Recycle puts it back.
func (t *tracer) getDecoder() *tracedDecoder {
	t.freeMu.Lock()
	defer t.freeMu.Unlock()
	if n := len(t.free); n > 0 {
		d := t.free[n-1]
		t.free = t.free[:n-1]
		return d
	}
	return &tracedDecoder{t: t}
}

// tracedDecoder times every chunk of one decoder and records one span from
// its first chunk's start to its last chunk's end.
type tracedDecoder struct {
	inner       codec.ChunkDecoder
	t           *tracer
	open        int32
	first, last atomic.Int64
}

func (d *tracedDecoder) OutputShape() tensor.Shape { return d.inner.OutputShape() }
func (d *tracedDecoder) OutputDType() tensor.DType { return d.inner.OutputDType() }
func (d *tracedDecoder) NumChunks() int            { return d.inner.NumChunks() }
func (d *tracedDecoder) Workload() codec.Workload  { return d.inner.Workload() }

func (d *tracedDecoder) DecodeChunk(chunk int, dst *tensor.Tensor) error {
	s := nowNS()
	err := d.inner.DecodeChunk(chunk, dst)
	e := nowNS()
	d.t.chunks.Add(1)
	d.t.chunkBusy.Add(e - s)
	storeMin(&d.first, s)
	storeMax(&d.last, e)
	return err
}

// storeMin lowers a to v, treating 0 as unset.
func storeMin(a *atomic.Int64, v int64) {
	for {
		c := a.Load()
		if (c != 0 && c <= v) || a.CompareAndSwap(c, v) {
			return
		}
	}
}

// storeMax raises a to v.
func storeMax(a *atomic.Int64, v int64) {
	for {
		c := a.Load()
		if c >= v || a.CompareAndSwap(c, v) {
			return
		}
	}
}

// Recycle forwards to the wrapped decoder, then records the decode span and
// returns the wrapper to the free list. Both the pipeline and the data
// service recycle every decoder they open.
func (d *tracedDecoder) Recycle() {
	codec.Recycle(d.inner)
	t := d.t
	if f := d.first.Load(); f != 0 {
		t.record(spanDecode, f, d.last.Load(), d.open, -1)
	}
	d.inner = nil
	d.first.Store(0)
	d.last.Store(0)
	t.freeMu.Lock()
	t.free = append(t.free, d)
	t.freeMu.Unlock()
}

// traceEvent is one Chrome trace-event record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the recorded spans as Chrome trace-event JSON:
// one async begin/end pair per span, so concurrent calls of one layer
// stack as separate rows in Perfetto.
func writeChromeTrace(path string, t *tracer, meta any) error {
	n := min(t.nspans.Load(), int64(len(t.spans)))
	events := make([]traceEvent, 0, 2*n)
	for i, s := range t.spans[:n] {
		name := spanNames[s.kind]
		args := map[string]any{"span": i, "parent": s.parent, "sample": s.sample}
		events = append(events,
			traceEvent{Name: name, Cat: name, Ph: "b", TS: float64(s.start) / 1e3, PID: 1, TID: int(s.kind) + 1, ID: i + 1, Args: args},
			traceEvent{Name: name, Cat: name, Ph: "e", TS: float64(s.end) / 1e3, PID: 1, TID: int(s.kind) + 1, ID: i + 1})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"metadata":        meta,
		"droppedSpans":    t.dropped.Load(),
	}
	return writeFile(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(doc) })
}
