package main

import (
	"hash/crc32"
	"time"
	"unsafe"

	"scipp/internal/codec"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// clockBase anchors nowNS; every timestamp the benchmark records, spans
// included, is monotonic nanoseconds since process start.
var clockBase = time.Now()

func nowNS() int64 { return int64(time.Since(clockBase)) }

// tensorBytes views t's elements as raw bytes, without copying.
func tensorBytes(t *tensor.Tensor) []byte {
	n := t.Elems()
	switch t.DT {
	case tensor.F16:
		if n == 0 {
			return nil
		}
		return unsafe.Slice((*byte)(unsafe.Pointer(&t.F16s[0])), 2*n)
	case tensor.I16:
		if n == 0 {
			return nil
		}
		return unsafe.Slice((*byte)(unsafe.Pointer(&t.I16s[0])), 2*n)
	default:
		return f32Bytes(t.F32s[:n])
	}
}

func f32Bytes(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

func crcTensor(t *tensor.Tensor) uint32 { return crc32.Checksum(tensorBytes(t), castagnoli) }

// fold mixes v into the running digest h.
func fold(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + h<<6 + h>>2
	return h * 0x100000001b3
}

// sampleRef is the checksum pair one delivered sample must match.
type sampleRef struct{ data, label uint32 }

// reference holds, per dataset index, the checksums of a single-goroutine
// codec.DecodeInto of that entry, followed by the workload's augment.
type reference struct {
	refs         []sampleRef
	decodedBytes int64 // decoded bytes of every entry
}

func buildReference(in *inputs) (*reference, error) {
	n := len(in.mem.Blobs)
	r := &reference{refs: make([]sampleRef, n)}
	for i := 0; i < in.distinct; i++ {
		dst, err := decodeOne(in, i)
		if err != nil {
			return nil, err
		}
		if in.augment != nil {
			if dst, err = in.augment(dst); err != nil {
				return nil, err
			}
		}
		data := crcTensor(dst)
		for j := i; j < n; j += in.distinct {
			r.refs[j] = sampleRef{data: data, label: crcTensor(in.mem.Labels[j])}
			r.decodedBytes += int64(dst.Bytes())
		}
	}
	return r, nil
}

// decodeOne decodes entry i serially into a new tensor.
func decodeOne(in *inputs, i int) (*tensor.Tensor, error) {
	cd, err := in.format.Open(in.mem.Blobs[i])
	if err != nil {
		return nil, err
	}
	defer codec.Recycle(cd)
	dst := tensor.New(cd.OutputDType(), cd.OutputShape()...)
	return dst, codec.DecodeInto(cd, dst)
}

// fold mixes the reference sample at index into digest h, exactly as
// check mixes a delivered one.
func (r *reference) fold(h uint64, index int) uint64 {
	s := r.refs[index]
	return fold(fold(fold(h, uint64(index)), uint64(s.label)), uint64(s.data))
}

// consumer is one closed-loop training job: it pulls batches, records how
// long each Next blocked, and checks every sample against the reference in
// schedule order. Its per-batch path allocates nothing once waits has
// capacity.
type consumer struct {
	ref    *reference
	tr     *tracer // nil on untraced runs
	waits  []int64 // ns blocked per delivered batch
	sched  []int
	pos    int
	waitNS int64

	delivered, attempted, failed int64
	got, want                    uint64 // digests of the delivered and reference streams
}

func newConsumer(ref *reference, tr *tracer, waitCap int) *consumer {
	return &consumer{ref: ref, tr: tr, waits: make([]int64, 0, waitCap)}
}

// drain runs one epoch's Next loop against the epoch's schedule. Like a
// training step that still uses its batch while the next one loads, it
// releases each batch only once the next has arrived.
func (c *consumer) drain(next func() (*pipeline.Batch, error), sched []int) error {
	c.sched, c.pos = sched, 0
	defer c.endEpoch()
	var prev *pipeline.Batch
	defer func() { prev.Release() }()
	for {
		t0 := nowNS()
		b, err := next()
		t1 := nowNS()
		if err != nil || b == nil {
			return err
		}
		prev.Release()
		prev = b
		c.noteWait(t0, t1, b.Indices)
		c.checkBatch(b)
	}
}

// drainPadded is drain for padded ragged batches.
func (c *consumer) drainPadded(next func() (*pipeline.PaddedBatch, error), sched []int) error {
	c.sched, c.pos = sched, 0
	defer c.endEpoch()
	var prev *pipeline.PaddedBatch
	defer func() { prev.Release() }()
	for {
		t0 := nowNS()
		pb, err := next()
		t1 := nowNS()
		if err != nil || pb == nil {
			return err
		}
		prev.Release()
		prev = pb
		c.noteWait(t0, t1, pb.Indices)
		c.checkPadded(pb)
	}
}

func (c *consumer) noteWait(t0, t1 int64, indices []int) {
	c.waits = append(c.waits, t1-t0)
	c.waitNS += t1 - t0
	if c.tr != nil {
		sample := int32(-1)
		if len(indices) > 0 {
			sample = int32(indices[0])
		}
		c.tr.record(spanNext, t0, t1, -1, sample)
	}
}

// endEpoch counts scheduled samples that never arrived as failed; the
// reference digest still covers them.
func (c *consumer) endEpoch() {
	c.attempted += int64(len(c.sched))
	for ; c.pos < len(c.sched); c.pos++ {
		c.failed++
		c.want = c.ref.fold(c.want, c.sched[c.pos])
	}
}

// check compares one delivered sample with the reference sample due at this
// schedule position, folding both into their stream digests.
func (c *consumer) check(index int, label, data uint32) {
	c.delivered++
	c.got = fold(fold(fold(c.got, uint64(index)), uint64(label)), uint64(data))
	if c.pos >= len(c.sched) || index < 0 || index >= len(c.ref.refs) {
		c.pos++
		c.failed++
		return
	}
	want := c.sched[c.pos]
	r := c.ref.refs[want]
	c.pos++
	c.want = c.ref.fold(c.want, want)
	if index != want || label != r.label || data != r.data {
		c.failed++
	}
}

func (c *consumer) checkBatch(b *pipeline.Batch) {
	for s, t := range b.Data {
		c.check(b.Indices[s], crcTensor(b.Labels[s]), crcTensor(t))
	}
}

// checkPadded checks each padded row: its first Lengths[s] observations per
// channel must checksum as the reference sample, and its padding and mask
// must be exact.
func (c *consumer) checkPadded(pb *pipeline.PaddedBatch) {
	n := pb.Size()
	lmax := pb.Mask.Shape[1]
	rows := 0
	if n*lmax > 0 {
		rows = pb.Data.Elems() / (n * lmax)
	}
	for s := 0; s < n; s++ {
		l := pb.Lengths[s]
		var crc uint32
		exact := true
		for ch := 0; ch < rows; ch++ {
			row := pb.Data.F32s[(s*rows+ch)*lmax : (s*rows+ch+1)*lmax]
			crc = crc32.Update(crc, castagnoli, f32Bytes(row[:l]))
			for _, v := range row[l:] {
				exact = exact && v == 0
			}
		}
		for t, v := range pb.Mask.F32s[s*lmax : (s+1)*lmax] {
			exact = exact && (v == 1) == (t < l) && (v == 0 || v == 1)
		}
		if !exact {
			crc = ^crc
		}
		c.check(pb.Indices[s], crcTensor(pb.Labels[s]), crc)
	}
}
