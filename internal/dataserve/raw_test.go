package dataserve

import (
	"bytes"
	"runtime"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
)

// gatedFormat decodes every blob to a fixed-shape F32 tensor whose element
// i is i+0.5. Open signals entered and then blocks on gate, so a test can
// hold the flight owner mid-decode while a second tenant joins its flight.
type gatedFormat struct {
	shape   tensor.Shape
	entered chan struct{}
	gate    chan struct{}
}

func (gatedFormat) Name() string { return "gated" }

func (f gatedFormat) Open([]byte) (codec.ChunkDecoder, error) {
	select {
	case f.entered <- struct{}{}:
	default:
	}
	<-f.gate
	return fillDecoder{f.shape}, nil
}

type fillDecoder struct{ shape tensor.Shape }

func (d fillDecoder) OutputShape() tensor.Shape { return d.shape }
func (d fillDecoder) OutputDType() tensor.DType { return tensor.F32 }
func (d fillDecoder) NumChunks() int            { return 1 }
func (d fillDecoder) Workload() codec.Workload  { return codec.Workload{Chunks: 1} }

func (d fillDecoder) DecodeChunk(_ int, dst *tensor.Tensor) error {
	for i := range dst.F32s {
		dst.F32s[i] = float32(i) + 0.5
	}
	return nil
}

// TestOwnerJoinerHitBitIdentical serves one sample three ways — to the
// flight owner, to a tenant joined on that flight, and from the cache —
// and requires all three deliveries to carry the reference decode's exact
// dtype, shape and bits. The zero-element ragged sample ({2, 0}: no
// element bytes at all, so the cache resident is empty) must survive every
// path like any other.
func TestOwnerJoinerHitBitIdentical(t *testing.T) {
	for name, shape := range map[string]tensor.Shape{"ragged-empty": {2, 0}, "dense": {2, 3}} {
		t.Run(name, func(t *testing.T) {
			s := newIdleService(Config{})
			f := gatedFormat{shape: shape, entered: make(chan struct{}, 1), gate: make(chan struct{})}
			label := tensor.FromF32([]float32{7}, 1)
			if err := s.Register(DatasetConfig{
				Name:   "ragged",
				Data:   &pipeline.MemDataset{Blobs: [][]byte{nil}, Labels: []*tensor.Tensor{label}},
				Format: f,
				Cache:  pipeline.CacheConfig{HostMemBytes: 1 << 20},
			}); err != nil {
				t.Fatalf("Register: %v", err)
			}
			sd := s.datasets["ragged"]
			var its [2]*Iterator
			for i, name := range []string{"owner", "joiner"} {
				tn, err := s.Attach(TenantConfig{Name: name, Dataset: "ragged"})
				if err != nil {
					t.Fatalf("Attach %s: %v", name, err)
				}
				its[i] = &Iterator{t: tn, abort: make(chan struct{})}
			}

			type served struct {
				data, label *tensor.Tensor
				err         error
			}
			fetch := func(it *Iterator) <-chan served {
				ch := make(chan served, 1)
				go func() {
					d, l, err := sd.fetch(it, 0)
					ch <- served{d, l, err}
				}()
				return ch
			}
			owner := fetch(its[0])
			<-f.entered
			joiner := fetch(its[1])
			for {
				sd.mu.Lock()
				joined := sd.flights[0] != nil && sd.flights[0].joiners == 1
				sd.mu.Unlock()
				if joined {
					break
				}
				runtime.Gosched()
			}
			close(f.gate)
			got := []served{<-owner, <-joiner, <-fetch(its[1])}

			want := tensor.New(tensor.F32, shape...)
			_ = fillDecoder{shape}.DecodeChunk(0, want)
			for i, path := range []string{"owner", "joiner", "hit"} {
				g := got[i]
				if g.err != nil {
					t.Fatalf("%s: %v", path, g.err)
				}
				if g.data.DT != want.DT || !g.data.Shape.Equal(want.Shape) || !bytes.Equal(g.data.Raw(), want.Raw()) {
					t.Errorf("%s served %s%v, want %s%v bit-identical", path, g.data.DT, g.data.Shape, want.DT, want.Shape)
				}
				if g.label != label {
					t.Errorf("%s served a different label", path)
				}
			}
			if got[0].data == got[1].data || got[1].data == got[2].data {
				t.Error("deliveries share a tensor: each tenant must own its copy")
			}
			ownSt, joinSt := its[0].t.Stats(), its[1].t.Stats()
			if ownSt.Decodes != 1 || joinSt.Joins != 1 || joinSt.HitsBorrowed != 1 {
				t.Errorf("owner decodes %d, joiner joins %d / borrowed hits %d; want 1 each", ownSt.Decodes, joinSt.Joins, joinSt.HitsBorrowed)
			}
			if per := int64(want.Bytes() + label.Bytes()); ownSt.BytesServed != per || joinSt.BytesServed != 2*per {
				t.Errorf("BytesServed owner %d joiner %d, want %d and %d", ownSt.BytesServed, joinSt.BytesServed, per, 2*per)
			}
		})
	}
}
