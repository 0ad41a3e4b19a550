package deltafp

import (
	"fmt"

	"scipp/internal/codec"
	"scipp/internal/tensor"
)

// FormatHWC returns a deltafp format whose decoder fuses the CHW -> HWC
// layout transpose into decompression — the optimization §X highlights
// ("the fusion of data transpose with decompression thus achieving higher
// efficiency for preparing the data for computation"). The baseline path
// must decode into CHW and then run a separate transpose pass; the fused
// decoder writes each line's values directly to their strided HWC
// destinations while reconstructing them.
func FormatHWC() codec.Format { return formatHWC{} }

func init() {
	codec.Register(Format())
	codec.Register(FormatHWC())
}

type formatHWC struct{}

func (formatHWC) Name() string { return "deltafp-hwc" }

func (formatHWC) Open(blob []byte) (codec.ChunkDecoder, error) {
	cd, err := Format().Open(blob)
	if err != nil {
		return nil, err
	}
	return &hwcDecoder{inner: cd.(*Decoder)}, nil
}

// hwcDecoder decodes line chunks directly into [H, W, C] layout.
type hwcDecoder struct {
	inner *Decoder
}

// OutputShape implements codec.ChunkDecoder.
func (d *hwcDecoder) OutputShape() tensor.Shape {
	return tensor.Shape{d.inner.h, d.inner.w, d.inner.c}
}

// OutputDType implements codec.ChunkDecoder.
func (d *hwcDecoder) OutputDType() tensor.DType { return tensor.F16 }

// NumChunks implements codec.ChunkDecoder.
func (d *hwcDecoder) NumChunks() int { return d.inner.NumChunks() }

// Workload implements codec.ChunkDecoder. The fused transform writes
// strided (uncoalesced) output, which the cost model reflects with a small
// extra op charge; the payoff is eliminating the separate transpose pass.
func (d *hwcDecoder) Workload() codec.Workload {
	wl := d.inner.Workload()
	wl.Ops += d.inner.c * d.inner.h * d.inner.w // strided store overhead
	return wl
}

// DecodeChunk decodes line chunk (channel ci, row hi) into the strided HWC
// positions of dst: element (hi, x, ci) lives at (hi*w + x)*c + ci.
//
//scipp:hotpath
func (d *hwcDecoder) DecodeChunk(chunk int, dst *tensor.Tensor) error {
	in := d.inner
	if chunk < 0 || chunk >= in.c*in.h {
		return fmt.Errorf("deltafp: chunk %d out of range", chunk)
	}
	if dst.DT != tensor.F16 || !dst.Shape.Equal(d.OutputShape()) {
		return fmt.Errorf("deltafp: dst must be F16 %v", d.OutputShape())
	}
	ci, hi := chunk/in.h, chunk%in.h
	return in.decodeLine(chunk, dst.F16s[hi*in.w*in.c+ci:], in.c)
}
