package deltafp

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
	"scipp/internal/xrand"
)

// The golden digests below pin the decoder's output bit for bit. They were
// computed with the original per-value decode loop (a branch on the zero
// delta byte, per-value bit assembly, the general fp16 conversion), so any
// rewrite of the kernel must reproduce them exactly. Each case also pins the
// CRC of its encoded blob: a blob mismatch means the generator or the
// encoder changed, not the decoder.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// goldenCase is one fixed input and the CRC-32C digests of its blob and of
// its decoded output in both layouts.
type goldenCase struct {
	name string
	src  func(t *testing.T) *tensor.Tensor
	opts Options
	blob uint32
	chw  uint32
	hwc  uint32
}

func goldenClimate(t *testing.T) *tensor.Tensor {
	t.Helper()
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 3
	cfg.Height = 24
	cfg.Width = 160
	s, err := synthetic.GenerateClimate(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	return s.Data
}

// goldenRandom builds lines that stress the decoder's corner cases: walks
// through signed zeros (a -0 pivot followed by zero-delta bytes must stay
// -0), walks spanning fp16's subnormal and overflow ranges, and a line of
// non-finite values (RAW) and a constant line.
func goldenRandom(t *testing.T) *tensor.Tensor {
	t.Helper()
	const c, h, w = 2, 6, 97
	src := tensor.New(tensor.F32, c, h, w)
	r := xrand.New(20261017)
	small := []float32{float32(math.Copysign(0, -1)), 0, 0.5, -0.5, 1, -1, 1.5}
	for l := 0; l < c*h; l++ {
		line := src.F32s[l*w : (l+1)*w]
		switch l % 6 {
		case 0, 1: // signed zeros and small exact values, with repeats
			for i := range line {
				if i > 0 && r.Intn(3) == 0 {
					line[i] = line[i-1]
					continue
				}
				line[i] = small[r.Intn(len(small))]
			}
			if l%6 == 0 {
				line[0], line[1], line[2] = small[0], small[0], small[0]
			}
		case 2, 3: // multiplicative walk across fp16 subnormal..overflow
			v := float32(1e-6)
			if l%6 == 3 {
				v = -3e4
			}
			for i := range line {
				line[i] = v
				v *= float32(0.7 + 0.8*r.Float64())
				if r.Intn(8) == 0 {
					v = -v
				}
			}
		case 4: // non-finite values force RAW
			for i := range line {
				line[i] = float32(r.NormFloat64()) * 1e5
			}
			line[3] = float32(math.Inf(1))
			line[5] = float32(math.NaN())
			line[7] = math.Float32frombits(0x00000003) // FP32 subnormal
		case 5: // constant
			for i := range line {
				line[i] = -2.75
			}
		}
	}
	return src
}

var goldenCases = []goldenCase{
	{"climate/exp1", goldenClimate, Options{ExpBits: 1}, 0x7df30793, 0x37dee138, 0x8d51fe0f},
	{"climate/exp2", goldenClimate, Options{ExpBits: 2}, 0x793f3b87, 0x293e3f5a, 0xace41881},
	{"climate/exp3", goldenClimate, Options{ExpBits: 3}, 0xd2429e37, 0x90314e10, 0x94bb1a30},
	{"climate/exp4", goldenClimate, Options{ExpBits: 4}, 0xdc20b5c3, 0x6a39f344, 0xcfeb7eb8},
	{"climate/exp5", goldenClimate, Options{ExpBits: 5}, 0xf82d7137, 0x7cb8400d, 0x5dd4b35b},
	{"climate/exp6", goldenClimate, Options{ExpBits: 6}, 0x6febdcb3, 0x769bebe2, 0xb99475f2},
	{"random/exp1", goldenRandom, Options{ExpBits: 1, RelTol: 1e6}, 0x8c7a0266, 0x751d6df1, 0x3a5ae017},
	{"random/exp3", goldenRandom, Options{ExpBits: 3, RelTol: 1e6}, 0x3d375ce5, 0xefb98964, 0xa65bdff9},
	{"random/exp6", goldenRandom, Options{ExpBits: 6, RelTol: 1e6}, 0x37c662ed, 0xd2353431, 0xf7b24467},
}

// crcF16 digests decoded binary16 values in little-endian byte order.
func crcF16(v *tensor.Tensor) uint32 {
	buf := make([]byte, 2*len(v.F16s))
	for i, h := range v.F16s {
		binary.LittleEndian.PutUint16(buf[2*i:], uint16(h))
	}
	return crc32.Checksum(buf, castagnoli)
}

func TestGoldenDigests(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			blob, err := Encode(gc.src(t), gc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := crc32.Checksum(blob, castagnoli); got != gc.blob {
				t.Fatalf("blob digest %#08x, want %#08x: the input changed, not the decoder", got, gc.blob)
			}
			for _, layout := range []struct {
				f    codec.Format
				want uint32
			}{{Format(), gc.chw}, {FormatHWC(), gc.hwc}} {
				cd, err := layout.f.Open(blob)
				if err != nil {
					t.Fatal(err)
				}
				out, err := codec.Decode(cd)
				if err != nil {
					t.Fatal(err)
				}
				if got := crcF16(out); got != layout.want {
					t.Errorf("%s output digest %#08x, want %#08x", layout.f.Name(), got, layout.want)
				}
			}
		})
	}
}
