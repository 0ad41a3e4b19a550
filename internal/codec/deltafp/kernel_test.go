package deltafp

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/fp16"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
)

// legacyDeltaBits is the per-value bit assembly of the original decode loop:
// sign, exponent offset and mantissa cut out of the byte and reassembled.
func legacyDeltaBits(b byte, minExp uint8, mantBits int) uint32 {
	shift := uint(23 - mantBits)
	mantMask := byte(1<<uint(mantBits) - 1)
	expMask := byte(1<<uint(7-mantBits) - 1)
	sign := uint32(b>>7) << 31
	off := uint32((b >> uint(mantBits)) & expMask)
	mant := uint32(b & mantMask)
	return sign | (uint32(minExp)+off)<<23 | mant<<shift
}

// legacyDecodeDeltaLine is the original DELTA-line loop, kept as the
// reference for the table-driven kernel: it branches around the add on the
// reserved zero byte and assembles every delta's bits from the byte.
func legacyDecodeDeltaLine(line []byte, out []fp16.Bits, mantBits int) error {
	nsegs := int(binary.LittleEndian.Uint16(line[1:]))
	pos := 3
	emitted := 0
	for s := 0; s < nsegs; s++ {
		if pos+7 > len(line) {
			return errors.New("deltafp: truncated segment header")
		}
		pivot := math.Float32frombits(binary.LittleEndian.Uint32(line[pos:]))
		minExp := line[pos+4]
		count := int(binary.LittleEndian.Uint16(line[pos+5:]))
		pos += 7
		if count < 1 || emitted+count > len(out) || pos+count-1 > len(line) {
			return errors.New("deltafp: segment overruns line")
		}
		v := pivot
		out[emitted] = fp16.FromFloat32(v)
		emitted++
		for k := 0; k < count-1; k++ {
			if b := line[pos+k]; b != 0 {
				v += math.Float32frombits(legacyDeltaBits(b, minExp, mantBits))
			}
			out[emitted] = fp16.FromFloat32(v)
			emitted++
		}
		pos += count - 1
	}
	if emitted != len(out) || pos != len(line) {
		return errors.New("deltafp: line did not decode to full width")
	}
	return nil
}

// TestDeltaCodesExhaustive checks every (mantissa width, segment minimum
// exponent, byte) delta code: nonzero bytes reproduce the original bit
// assembly exactly, including minExp+offset >= 256 spilling into the sign
// bit, and the zero byte decodes to -0, the additive identity.
func TestDeltaCodesExhaustive(t *testing.T) {
	for m := 1; m <= 6; m++ {
		for minExp := 0; minExp < 256; minExp++ {
			for b := 0; b < 256; b++ {
				got := deltaBits(byte(b), uint32(minExp), &deltaSignMant[m], &deltaExpOff[m])
				want := uint32(negZero)
				if b != 0 {
					want = legacyDeltaBits(byte(b), uint8(minExp), m)
				}
				if got != want {
					t.Fatalf("mantBits=%d minExp=%d byte=%#02x: bits %#08x, want %#08x", m, minExp, b, got, want)
				}
			}
		}
	}
}

// TestNegZeroIsAdditiveIdentity pins the identity the zero-byte select rests
// on, over signed zeros, subnormals, normals, extremes and infinities.
func TestNegZeroIsAdditiveIdentity(t *testing.T) {
	for _, bits := range []uint32{
		0, negZero, 1, 0x80000001, 0x007FFFFF, 0x00800000, 0x3F800000,
		0xBF800000, 0x7F7FFFFF, 0xFF7FFFFF, 0x7F800000, 0xFF800000,
	} {
		v := math.Float32frombits(bits)
		if got := math.Float32bits(v + math.Float32frombits(negZero)); got != bits {
			t.Errorf("%#08x + -0 = %#08x", bits, got)
		}
	}
}

// deltaSeg is one DELTA segment: pivot bits, minimum exponent and the code
// bytes that follow the pivot.
type deltaSeg struct {
	pivot  uint32
	minExp uint8
	codes  []byte
}

// deltaLine assembles a DELTA line: nsegs, then per segment the pivot bits,
// minExp, count and the count-1 code bytes.
func deltaLine(segs ...deltaSeg) []byte {
	line := binary.LittleEndian.AppendUint16([]byte{modeDelta}, uint16(len(segs)))
	for _, s := range segs {
		line = binary.LittleEndian.AppendUint32(line, s.pivot)
		line = append(line, s.minExp)
		line = binary.LittleEndian.AppendUint16(line, uint16(len(s.codes)+1))
		line = append(line, s.codes...)
	}
	return line
}

// FuzzDeltaLineDifferential decodes arbitrary DELTA-line bytes with the
// original loop and with the table-driven kernel, at stride 1 and at a
// strided (HWC-style) destination. Outputs, including partial output left
// by a framing error, and errors must match; the kernel must not write
// between its strided slots. The only latitude is a NaN's payload when a NaN
// delta meets a NaN running value.
func FuzzDeltaLineDifferential(f *testing.F) {
	f.Add(deltaLine(deltaSeg{0x3F800000, 120, []byte{0x00, 0x11, 0x91, 0x00, 0x7F, 0xFF}})[1:], uint8(4), uint16(7))
	// A -0 pivot followed by zero bytes stays -0.
	f.Add(deltaLine(deltaSeg{negZero, 0, []byte{0, 0, 0}}, deltaSeg{0, 0, []byte{0}})[1:], uint8(3), uint16(6))
	// A signaling-NaN pivot: adding -0 quiets it, the fp16 output is the same.
	f.Add(deltaLine(deltaSeg{0x7F800001, 7, []byte{0, 0, 0x40}})[1:], uint8(2), uint16(4))
	// minExp + offset >= 256 wraps into the sign bit.
	f.Add(deltaLine(deltaSeg{0x47000000, 250, []byte{0x7F, 0x3F, 0xC1}})[1:], uint8(1), uint16(4))
	// Framing errors: overrun, truncated header, short line.
	f.Add(deltaLine(deltaSeg{0x3F800000, 120, []byte{1, 2}})[1:], uint8(4), uint16(2))
	f.Add([]byte{2, 0, 0, 0, 0x80}, uint8(5), uint16(3))
	f.Add(deltaLine(deltaSeg{0x3F800000, 120, []byte{1}})[1:], uint8(6), uint16(5))
	f.Fuzz(func(t *testing.T, body []byte, mant uint8, width uint16) {
		line := append([]byte{modeDelta}, body...)
		if len(line) < 3 { // Open rejects shorter DELTA lines
			return
		}
		mantBits := 1 + int(mant)%6
		w := 1 + int(width)%512
		const sentinel = fp16.Bits(0xDEAD)
		want := make([]fp16.Bits, w)
		for i := range want {
			want[i] = sentinel
		}
		wantErr := legacyDecodeDeltaLine(line, want, mantBits)
		for _, stride := range []int{1, 3} {
			got := make([]fp16.Bits, (w-1)*stride+1)
			for i := range got {
				got[i] = sentinel
			}
			err := decodeDeltaLine(line, got, w, stride, &deltaSignMant[mantBits], &deltaExpOff[mantBits])
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("stride %d: error %v, want %v", stride, err, wantErr)
			}
			for i, h := range got {
				if i%stride != 0 {
					if h != sentinel {
						t.Fatalf("stride %d: wrote between slots at %d", stride, i)
					}
					continue
				}
				// NaN + NaN may return either operand's payload: Go leaves
				// it unspecified and the compiler is free to commute the add.
				if h != want[i/stride] && !(h.IsNaN() && want[i/stride].IsNaN()) {
					t.Fatalf("stride %d: value %d is %#04x, want %#04x", stride, i/stride, h, want[i/stride])
				}
			}
		}
	})
}

// TestDecodeChunkAllocFree pins both layouts' per-line decode at zero heap
// allocations: the decoders are //scipp:hotpath roots.
func TestDecodeChunkAllocFree(t *testing.T) {
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels, cfg.Height, cfg.Width = 2, 8, 96
	s, err := synthetic.GenerateClimate(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob := mustEncode(t, s.Data, Options{})
	for _, f := range []codec.Format{Format(), FormatHWC()} {
		cd, err := f.Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		dst := tensor.New(cd.OutputDType(), cd.OutputShape()...)
		allocs := testing.AllocsPerRun(20, func() {
			if err := codec.DecodeInto(cd, dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per decode, want 0", f.Name(), allocs)
		}
	}
}

// hostileHeader is a 64-byte blob claiming C = H = 0xFFFFFFFF, W = 1: C*H
// overflows, so before the header bounds it slipped past every size guard.
func hostileHeader() []byte {
	blob := make([]byte, 64)
	binary.LittleEndian.PutUint32(blob[0:], blobMagic)
	binary.LittleEndian.PutUint32(blob[4:], 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(blob[8:], 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(blob[12:], 1)
	binary.LittleEndian.PutUint32(blob[16:], 3)
	return blob
}

func TestOpenRejectsHostileHeaders(t *testing.T) {
	withDims := func(c, h uint32, size int) []byte {
		blob := hostileHeader()[:20]
		binary.LittleEndian.PutUint32(blob[4:], c)
		binary.LittleEndian.PutUint32(blob[8:], h)
		return append(blob, make([]byte, size-20)...)
	}
	for name, blob := range map[string][]byte{
		"C*H overflows":          hostileHeader(),
		"C alone exceeds blob":   withDims(0xFFFFFFFF, 1, 64),
		"H alone exceeds blob":   withDims(1, 0xFFFFFFFF, 64),
		"one line too many":      withDims(3, 4, 20+4*12), // 12 lines need 13 offsets
		"no room for one line":   withDims(1, 1, 20+4),    // needs 2 offsets
		"product at 2^32 blocks": withDims(1<<16, 1<<16, 64),
	} {
		for _, f := range []codec.Format{Format(), FormatHWC()} {
			_, err := f.Open(blob)
			var he *HeaderError
			if !errors.As(err, &he) {
				t.Errorf("%s: %s Open error %v, want *HeaderError", name, f.Name(), err)
			}
		}
	}
	// At the bound exactly the header is accepted and the offset table is
	// what gets checked next.
	if _, err := Format().Open(withDims(3, 4, 20+4*13)); err == nil || errors.As(err, new(*HeaderError)) {
		t.Errorf("12 lines in a 13-offset blob: error %v, want an offset-table error", err)
	}
}

func TestOpenRejectsShortDeltaLine(t *testing.T) {
	blob := hostileHeader()[:20]
	binary.LittleEndian.PutUint32(blob[4:], 1)
	binary.LittleEndian.PutUint32(blob[8:], 1)
	binary.LittleEndian.PutUint32(blob[12:], 4)
	blob = binary.LittleEndian.AppendUint32(blob, 0)
	blob = binary.LittleEndian.AppendUint32(blob, 2)
	blob = append(blob, modeDelta, 1)
	if _, err := Format().Open(blob); err == nil {
		t.Error("2-byte DELTA line accepted")
	}
}
