// Package fp16 implements IEEE 754 binary16 (half-precision) conversion and
// slice kernels.
//
// The paper's decoders emit half-precision samples to feed mixed-precision
// training pipelines ("a floating-point format not supported by the
// decompression frameworks we are aware of", §III). Go has no native float16,
// so this package provides software conversion with round-to-nearest-even,
// full denormal support, and Inf/NaN propagation, plus bulk conversion
// kernels used on the (simulated) accelerator and host decode paths.
package fp16

import "math"

// Bits is a raw IEEE 754 binary16 value. The zero value is +0.
type Bits uint16

const (
	// PositiveInfinity and NegativeInfinity are the binary16 infinities.
	PositiveInfinity Bits = 0x7C00
	NegativeInfinity Bits = 0xFC00
	// QuietNaN is a canonical binary16 NaN.
	QuietNaN Bits = 0x7E00

	signMask16 = 0x8000
	expMask16  = 0x7C00
	manMask16  = 0x03FF

	// MaxValue is the largest finite binary16 value (65504).
	MaxValue float32 = 65504
	// SmallestNormal is the smallest positive normal binary16 value (2^-14).
	SmallestNormal float32 = 6.103515625e-05
	// SmallestSubnormal is the smallest positive binary16 value (2^-24).
	SmallestSubnormal float32 = 5.9604644775390625e-08
)

// FromFloat32 converts an FP32 value to binary16 with round-to-nearest-even.
// Values exceeding the binary16 range become infinities; NaN payload top bit
// is forced so NaNs stay NaNs.
func FromFloat32(f float32) Bits {
	if h, ok := FromFloat32Normal(f); ok {
		return h
	}
	return fromFloat32Slow(math.Float32bits(f))
}

// FromFloat32Normal is FromFloat32's branch-free fast path, small enough to
// inline into per-value loops: for magnitudes in [2^-14, 2^16), whose
// binary16 result is normal or rounds up to Inf, it returns
// FromFloat32(f), true. For every other input (zeros, binary16 subnormals
// and underflow, overflow, Inf, NaN) it returns false and the caller falls
// back to FromFloat32.
func FromFloat32Normal(f float32) (Bits, bool) {
	b := math.Float32bits(f)
	a := b & 0x7FFFFFFF
	// Rebiasing the exponent (127 -> 15) is one subtraction of 112<<23;
	// adding 0xFFF plus the kept LSB before the shift rounds the 13 dropped
	// bits to nearest even, and a rounding carry out of the largest finite
	// value lands exactly on 0x7C00 (Inf).
	h := Bits(b>>16)&signMask16 | Bits((a-0x38000000+0xFFF+(a>>13)&1)>>13)
	return h, a-0x38800000 < 0x0F000000
}

// fromFloat32Slow converts the inputs FromFloat32Normal leaves out: zeros,
// values that become binary16 subnormals or underflow, values that overflow,
// Inf and NaN. Normal-range inputs never reach it.
func fromFloat32Slow(b uint32) Bits {
	sign := Bits(b>>16) & signMask16
	exp := int32(b>>23) & 0xFF
	man := b & 0x7FFFFF

	switch {
	case exp == 0xFF: // Inf or NaN
		if man != 0 {
			// NaN: keep top mantissa bits, force quiet bit.
			return sign | expMask16 | 0x0200 | Bits(man>>13)
		}
		return sign | expMask16
	case exp == 0 && man == 0: // signed zero
		return sign
	}

	// Unbiased exponent.
	e := exp - 127
	switch {
	case e > 15: // overflow -> Inf
		return sign | expMask16
	case e >= -25: // subnormal range (incl. values that may round up to 2^-24)
		// Implicit leading 1 becomes explicit; shift right by the deficit.
		man |= 0x800000
		shift := uint32(-e - 14 + 13) // total bits dropped
		m := man >> shift
		dropped := man & ((1 << shift) - 1)
		half := uint32(1) << (shift - 1)
		if dropped > half || (dropped == half && m&1 == 1) {
			m++
		}
		// m may round up to the smallest normal; the encoding is contiguous
		// so simple addition is still correct.
		return sign | Bits(m)
	default: // underflow to signed zero
		return sign
	}
}

// ToFloat32 converts a binary16 value to FP32 exactly (every binary16 value
// is representable in FP32).
func (h Bits) ToFloat32() float32 {
	sign := uint32(h&signMask16) << 16
	exp := uint32(h&expMask16) >> 10
	man := uint32(h & manMask16)

	switch {
	case exp == 0x1F: // Inf/NaN
		return math.Float32frombits(sign | 0x7F800000 | man<<13)
	case exp != 0: // normal
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	case man != 0: // subnormal: value = man * 2^-24
		// Normalize into FP32.
		e := uint32(113)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= manMask16
		return math.Float32frombits(sign | e<<23 | man<<13)
	default: // signed zero
		return math.Float32frombits(sign)
	}
}

// IsNaN reports whether h is a NaN.
func (h Bits) IsNaN() bool {
	return h&expMask16 == expMask16 && h&manMask16 != 0
}

// IsInf reports whether h is an infinity. sign > 0 checks +Inf, sign < 0
// checks -Inf, sign == 0 checks either.
func (h Bits) IsInf(sign int) bool {
	if h&expMask16 != expMask16 || h&manMask16 != 0 {
		return false
	}
	neg := h&signMask16 != 0
	return sign == 0 || (sign > 0 && !neg) || (sign < 0 && neg)
}

// Neg returns h with its sign flipped.
func (h Bits) Neg() Bits { return h ^ signMask16 }

// FromSlice converts src FP32 values into dst binary16 values.
// It panics if dst is shorter than src.
func FromSlice(dst []Bits, src []float32) {
	_ = dst[:len(src)]
	for i, f := range src {
		h, ok := FromFloat32Normal(f)
		if !ok {
			h = fromFloat32Slow(math.Float32bits(f))
		}
		dst[i] = h
	}
}

// ToSlice converts src binary16 values into dst FP32 values.
// It panics if dst is shorter than src.
func ToSlice(dst []float32, src []Bits) {
	_ = dst[:len(src)]
	for i, h := range src {
		dst[i] = h.ToFloat32()
	}
}

// RoundTrip32 returns f after an FP32 -> binary16 -> FP32 round trip. It is
// the quantization the mixed-precision sample path applies.
func RoundTrip32(f float32) float32 { return FromFloat32(f).ToFloat32() }

// ULP returns the spacing between h and the next representable binary16
// value of larger magnitude, as an FP32 value. For Inf/NaN it returns NaN.
func (h Bits) ULP() float32 {
	if h&expMask16 == expMask16 {
		return float32(math.NaN())
	}
	exp := int32(h&expMask16) >> 10
	if exp == 0 {
		return SmallestSubnormal
	}
	// ulp = 2^(e-10) with e = exp-15.
	return float32(math.Ldexp(1, int(exp-15-10)))
}
