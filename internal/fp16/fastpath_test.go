package fp16

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// legacyFromFloat32 is FromFloat32 as it was before the fast path: one
// general conversion with explicit rounding for every input. It is the
// reference the exhaustive check compares against.
func legacyFromFloat32(f float32) Bits {
	b := math.Float32bits(f)
	sign := Bits(b>>16) & signMask16
	exp := int32(b>>23) & 0xFF
	man := b & 0x7FFFFF

	switch {
	case exp == 0xFF:
		if man != 0 {
			return sign | expMask16 | 0x0200 | Bits(man>>13)
		}
		return sign | expMask16
	case exp == 0 && man == 0:
		return sign
	}

	e := exp - 127
	switch {
	case e > 15:
		return sign | expMask16
	case e >= -14:
		m := man >> 13
		rem := man & 0x1FFF
		half := uint32(0x1000)
		if rem > half || (rem == half && m&1 == 1) {
			m++
		}
		h := (uint32(e+15) << 10) + m
		if h >= 0x7C00 {
			return sign | expMask16
		}
		return sign | Bits(h)
	case e >= -25:
		man |= 0x800000
		shift := uint32(-e - 14 + 13)
		m := man >> shift
		dropped := man & ((1 << shift) - 1)
		half := uint32(1) << (shift - 1)
		if dropped > half || (dropped == half && m&1 == 1) {
			m++
		}
		return sign | Bits(m)
	default:
		return sign
	}
}

// Fast-path domain: FP32 magnitudes [2^-14, 2^16).
const (
	fastLo = 0x38800000
	fastHi = 0x47800000
)

// TestFastPathExhaustive compares FromFloat32 and FromFloat32Normal with the
// legacy conversion on every FP32 bit pattern the fast path accepts, both
// signs, plus 2^16 patterns on each side of each domain edge. It is pure
// arithmetic with no shared state, so the race detector has nothing to find
// and would only make the sweep several times slower; plain test runs cover
// it.
func TestFastPathExhaustive(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("exhaustive: ~5e8 patterns")
	}
	const margin = 1 << 16
	check := func(lo, hi uint32) (bad uint32, found bool) {
		for a := lo; a < hi; a++ {
			for _, b := range [2]uint32{a, a | 0x80000000} {
				f := math.Float32frombits(b)
				want := legacyFromFloat32(f)
				h, ok := FromFloat32Normal(f)
				inDomain := a >= fastLo && a < fastHi
				if ok != inDomain || (ok && h != want) || FromFloat32(f) != want {
					return b, true
				}
			}
		}
		return 0, false
	}
	// Split [fastLo-margin, fastHi+margin) over the available CPUs.
	lo, hi := uint32(fastLo-margin), uint32(fastHi+margin)
	workers := runtime.GOMAXPROCS(0)
	step := (hi - lo + uint32(workers) - 1) / uint32(workers)
	var wg sync.WaitGroup
	bad := make([]uint32, workers)
	failed := make([]bool, workers)
	for i := 0; i < workers; i++ {
		a, b := lo+uint32(i)*step, lo+uint32(i+1)*step
		if b > hi {
			b = hi
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bad[i], failed[i] = check(a, b)
		}(i)
	}
	wg.Wait()
	for i := range bad {
		if failed[i] {
			b := bad[i]
			f := math.Float32frombits(b)
			h, ok := FromFloat32Normal(f)
			t.Errorf("bits %#08x (%g): FromFloat32 %#04x, FromFloat32Normal (%#04x, %v), legacy %#04x",
				b, f, FromFloat32(f), h, ok, legacyFromFloat32(f))
		}
	}
}

// TestSlowPathMatchesLegacy spot-checks the inputs outside the fast-path
// domain: zeros, subnormal and underflowing results, overflow, Inf and NaN
// payloads, on a stride through the rest of the FP32 space.
func TestSlowPathMatchesLegacy(t *testing.T) {
	for a := uint32(0); a < 0x80000000; a += 997 {
		if a >= fastLo && a < fastHi {
			a = fastHi
		}
		for _, b := range [2]uint32{a, a | 0x80000000} {
			f := math.Float32frombits(b)
			if got, want := FromFloat32(f), legacyFromFloat32(f); got != want {
				t.Fatalf("bits %#08x: FromFloat32 %#04x, legacy %#04x", b, got, want)
			}
			if _, ok := FromFloat32Normal(f); ok {
				t.Fatalf("bits %#08x outside the fast-path domain accepted", b)
			}
		}
	}
}
