// Bit-interleave kernels: the innermost arithmetic of every Morton-layout
// curve key (Z-order, Gray-code, and the Hilbert transpose) in one place,
// with hardware acceleration where the CPU offers it.
//
// Layout contract (identical to sfc/morton.h): for `dims` axes of `bits`
// bits each, bit q of axis i lands at interleaved position q*dims + i —
// axis 0 is least significant within each d-bit group. All kernels in this
// header compute exactly that function; they differ only in how.
//
//   InterleaveScalar /    the portable reference: one loop iteration per
//   DeinterleaveScalar    output bit, any dims in [1, kMaxDims].
//   InterleaveMagic2 / 3  portable magic-number (shift-and-mask) bit
//   DeinterleaveMagic2/3  spreading for the common 2D / 3D cases —
//                         O(log bits) masked shifts instead of O(bits)
//                         single-bit steps.
//   InterleaveBmi2 /      x86-64 BMI2 pdep/pext — one instruction per axis.
//   DeinterleaveBmi2      Compiled with a function-level target attribute,
//                         so the binary still runs on pre-BMI2 machines;
//                         call only when HasBmi2() is true.
//
// Interleave() / Deinterleave() are the dispatched entry points the curve
// code uses: BMI2 when the CPU has it (detected once, cached), otherwise
// the magic-number path for 2D/3D and the scalar loop for higher dims.
//
// Throughput of each path is measured by bench_curve_ops into
// BENCH_curve_ops.json; cross-path equivalence is proven exhaustively by
// tests/bits_test.cc.

#ifndef ONION_SFC_BITS_H_
#define ONION_SFC_BITS_H_

#include <cstdint>

#include "sfc/types.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ONION_BITS_HAVE_BMI2_KERNELS 1
#endif

namespace onion::bits {

/// True when the running CPU executes pdep/pext natively (checked once via
/// CPUID, cached). Always false on non-x86-64 builds.
bool HasBmi2();

/// Portable reference kernel: interleaves the low `bits` bits of each of
/// the `dims` coordinates, one output bit per step.
Key InterleaveScalar(const Coord* coords, int dims, int bits);
/// Inverse of InterleaveScalar; writes `dims` coordinates.
void DeinterleaveScalar(Key code, int dims, int bits, Coord* coords);

/// Magic-number 2D spread/compact (bits <= 32 per axis).
Key InterleaveMagic2(const Coord* coords);
void DeinterleaveMagic2(Key code, Coord* coords);
/// Magic-number 3D spread/compact (bits <= 21 per axis — the most a
/// 64-bit key can hold at dims == 3).
Key InterleaveMagic3(const Coord* coords);
void DeinterleaveMagic3(Key code, Coord* coords);

#if defined(ONION_BITS_HAVE_BMI2_KERNELS)
/// BMI2 kernels: one pdep (pext) per axis against a precomputed stride
/// mask. Callable only when HasBmi2() is true — the instructions are
/// emitted via a function target attribute, not a global -march flag.
Key InterleaveBmi2(const Coord* coords, int dims, int bits);
void DeinterleaveBmi2(Key code, int dims, int bits, Coord* coords);
#endif

/// Dispatched hot-path kernels: BMI2 when available, else magic-number for
/// dims 2/3, else the scalar loop. `dims` in [1, kMaxDims]; `bits` must
/// satisfy dims*bits <= 64 and, on the fallback paths, bits <= 32 (2D) /
/// 21 (3D) — the same envelope the curves themselves enforce.
Key Interleave(const Coord* coords, int dims, int bits);
void Deinterleave(Key code, int dims, int bits, Coord* coords);

}  // namespace onion::bits

#endif  // ONION_SFC_BITS_H_
