// Stockham autosort FFT kernel (radix-2, out-of-place, ping-pong buffers).
//
// This is the "fast path" for full (untruncated, unpadded) transforms: the
// autosort structure gives contiguous loads at every stage and natural-order
// output with no bit-reversal pass, the same property the paper relies on for
// coalesced global-memory reads (Section 3.2).
#pragma once

#include <cstddef>
#include <span>

#include "tensor/complex.hpp"

namespace turbofno::fft {

/// Forward n-point transform of `io` (natural order in and out).
/// `work` must hold at least n elements; contents are scratch.
/// Precondition: n is a power of two, io.size() == n, work.size() >= n.
/// Mixed radix-4/2: radix-4 passes with a radix-2 tail for odd log2(n).
void stockham_forward(std::span<c32> io, std::span<c32> work, std::size_t n);

/// Inverse n-point transform; when `scale` is true the result is divided by
/// n (matching cuFFT's convention of unscaled inverse is `scale = false`).
void stockham_inverse(std::span<c32> io, std::span<c32> work, std::size_t n, bool scale);

/// Column-vectorized transform of `cols` n-point signals stored interleaved
/// as [n][cols] rows (element x of signal c at io[x * cols + c]), the
/// layout of `cols` adjacent columns of a row-major 2D field.  Every pass
/// runs across the columns, so with cols >= the SIMD width no pass takes a
/// sub-lane path.  `work` (n * cols elements) is the ping-pong buffer; the
/// result lands in io or work, and the returned pointer says which.  For
/// n >= 16 and cols a multiple of the SIMD width each signal gets exactly
/// the arithmetic of stockham_forward/_inverse; otherwise the first passes
/// of the one-signal transform run on the scalar tail, with an unfused
/// complex multiply, and the two agree only to rounding.  That is why
/// FftPlan::execute_blocked runs only full 8-column blocks here and sends
/// every other signal through execute_one.
c32* stockham_columns(c32* io, c32* work, std::size_t n, std::size_t cols, bool inverse,
                      bool scale);

/// Pure radix-2 variants, kept as the verification twin of the mixed-radix
/// kernel (tests assert both agree to rounding).
void stockham_forward_radix2(std::span<c32> io, std::span<c32> work, std::size_t n);
void stockham_inverse_radix2(std::span<c32> io, std::span<c32> work, std::size_t n, bool scale);

}  // namespace turbofno::fft
