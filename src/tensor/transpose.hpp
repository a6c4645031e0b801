// Cache-blocked complex matrix transpose on the SIMD layer.
//
// Used by the 2D FFT's X stages (fft/xblock.hpp) at their boundary with
// the y-major tiles of the fused pipelines: the forward moves the kept rows
// of each transformed column block into its [W, keep_x] tile block, and the
// inverse moves the stored rows of a tile block into [keep_x, W] rows.  The
// X transforms themselves run across adjacent columns and need no
// transpose.  The inner loop is a 4x4 tile held entirely in registers
// (B::ptranspose4, 8 shuffles on AVX2) and tiles are walked in TB x TB
// super-blocks so both the gather side and the scatter side stay resident
// in L1/L2.  Backends without packed 4-wide vectors (planes != 4) fall back
// to a scalar 4x4 tile, which keeps the blocked walk and its locality.
#pragma once

#include <cstddef>

#include "tensor/complex.hpp"
#include "tensor/simd.hpp"

namespace turbofno::simd {

/// Transposes one 4x4 c32 tile: dst[j * dst_stride + i] = src[i * src_stride + j].
/// Strides are in c32 units; src and dst must not overlap.
template <class B = Active>
inline void transpose4x4(const c32* src, std::size_t src_stride, c32* dst,
                         std::size_t dst_stride) noexcept {
  if constexpr (B::planes == 4) {
    auto r0 = B::pload(src);
    auto r1 = B::pload(src + src_stride);
    auto r2 = B::pload(src + 2 * src_stride);
    auto r3 = B::pload(src + 3 * src_stride);
    B::ptranspose4(r0, r1, r2, r3);
    B::pstore(dst, r0);
    B::pstore(dst + dst_stride, r1);
    B::pstore(dst + 2 * dst_stride, r2);
    B::pstore(dst + 3 * dst_stride, r3);
  } else {
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        dst[j * dst_stride + i] = src[i * src_stride + j];
      }
    }
  }
}

/// Blocked out-of-place transpose of a [rows, cols] c32 matrix:
///   dst[j * dst_stride + i] = src[i * src_stride + j]
/// for i < rows, j < cols.  Any rows/cols (edges run scalar); src and dst
/// must not overlap.
template <class B = Active>
void transpose(const c32* src, std::size_t src_stride, c32* dst, std::size_t dst_stride,
               std::size_t rows, std::size_t cols) noexcept {
  // 32x32 c32 super-block = 8 KiB read + 8 KiB written, comfortably L1-sized
  // alongside the FFT work buffers.
  constexpr std::size_t kBlock = 32;
  for (std::size_t r0 = 0; r0 < rows; r0 += kBlock) {
    const std::size_t r_lim = r0 + kBlock < rows ? r0 + kBlock : rows;
    for (std::size_t c0 = 0; c0 < cols; c0 += kBlock) {
      const std::size_t c_lim = c0 + kBlock < cols ? c0 + kBlock : cols;
      // Whole 4-row strips, bounded up front so GCC can see the row tail
      // below runs fewer than 4 times (see fft/kernels.hpp's `sv`).
      const std::size_t i_vec = r_lim - (r_lim - r0) % 4;
      std::size_t i = r0;
      for (; i < i_vec; i += 4) {
        std::size_t j = c0;
        for (; j + 4 <= c_lim; j += 4) {
          transpose4x4<B>(src + i * src_stride + j, src_stride, dst + j * dst_stride + i,
                          dst_stride);
        }
        for (; j < c_lim; ++j) {
          for (std::size_t di = 0; di < 4; ++di) {
            dst[j * dst_stride + i + di] = src[(i + di) * src_stride + j];
          }
        }
      }
      for (; i < r_lim; ++i) {
        for (std::size_t j = c0; j < c_lim; ++j) {
          dst[j * dst_stride + i] = src[i * src_stride + j];
        }
      }
    }
  }
}

}  // namespace turbofno::simd
