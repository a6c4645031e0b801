#include "fft/stockham.hpp"

#include <cassert>
#include <utility>

#include "fft/kernels.hpp"
#include "fft/twiddle.hpp"
#include "tensor/simd.hpp"

namespace turbofno::fft {

namespace {

// The pass kernels live in fft/kernels.hpp, templated on the SIMD backend;
// the library runs whichever backend it was compiled against.
using Backend = simd::Active;

// Runs the passes of an n-point transform over `a`, ping-ponging with `b`,
// and returns the buffer holding the natural-order result.  `s` is the
// stride the first pass starts at: 1 for one contiguous signal, or `cols`
// for that many signals interleaved element by element (element x of signal
// c at x * cols + c).  The twiddles depend only on the butterfly index, so
// the interleaved signals are just the innermost (q) run of every pass.
template <bool Inverse, bool Radix2Only>
c32* stockham_passes(c32* a, c32* b, std::size_t n, std::size_t s) {
  assert(is_pow2(n));
  const TwiddleTable& tw = twiddles_for(n);
  std::size_t len = n;  // current sub-transform length
  while (len > 1) {
    const std::span<const c32> w = Inverse ? tw.inverse(len) : tw.forward(len);
    if (!Radix2Only && len % 4 == 0) {
      kernels::pass_radix4<Backend, Inverse>(a, b, len / 4, s, w);
      len /= 4;
      s *= 4;
    } else {
      kernels::pass_radix2<Backend, Inverse>(a, b, len / 2, s, w);
      len /= 2;
      s *= 2;
    }
    std::swap(a, b);
  }
  return a;
}

template <bool Inverse, bool Radix2Only>
void stockham_run(std::span<c32> io, std::span<c32> work, std::size_t n) {
  assert(io.size() == n && work.size() >= n);
  const c32* a = stockham_passes<Inverse, Radix2Only>(io.data(), work.data(), n, 1);
  if (a != io.data()) {
    for (std::size_t i = 0; i < n; ++i) io[i] = a[i];
  }
}

void scale_by(c32* io, std::size_t count, std::size_t n) {
  const float inv = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < count; ++i) io[i] *= inv;
}

}  // namespace

void stockham_forward(std::span<c32> io, std::span<c32> work, std::size_t n) {
  stockham_run<false, false>(io, work, n);
}

void stockham_inverse(std::span<c32> io, std::span<c32> work, std::size_t n, bool scale) {
  stockham_run<true, false>(io, work, n);
  if (scale) scale_by(io.data(), n, n);
}

void stockham_forward_radix2(std::span<c32> io, std::span<c32> work, std::size_t n) {
  stockham_run<false, true>(io, work, n);
}

void stockham_inverse_radix2(std::span<c32> io, std::span<c32> work, std::size_t n, bool scale) {
  stockham_run<true, true>(io, work, n);
  if (scale) scale_by(io.data(), n, n);
}

c32* stockham_columns(c32* io, c32* work, std::size_t n, std::size_t cols, bool inverse,
                      bool scale) {
  assert(cols > 0);
  c32* out = inverse ? stockham_passes<true, false>(io, work, n, cols)
                     : stockham_passes<false, false>(io, work, n, cols);
  if (inverse && scale) scale_by(out, n * cols, n);
  return out;
}

}  // namespace turbofno::fft
