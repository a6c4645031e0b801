#include "fft/real.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "fft/stockham.hpp"
#include "fft/twiddle.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "tensor/simd.hpp"

namespace turbofno::fft {

namespace {

void check_real_size(std::size_t n) {
  if (n < 4 || !is_pow2(n)) {
    throw std::invalid_argument("real FFT: n must be a power of two >= 4");
  }
}

// Closed-form FLOP estimate for the half-size complex Stockham transform
// (5 n log2 n, the classic complex-FFT count) — the real plans drive the
// kernel directly rather than through an FftPlan, so they account the same
// way the 2D stage counters do.
std::uint64_t half_fft_flops(std::size_t m) {
  return static_cast<std::uint64_t>(5 * m * log2u(m));
}

}  // namespace

RfftPlan::RfftPlan(std::size_t n, std::size_t keep) : n_(n), keep_(keep == 0 ? n / 2 + 1 : keep) {
  check_real_size(n);
  if (keep_ > n / 2 + 1) throw std::invalid_argument("RfftPlan: keep > n/2+1");
  w_ = twiddles_for(n).forward(n);  // W_n^k, k < n/2
  (void)twiddles_for(n / 2);
  flops_ = half_fft_flops(n / 2) + 16u * keep_;  // untangle: ~16 flops/bin
}

void RfftPlan::execute_one(const float* in, std::ptrdiff_t in_stride, c32* out,
                           std::ptrdiff_t out_stride, std::span<c32> work) const {
  using B = simd::Active;
  const std::size_t m = n_ / 2;
  assert(work.size() >= scratch_elems());
  c32* z = work.data();

  // Pack even/odd samples into a half-length complex signal.  Contiguous
  // input: (x[2j], x[2j+1]) pairs are exactly the c32 layout — one memcpy.
  if (in_stride == 1) {
    std::memcpy(z, in, m * sizeof(c32));
  } else {
    for (std::size_t j = 0; j < m; ++j) {
      z[j] = {in[static_cast<std::ptrdiff_t>(2 * j) * in_stride],
              in[static_cast<std::ptrdiff_t>(2 * j + 1) * in_stride]};
    }
  }
  stockham_forward({z, m}, work.subspan(m, m), m);

  // Untangle: E[k] = (Z[k] + conj(Z[m-k]))/2, O[k] = (Z[k]-conj(Z[m-k]))/(2i),
  // X[k] = E[k] + W_n^k O[k]; X[m] = E[0] - O[0].
  //
  // DC/Nyquist peel: both reduce to combinations of Z[0] alone and are real
  // by construction (the general k = 0 formula collapses to the same values).
  const std::size_t kmax = std::min(keep_, m);
  out[0] = c32{z[0].re + z[0].im, 0.0f};
  assert(out[0].im == 0.0f);
  if (keep_ == m + 1) {
    out[static_cast<std::ptrdiff_t>(m) * out_stride] = c32{z[0].re - z[0].im, 0.0f};
    assert(out[static_cast<std::ptrdiff_t>(m) * out_stride].im == 0.0f);
  }
  std::size_t k = 1;
  if (out_stride == 1) {
    // Lanes k..k+P-1 ascending; the conjugate-mirror operand Z[m-k] descends,
    // so it is one contiguous load at m-k-P+1 reversed in-register.
    constexpr std::size_t P = B::planes;
    for (; k + P <= kmax; k += P) {
      const auto zk = B::pload(z + k);
      const auto zmk = B::pconj(B::preverse(B::pload(z + (m - k - (P - 1)))));
      const auto e = B::pscale(B::padd(zk, zmk), 0.5f);
      const auto o = B::pmul_neg_i(B::pscale(B::psub(zk, zmk), 0.5f));
      B::pstore(out + k, B::pcmadd(e, B::pload(w_.data() + k), o));
    }
  }
  for (; k < kmax; ++k) {
    const c32 zk = z[k];
    const c32 zmk = conj(z[m - k]);
    const c32 e = 0.5f * (zk + zmk);
    const c32 o = mul_neg_i(0.5f * (zk - zmk));  // divide by 2i
    out[static_cast<std::ptrdiff_t>(k) * out_stride] = e + w_[k] * o;
  }
}

void RfftPlan::execute(std::span<const float> in, std::span<c32> out, std::size_t batch) const {
  const std::size_t n = n_;
  if (in.size() < batch * n || out.size() < batch * keep_) {
    throw std::invalid_argument("RfftPlan::execute: spans too small");
  }
  runtime::parallel_for(0, batch, std::max<std::size_t>(1, 32768 / n),
                        [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    const std::span<c32> work = arena.alloc<c32>(scratch_elems());
    for (std::size_t b = lo; b < hi; ++b) {
      execute_one(in.data() + b * n, 1, out.data() + b * keep_, 1, work);
    }
  });
}

IrfftPlan::IrfftPlan(std::size_t n, std::size_t nonzero)
    : n_(n), nonzero_(nonzero == 0 ? n / 2 + 1 : nonzero) {
  check_real_size(n);
  if (nonzero_ > n / 2 + 1) throw std::invalid_argument("IrfftPlan: nonzero > n/2+1");
  wi_ = twiddles_for(n).inverse(n);  // conj(W_n^k), k < n/2
  (void)twiddles_for(n / 2);
  flops_ = half_fft_flops(n / 2) + 16u * (n / 2);  // retangle: ~16 flops/bin
}

void IrfftPlan::execute_one(const c32* in, std::ptrdiff_t in_stride, float* out,
                            std::ptrdiff_t out_stride, std::span<c32> work) const {
  using B = simd::Active;
  const std::size_t m = n_ / 2;
  assert(work.size() >= 3 * m + 1);
  c32* X = work.data();           // m + 1 padded half-spectrum
  c32* z = work.data() + m + 1;   // m retangled half-size signal
  const std::span<c32> fwork = work.subspan(2 * m + 1, m);

  if (in_stride == 1) {
    std::memcpy(X, in, nonzero_ * sizeof(c32));
  } else {
    for (std::size_t kk = 0; kk < nonzero_; ++kk) {
      X[kk] = in[static_cast<std::ptrdiff_t>(kk) * in_stride];
    }
  }
  for (std::size_t kk = nonzero_; kk <= m; ++kk) X[kk] = c32{};
  // Hermitian projection: the DC bin (and the Nyquist bin when stored) must
  // be real for the output to be real; drop any imaginary residue so every
  // stored prefix maps to Re(ifft(hermitian_extend(X))).
  X[0].im = 0.0f;
  if (nonzero_ == m + 1) X[m].im = 0.0f;

  // Re-tangle: E[k] = (X[k] + conj(X[m-k]))/2,
  // O[k] = conj(W^k) (X[k] - conj(X[m-k]))/2, Z[k] = E[k] + i O[k].
  std::size_t k = 0;
  {
    constexpr std::size_t P = B::planes;
    for (; k + P <= m; k += P) {
      const auto xk = B::pload(X + k);
      const auto xmk = B::pconj(B::preverse(B::pload(X + (m - k - (P - 1)))));
      const auto e = B::pscale(B::padd(xk, xmk), 0.5f);
      const auto o = B::pcmul(B::pload(wi_.data() + k), B::pscale(B::psub(xk, xmk), 0.5f));
      B::pstore(z + k, B::padd(e, B::pmul_pos_i(o)));
    }
  }
  for (; k < m; ++k) {
    const c32 xk = X[k];
    const c32 xmk = conj(X[m - k]);
    const c32 e = 0.5f * (xk + xmk);
    const c32 o = wi_[k] * (0.5f * (xk - xmk));
    z[k] = e + mul_pos_i(o);
  }
  stockham_inverse({z, m}, fwork, m, /*scale=*/true);

  // Unpack the interleaved half-size signal back into 2m real samples.
  if (out_stride == 1) {
    std::memcpy(out, z, m * sizeof(c32));
  } else {
    for (std::size_t j = 0; j < m; ++j) {
      out[static_cast<std::ptrdiff_t>(2 * j) * out_stride] = z[j].re;
      out[static_cast<std::ptrdiff_t>(2 * j + 1) * out_stride] = z[j].im;
    }
  }
}

void IrfftPlan::execute(std::span<const c32> in, std::span<float> out,
                        std::size_t batch) const {
  const std::size_t n = n_;
  if (in.size() < batch * nonzero_ || out.size() < batch * n) {
    throw std::invalid_argument("IrfftPlan::execute: spans too small");
  }
  runtime::parallel_for(0, batch, std::max<std::size_t>(1, 32768 / n),
                        [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    const std::span<c32> work = arena.alloc<c32>(scratch_elems());
    for (std::size_t b = lo; b < hi; ++b) {
      execute_one(in.data() + b * nonzero_, 1, out.data() + b * n, 1, work);
    }
  });
}

}  // namespace turbofno::fft
