#include "baseline/pipeline1d.hpp"

#include <cstdint>

#include "baseline/memcopy_stages.hpp"
#include "fft/plan_cache.hpp"
#include "gemm/batched.hpp"
#include "runtime/timer.hpp"

namespace turbofno::baseline {

BaselinePipeline1d::BaselinePipeline1d(Spectral1dProblem prob)
    : fused::SpectralPipeline1d(prob, fused::variant_name(fused::Variant::PyTorch), "pytorch-1d"),
      fwd_full_(fft::acquire_plan({prob.n, fft::Direction::Forward})),
      inv_full_(fft::acquire_plan({prob.n, fft::Direction::Inverse})) {
  prob_.batch = 0;  // the intermediates grow from empty to the capacity hint
  reserve(prob.batch);
}

void BaselinePipeline1d::reserve(std::size_t batch) {
  if (batch <= prob_.batch) return;
  // Grow before bumping the capacity mark (exception safety).
  freq_full_.resize(batch * prob_.hidden * prob_.n);
  freq_trunc_.resize(batch * prob_.hidden * prob_.modes);
  mixed_.resize(batch * prob_.out_dim * prob_.modes);
  mixed_full_.resize(batch * prob_.out_dim * prob_.n);
  prob_.batch = batch;
}

void BaselinePipeline1d::run_batched(std::span<const c32> u, std::span<const c32> w,
                                     std::span<c32> v, std::size_t batch) {
  check_batch_spans(u.size(), v.size(), prob_.hidden * prob_.n, prob_.out_dim * prob_.n, batch,
                    "BaselinePipeline1d");
  run_lane(*fwd_full_, *inv_full_, prob_.n, prob_.modes, u, w, v, batch);
}

void BaselinePipeline1d::run_batched_real(std::span<const float> u, std::span<const c32> w,
                                          std::span<float> v, std::size_t batch) {
  check_batch_spans(u.size(), v.size(), prob_.hidden * prob_.n, prob_.out_dim * prob_.n, batch,
                    "BaselinePipeline1d(real)");
  if (!rfwd_full_) {
    rinv_full_ = fft::acquire_irfft_plan(prob_.n);  // all n/2+1 bins stored
    rfwd_full_ = fft::acquire_rfft_plan(prob_.n);
  }
  run_lane(*rfwd_full_, *rinv_full_, prob_.n / 2 + 1, prob_.modes / 2 + 1, u, w, v, batch);
}

template <class T, class FwdPlan, class InvPlan>
void BaselinePipeline1d::run_lane(const FwdPlan& fwd, const InvPlan& inv, std::size_t full,
                                  std::size_t kept, std::span<const T> u,
                                  std::span<const c32> w, std::span<T> v, std::size_t batch) {
  reserve(batch);
  counters_.clear();
  if (batch == 0) return;
  const std::uint64_t B = batch;
  const std::uint64_t K = prob_.hidden;
  const std::uint64_t O = prob_.out_dim;
  const std::uint64_t N = prob_.n;

  // Stage 1: full forward transform of every (batch, channel) signal; all
  // `full` bins are stored (no built-in filtering).
  {
    runtime::Timer t;
    fwd.execute(u.first(B * K * N), freq_full_.span().first(B * K * full), B * K);
    auto& sc = counters_.stage("fft");
    sc.seconds = t.seconds();
    sc.bytes_read = B * K * N * sizeof(T);
    sc.bytes_written = B * K * full * sizeof(c32);
    sc.flops = B * K * fwd.flops_per_signal();
    sc.kernel_launches = 1;
  }

  // Stage 2: truncate memcopy (cuFFT has no built-in filtering).
  {
    runtime::Timer t;
    truncate_copy_2d(freq_full_.span().first(B * K * full), freq_trunc_.span().first(B * K * kept),
                     B * K, 1, full, 1, kept, &counters_.stage("truncate-copy"));
    counters_.stage("truncate-copy").seconds = t.seconds();
  }

  // Stage 3: batched CGEMM along the hidden dimension:
  // mixed[b] [O x kept] = W [O x K] * freq_trunc[b] [K x kept].
  {
    runtime::Timer t;
    gemm::BatchedStrides strides;
    strides.a = 0;  // the weight matrix is shared across the batch
    strides.b = static_cast<std::ptrdiff_t>(K * kept);
    strides.c = static_cast<std::ptrdiff_t>(O * kept);
    gemm::cgemm_batched(O, kept, K, c32{1.0f, 0.0f}, w.data(), K, freq_trunc_.data(), kept,
                        c32{0.0f, 0.0f}, mixed_.data(), kept, B, strides);
    auto& sc = counters_.stage("cgemm");
    sc.seconds = t.seconds();
    sc.bytes_read = (B * K * kept + O * K) * sizeof(c32);
    sc.bytes_written = B * O * kept * sizeof(c32);
    sc.flops = trace::cgemm_flops(B * kept, O, K);
    sc.kernel_launches = 1;  // one strided-batched cuBLAS call
  }

  // Stage 4: zero-pad memcopy back to the full spectrum.
  {
    runtime::Timer t;
    pad_copy_2d(mixed_.span().first(B * O * kept), mixed_full_.span().first(B * O * full), B * O,
                1, kept, 1, full, &counters_.stage("pad-copy"));
    counters_.stage("pad-copy").seconds = t.seconds();
  }

  // Stage 5: full inverse transform (the real lane's C2R extends the
  // Hermitian half-spectrum).
  {
    runtime::Timer t;
    inv.execute(mixed_full_.span().first(B * O * full), v.first(B * O * N), B * O);
    auto& sc = counters_.stage("ifft");
    sc.seconds = t.seconds();
    sc.bytes_read = B * O * full * sizeof(c32);
    sc.bytes_written = B * O * N * sizeof(T);
    sc.flops = B * O * inv.flops_per_signal();
    sc.kernel_launches = 1;
  }
}

}  // namespace turbofno::baseline
