#include "core/spectral_conv.hpp"

#include <cmath>
#include <type_traits>
#include <utility>

#include "fft/plan_cache.hpp"
#include "fft/real.hpp"
#include "runtime/parallel.hpp"
#include "runtime/timer.hpp"

namespace turbofno::core {

void init_weights(std::span<c32> w, std::size_t fan_in, std::size_t fan_out, unsigned seed) {
  std::mt19937 rng(seed);
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  std::uniform_real_distribution<float> dist(-bound, bound);
  for (auto& x : w) x = {dist(rng), dist(rng)};
}

// ------------------------------------------------------------ SpectralConv1d

SpectralConv1d::SpectralConv1d(std::size_t batch, std::size_t hidden, std::size_t out_dim,
                               std::size_t n, std::size_t modes, Backend backend,
                               WeightScheme scheme, unsigned seed)
    : scheme_(scheme), backend_(backend) {
  prob_.batch = batch;
  prob_.hidden = hidden;
  prob_.out_dim = out_dim;
  prob_.n = n;
  prob_.modes = modes;
  prob_.validate();

  if (scheme_ == WeightScheme::Shared) {
    weights_.resize(out_dim * hidden);
    pipeline_ = fused::make_pipeline1d(backend, prob_);
  } else {
    weights_.resize(modes * out_dim * hidden);
    freq_.resize(batch * hidden * modes);
    mixed_.resize(batch * out_dim * modes);
  }
  init_weights(weights_.span(), hidden, out_dim, seed);
}

SpectralConv1d::~SpectralConv1d() = default;
SpectralConv1d::SpectralConv1d(SpectralConv1d&&) noexcept = default;
SpectralConv1d& SpectralConv1d::operator=(SpectralConv1d&&) noexcept = default;

void SpectralConv1d::forward(std::span<const c32> u, std::span<c32> v) {
  forward(u, v, prob_.batch);
}

void SpectralConv1d::forward(std::span<const c32> u, std::span<c32> v, std::size_t batch) {
  if (scheme_ == WeightScheme::Shared) {
    // Validate before reserving so a wild batch value throws instead of
    // attempting a batch-proportional allocation.
    baseline::check_batch_spans(u.size(), v.size(), prob_.hidden * prob_.n,
                                prob_.out_dim * prob_.n, batch, "SpectralConv1d");
    reserve(batch);
    pipeline_->run_batched(u, weights_.span(), v, batch);
  } else {
    forward_per_mode(u, v, batch);
  }
}

void SpectralConv1d::reserve(std::size_t batch) {
  if (batch <= prob_.batch) return;
  if (scheme_ == WeightScheme::Shared) {
    pipeline_->reserve(batch);
    if (pipeline_real_) pipeline_real_->reserve(batch);
  } else {
    // Grow before bumping the capacity mark (exception safety).
    freq_.resize(batch * prob_.hidden * prob_.modes);
    mixed_.resize(batch * prob_.out_dim * prob_.modes);
  }
  prob_.batch = batch;
}

const trace::PipelineCounters& SpectralConv1d::counters() const {
  return scheme_ == WeightScheme::Shared ? pipeline_->counters() : permode_counters_;
}

fused::SpectralPipeline1d& SpectralConv1d::real_pipeline() {
  // The half-spectrum working set can flip the Auto resolution; when both
  // lanes resolve to the same row, the complex pipeline serves both (every
  // concrete row implements run_batched_real on shared workspaces).
  if (fused::resolve_variant(backend_, prob_, true) ==
      fused::resolve_variant(backend_, prob_, false)) {
    return *pipeline_;
  }
  if (!pipeline_real_) pipeline_real_ = fused::make_pipeline1d(backend_, prob_, true);
  return *pipeline_real_;
}

void SpectralConv1d::forward_real(std::span<const float> u, std::span<float> v,
                                  std::size_t batch) {
  if (scheme_ != WeightScheme::Shared) {
    forward_per_mode(u, v, batch);
    return;
  }
  baseline::check_batch_spans(u.size(), v.size(), prob_.hidden * prob_.n,
                              prob_.out_dim * prob_.n, batch, "SpectralConv1d(real)");
  reserve(batch);
  real_pipeline().run_batched_real(u, weights_.span(), v, batch);
}

template <class T>
void SpectralConv1d::forward_per_mode(std::span<const T> u, std::span<T> v, std::size_t batch) {
  constexpr bool kReal = std::is_same_v<T, float>;
  baseline::check_batch_spans(u.size(), v.size(), prob_.hidden * prob_.n,
                              prob_.out_dim * prob_.n, batch,
                              kReal ? "SpectralConv1d(real)" : "SpectralConv1d");
  reserve(batch);
  if (batch == 0) return;
  const std::size_t B = batch;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t N = prob_.n;
  // Kept bins: the per-mode matrices f < M apply (the RFFT half-spectrum on
  // the real lane).
  const std::size_t M = kReal ? prob_.modes / 2 + 1 : prob_.modes;
  permode_counters_.clear();

  // The per-mode path is already the reference-grade unfused schedule, so
  // it drives the lane's truncated / zero-padded plans directly rather than
  // a ladder pipeline.
  const auto [fwd, inv] = [&] {
    if constexpr (kReal) {
      return std::pair{fft::acquire_rfft_plan(N, M), fft::acquire_irfft_plan(N, M)};
    } else {
      return std::pair{fft::acquire_plan({N, fft::Direction::Forward, M}),
                       fft::acquire_plan({N, fft::Direction::Inverse, 0, M})};
    }
  }();

  runtime::Timer t;
  fwd->execute(u.first(B * K * N), freq_.span().first(B * K * M), B * K);
  // Per-mode mixing: for each frequency f, an independent O x K matrix.
  runtime::parallel_for(0, B * M, 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t b = i / M;
      const std::size_t f = i % M;
      const c32* wf = weights_.data() + f * O * K;
      for (std::size_t o = 0; o < O; ++o) {
        c32 acc{};
        for (std::size_t k = 0; k < K; ++k) {
          cmadd(acc, wf[o * K + k], freq_[(b * K + k) * M + f]);
        }
        mixed_[(b * O + o) * M + f] = acc;
      }
    }
  });
  inv->execute(mixed_.span().first(B * O * M), v.first(B * O * N), B * O);

  auto& sc = permode_counters_.stage("per-mode-spectral-conv");
  sc.seconds = t.seconds();
  sc.bytes_read = B * K * N * sizeof(T) + (M * O * K + B * O * M) * sizeof(c32);
  sc.bytes_written = (B * K * M + B * O * M) * sizeof(c32) + B * O * N * sizeof(T);
  sc.flops = B * K * fwd->flops_per_signal() + trace::cgemm_flops(B * M, O, K) +
             B * O * inv->flops_per_signal();
  sc.kernel_launches = 3;
}

// ------------------------------------------------------------ SpectralConv2d

SpectralConv2d::SpectralConv2d(std::size_t batch, std::size_t hidden, std::size_t out_dim,
                               std::size_t nx, std::size_t ny, std::size_t modes_x,
                               std::size_t modes_y, Backend backend, WeightScheme scheme,
                               unsigned seed)
    : scheme_(scheme), backend_(backend) {
  prob_.batch = batch;
  prob_.hidden = hidden;
  prob_.out_dim = out_dim;
  prob_.nx = nx;
  prob_.ny = ny;
  prob_.modes_x = modes_x;
  prob_.modes_y = modes_y;
  prob_.validate();
  if (scheme_ != WeightScheme::Shared) {
    throw std::invalid_argument("SpectralConv2d: PerMode scheme is 1D-only in this release");
  }
  weights_.resize(out_dim * hidden);
  pipeline_ = fused::make_pipeline2d(backend, prob_);
  init_weights(weights_.span(), hidden, out_dim, seed);
}

SpectralConv2d::~SpectralConv2d() = default;
SpectralConv2d::SpectralConv2d(SpectralConv2d&&) noexcept = default;
SpectralConv2d& SpectralConv2d::operator=(SpectralConv2d&&) noexcept = default;

void SpectralConv2d::forward(std::span<const c32> u, std::span<c32> v) {
  pipeline_->run(u, weights_.span(), v);
}

void SpectralConv2d::forward(std::span<const c32> u, std::span<c32> v, std::size_t batch) {
  const std::size_t field = prob_.nx * prob_.ny;
  baseline::check_batch_spans(u.size(), v.size(), prob_.hidden * field, prob_.out_dim * field,
                              batch, "SpectralConv2d");
  reserve(batch);
  pipeline_->run_batched(u, weights_.span(), v, batch);
}

void SpectralConv2d::reserve(std::size_t batch) {
  pipeline_->reserve(batch);
  if (pipeline_real_) pipeline_real_->reserve(batch);
  if (batch > prob_.batch) prob_.batch = batch;
}

const trace::PipelineCounters& SpectralConv2d::counters() const { return pipeline_->counters(); }

fused::SpectralPipeline2d& SpectralConv2d::real_pipeline() {
  if (fused::resolve_variant(backend_, prob_, true) ==
      fused::resolve_variant(backend_, prob_, false)) {
    return *pipeline_;
  }
  if (!pipeline_real_) pipeline_real_ = fused::make_pipeline2d(backend_, prob_, true);
  return *pipeline_real_;
}

void SpectralConv2d::forward_real(std::span<const float> u, std::span<float> v,
                                  std::size_t batch) {
  const std::size_t field = prob_.nx * prob_.ny;
  baseline::check_batch_spans(u.size(), v.size(), prob_.hidden * field, prob_.out_dim * field,
                              batch, "SpectralConv2d(real)");
  reserve(batch);
  real_pipeline().run_batched_real(u, weights_.span(), v, batch);
}

}  // namespace turbofno::core
