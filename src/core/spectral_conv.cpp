#include "core/spectral_conv.hpp"

#include <cmath>
#include <random>
#include <stdexcept>
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

namespace {

/// Canonical FNO's per-mode weights (WeightScheme::PerMode): an
/// independent W_f [out, hidden] per kept bin f, so w is [modes, out,
/// hidden].  The mixing is a per-bin matrix-vector product, not the
/// ladder's one shared CGEMM, so this row drives the lane's truncated /
/// zero-padded plans directly around its own loop, unfused: the
/// reference-grade schedule.
class PerModePipeline1d final : public fused::SpectralPipeline1d {
 public:
  explicit PerModePipeline1d(const baseline::Spectral1dProblem& prob)
      : fused::SpectralPipeline1d(prob, "PerMode", "per-mode-1d"),
        freq_(prob.batch * prob.hidden * prob.modes),
        mixed_(prob.batch * prob.out_dim * prob.modes) {}

  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch) override {
    run_lane(u, w, v, batch);
  }
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch) override {
    run_lane(u, w, v, batch);
  }
  void reserve(std::size_t batch) override {
    if (batch <= prob_.batch) return;
    // Grow before bumping the capacity mark (exception safety).
    freq_.resize(batch * prob_.hidden * prob_.modes);
    mixed_.resize(batch * prob_.out_dim * prob_.modes);
    prob_.batch = batch;
  }
  [[nodiscard]] std::size_t weight_elems() const noexcept override {
    return prob_.modes * prob_.weight_elems();
  }

 private:
  // One run on either lane: T is the sample type (c32 or float).
  template <class T>
  void run_lane(std::span<const T> u, std::span<const c32> w, std::span<T> v,
                std::size_t batch);

  AlignedBuffer<c32> freq_;   // [batch, hidden, modes]
  AlignedBuffer<c32> mixed_;  // [batch, out_dim, modes]
};

template <class T>
void PerModePipeline1d::run_lane(std::span<const T> u, std::span<const c32> w, std::span<T> v,
                                 std::size_t batch) {
  constexpr bool kReal = std::is_same_v<T, float>;
  baseline::check_batch_spans(u.size(), v.size(), prob_.hidden * prob_.n,
                              prob_.out_dim * prob_.n, batch,
                              kReal ? "SpectralConv1d(real)" : "SpectralConv1d");
  reserve(batch);
  counters_.clear();
  if (batch == 0) return;
  const std::size_t B = batch;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t N = prob_.n;
  // Kept bins: the per-mode matrices f < M apply (the RFFT half-spectrum on
  // the real lane).
  const std::size_t M = kReal ? prob_.modes / 2 + 1 : prob_.modes;
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
      const c32* wf = w.data() + f * O * K;
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

  auto& sc = counters_.stage("per-mode-spectral-conv");
  sc.seconds = t.seconds();
  sc.bytes_read = B * K * N * sizeof(T) + (M * O * K + B * O * M) * sizeof(c32);
  sc.bytes_written = (B * K * M + B * O * M) * sizeof(c32) + B * O * N * sizeof(T);
  sc.flops = B * K * fwd->flops_per_signal() + trace::cgemm_flops(B * M, O, K) +
             B * O * inv->flops_per_signal();
  sc.kernel_launches = 3;
}

/// The layer's pipeline for one lane: the per-mode row for PerMode, else
/// the backend's ladder row (`real_input` steers only Auto).
std::unique_ptr<fused::SpectralPipeline1d> layer_pipeline(Backend backend, WeightScheme scheme,
                                                          const baseline::Spectral1dProblem& p,
                                                          bool real_input) {
  if (scheme == WeightScheme::PerMode) return std::make_unique<PerModePipeline1d>(p);
  return fused::make_pipeline1d(backend, p, real_input);
}

std::unique_ptr<fused::SpectralPipeline2d> layer_pipeline(Backend backend, WeightScheme scheme,
                                                          const baseline::Spectral2dProblem& p,
                                                          bool real_input) {
  if (scheme != WeightScheme::Shared) {
    throw std::invalid_argument("SpectralConv2d: PerMode scheme is 1D-only in this release");
  }
  return fused::make_pipeline2d(backend, p, real_input);
}

/// Whether the real lane needs a pipeline of its own: the half-spectrum
/// working set can flip the Auto resolution.  The per-mode row serves both
/// lanes whatever the backend.
template <class Problem>
bool real_lane_differs(Backend backend, WeightScheme scheme, const Problem& p) noexcept {
  return scheme == WeightScheme::Shared &&
         fused::resolve_variant(backend, p, true) != fused::resolve_variant(backend, p, false);
}

}  // namespace

template <class Problem>
SpectralConv<Problem>::SpectralConv(const Problem& prob, Backend backend, WeightScheme scheme,
                                    unsigned seed)
    : backend_(backend),
      scheme_(scheme),
      pipeline_(layer_pipeline(backend, scheme, prob, false)),
      weights_(pipeline_->weight_elems()) {
  init_weights(weights_.span(), prob.hidden, prob.out_dim, seed);
  ensure_packed();
}

template <class Problem>
SpectralConv<Problem>::~SpectralConv() = default;
template <class Problem>
SpectralConv<Problem>::SpectralConv(SpectralConv&&) noexcept = default;
template <class Problem>
SpectralConv<Problem>& SpectralConv<Problem>::operator=(SpectralConv&&) noexcept = default;

template <class Problem>
void SpectralConv<Problem>::forward(std::span<const c32> u, std::span<c32> v) {
  ensure_packed();
  pipeline_->run(u, weights_.span(), v);
}

template <class Problem>
void SpectralConv<Problem>::forward(std::span<const c32> u, std::span<c32> v, std::size_t batch) {
  ensure_packed();
  pipeline_->run_batched(u, weights_.span(), v, batch);
}

template <class Problem>
void SpectralConv<Problem>::forward_real(std::span<const float> u, std::span<float> v,
                                         std::size_t batch) {
  Pipeline& p = real_pipeline();
  ensure_packed();
  p.run_batched_real(u, weights_.span(), v, batch);
}

template <class Problem>
void SpectralConv<Problem>::reserve(std::size_t batch) {
  pipeline_->reserve(batch);
  if (pipeline_real_) pipeline_real_->reserve(batch);
}

template <class Problem>
void SpectralConv<Problem>::ensure_packed() {
  if (packed_) return;
  pipeline_->pack_weights(weights_.span());
  if (pipeline_real_) pipeline_real_->pack_weights(weights_.span());
  packed_ = true;
}

template <class Problem>
auto SpectralConv<Problem>::real_pipeline() -> Pipeline& {
  // Every row implements run_batched_real on the complex lane's workspaces,
  // so one pipeline serves both lanes unless Auto tunes them apart.
  if (!real_lane_differs(backend_, scheme_, problem())) return *pipeline_;
  if (!pipeline_real_) {
    pipeline_real_ = layer_pipeline(backend_, scheme_, problem(), true);
    pipeline_real_->pack_weights(weights_.span());
  }
  return *pipeline_real_;
}

template class SpectralConv<baseline::Spectral1dProblem>;
template class SpectralConv<baseline::Spectral2dProblem>;

}  // namespace turbofno::core
