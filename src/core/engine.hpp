// TurboFNO Engine/Session — the v2 top-level serving-oriented API.
//
// An Engine owns the shared runtime configuration (worker-thread count for
// the parallel runtime, the process-wide FFT plan cache policy; per-thread
// scratch arenas are implicit) and a registry of model *specifications*:
// an architecture config plus either seeded weights or a deserialized
// WeightBundle checkpoint.  Registration materializes nothing heavy — the
// FFT plans, packed weight planes, and workspaces live in Sessions.
//
// A Session is one executable instance of a registered model.  Its
// workspace capacity is elastic: the `capacity_hint` passed at creation is
// a reservation, not a contract — any micro-batch size runs, growing the
// workspaces in place when needed (growth never perturbs results).
// Sessions are independent; running two sessions of the same model from
// two threads is safe (they share FFT plans through the concurrent plan
// cache but nothing mutable).
//
//   turbofno::core::Engine engine;
//   const auto m = engine.register_model(cfg);            // or load_model(cfg, bundle)
//   auto session = engine.create_session(m, /*capacity_hint=*/8);
//   session.run(input, output, /*batch=*/3);              // any batch size
//
// Results are bitwise-identical to a direct core::Fno forward with the
// same config — for every backend, including Backend::Auto (resolved
// deterministically from the problem shape; see fused::auto_variant_1d/2d).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "runtime/thread_annotations.hpp"

#include "core/config.hpp"
#include "core/fno.hpp"
#include "core/serialize.hpp"
#include "tensor/complex.hpp"

namespace turbofno::core {

/// Handle of a model registered with an Engine.
using ModelHandle = std::size_t;

/// Runtime knobs applied once at Engine construction.  The underlying
/// runtime (worker threads, FFT plan cache) is PROCESS-WIDE and shared by
/// every engine: a non-default option here reconfigures it for all
/// engines and sessions in the process, not just this instance.  In a
/// process with several engines, configure the runtime from exactly one
/// place (or leave these at their keep-current defaults).
struct EngineOptions {
  /// Worker threads for the parallel runtime (runtime::set_thread_count);
  /// 0 keeps the current/hardware default.
  int threads = 0;
  /// LRU capacity for the process-wide FFT plan cache
  /// (fft::set_plan_cache_capacity); 0 keeps the current policy.
  std::size_t plan_cache_capacity = 0;
};

namespace detail {

/// Immutable model specification shared by the engine and its sessions.
struct ModelSpec {
  ModelConfig cfg;
  WeightBundle weights;      // empty entries => seeded from the config
  bool has_weights = false;
  std::size_t in_elems = 0;   // per batch item
  std::size_t out_elems = 0;  // per batch item
};

}  // namespace detail

class Session;

class Engine {
 public:
  explicit Engine(const EngineOptions& opts = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a model whose weights are seeded from the config.  Cheap;
  /// thread-safe; handles stay valid for the engine's lifetime.
  ModelHandle register_model(const ModelConfig& cfg);

  /// Registers a model with weights from a serialized checkpoint (see
  /// core/serialize.hpp).  The bundle is validated against the
  /// architecture up front: a missing tensor or size mismatch throws here,
  /// not at first session creation.
  ModelHandle load_model(const ModelConfig& cfg, const WeightBundle& weights);

  /// Creates an executable session.  `capacity_hint` pre-sizes the
  /// workspaces for runs up to that batch (they hold one streamed chunk;
  /// see Fno::reserve), elastic thereafter.  Thread-safe; the session may
  /// outlive neither the engine's model registry nor — being independent
  /// of other sessions — constrain them.
  [[nodiscard]] Session create_session(ModelHandle model, std::size_t capacity_hint = 1) const;

  [[nodiscard]] std::size_t model_count() const;
  [[nodiscard]] bool model_is_2d(ModelHandle m) const;
  /// Per-item element counts a request of model `m` must carry.
  [[nodiscard]] std::size_t input_elems(ModelHandle m) const;
  [[nodiscard]] std::size_t output_elems(ModelHandle m) const;

  [[nodiscard]] const EngineOptions& options() const noexcept { return opts_; }

  /// Registry partitioning (the shard topology's primitive): share_spec
  /// hands out a model's immutable specification, and adopt_spec registers
  /// it in another engine without re-seeding or copying weights — a shard
  /// worker adopting a subset of a catalog engine serves results
  /// bitwise-identical to the catalog serving them itself.
  [[nodiscard]] std::shared_ptr<const detail::ModelSpec> share_spec(ModelHandle m) const {
    return spec(m);
  }
  ModelHandle adopt_spec(std::shared_ptr<const detail::ModelSpec> s) {
    return add_spec(std::move(s));
  }

 private:
  ModelHandle add_spec(std::shared_ptr<const detail::ModelSpec> spec);
  [[nodiscard]] std::shared_ptr<const detail::ModelSpec> spec(ModelHandle m) const;

  EngineOptions opts_;
  mutable runtime::Mutex mu_;
  std::vector<std::shared_ptr<const detail::ModelSpec>> specs_ TFNO_GUARDED_BY(mu_);
};

/// One executable instance of a registered model.  Movable, not copyable.
class Session {
 public:
  Session(Session&&) noexcept = default;
  Session& operator=(Session&&) noexcept = default;

  /// u [batch, in_channels, spatial] -> v [batch, out_channels, spatial].
  /// Any `batch` >= 1 runs; beyond the current capacity the workspaces
  /// grow in place.  Bitwise-identical to a direct core::Fno forward.
  void run(std::span<const c32> u, std::span<c32> v, std::size_t batch = 1);

  /// Real-input run: u/v hold real samples and the spectral layers execute
  /// their RFFT half-spectrum lane (see SpectralConv::forward_real).
  /// Requires the spatial leading axis (n / nx) >= 4.  Same elastic-capacity
  /// semantics as run().
  void run_real(std::span<const float> u, std::span<float> v, std::size_t batch = 1);

  /// Grows the workspaces so runs up to `batch` need no reallocation.
  void reserve(std::size_t batch);
  /// Current capacity high-water mark.
  [[nodiscard]] std::size_t capacity() const noexcept;

  [[nodiscard]] bool is_2d() const noexcept { return std::holds_alternative<Fno2d>(model_); }
  [[nodiscard]] std::size_t input_elems() const noexcept { return spec_->in_elems; }
  [[nodiscard]] std::size_t output_elems() const noexcept { return spec_->out_elems; }

  /// Snapshot of the session's current weights as a complete checkpoint.
  [[nodiscard]] WeightBundle gather() const;

  /// The underlying model, for advanced callers (weight editing, layer
  /// introspection).  Exactly one of these is non-null.
  [[nodiscard]] Fno1d* model1d() noexcept { return std::get_if<Fno1d>(&model_); }
  [[nodiscard]] Fno2d* model2d() noexcept { return std::get_if<Fno2d>(&model_); }

 private:
  friend class Engine;
  Session(std::shared_ptr<const detail::ModelSpec> spec, std::size_t capacity_hint);

  std::shared_ptr<const detail::ModelSpec> spec_;
  std::variant<Fno1d, Fno2d> model_;
};

}  // namespace turbofno::core
