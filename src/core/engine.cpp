#include "core/engine.hpp"

#include <type_traits>
#include <utility>
#include <variant>

#include "fft/plan_cache.hpp"
#include "runtime/parallel.hpp"

namespace turbofno::core {

Engine::Engine(const EngineOptions& opts) : opts_(opts) {
  if (opts_.threads > 0) runtime::set_thread_count(opts_.threads);
  if (opts_.plan_cache_capacity > 0) fft::set_plan_cache_capacity(opts_.plan_cache_capacity);
}

ModelHandle Engine::add_spec(std::shared_ptr<const detail::ModelSpec> spec) {
  const runtime::MutexLock lock(mu_);
  specs_.push_back(std::move(spec));
  return specs_.size() - 1;
}

std::shared_ptr<const detail::ModelSpec> Engine::spec(ModelHandle m) const {
  const runtime::MutexLock lock(mu_);
  return specs_.at(m);
}

namespace {

std::shared_ptr<detail::ModelSpec> make_spec(const ModelConfig& cfg) {
  auto s = std::make_shared<detail::ModelSpec>();
  s->cfg = cfg;
  std::visit(
      [&](const auto& c) {
        s->in_elems = c.in_channels * spatial_size(c);
        s->out_elems = c.out_channels * spatial_size(c);
      },
      cfg);
  return s;
}

}  // namespace

ModelHandle Engine::register_model(const ModelConfig& cfg) { return add_spec(make_spec(cfg)); }

ModelHandle Engine::load_model(const ModelConfig& cfg, const WeightBundle& weights) {
  // Validate up front by scattering into a capacity-1 probe model: a
  // missing tensor or architecture mismatch throws here instead of at
  // first use.  Constructing the probe is not free (it builds the layer
  // pipelines), but registration is a cold path and the probe guarantees
  // validation can never drift from what scatter_weights actually needs.
  std::visit(
      [&](const auto& c) {
        Fno probe(c);
        scatter_weights(probe, weights);
      },
      cfg);
  auto s = make_spec(cfg);
  s->weights = weights;
  s->has_weights = true;
  return add_spec(std::move(s));
}

Session Engine::create_session(ModelHandle model, std::size_t capacity_hint) const {
  return Session(spec(model), capacity_hint);
}

std::size_t Engine::model_count() const {
  const runtime::MutexLock lock(mu_);
  return specs_.size();
}

bool Engine::model_is_2d(ModelHandle m) const {
  return std::holds_alternative<Fno2dConfig>(spec(m)->cfg);
}
std::size_t Engine::input_elems(ModelHandle m) const { return spec(m)->in_elems; }
std::size_t Engine::output_elems(ModelHandle m) const { return spec(m)->out_elems; }

// ---------------------------------------------------------------- Session

namespace {

std::variant<Fno1d, Fno2d> make_model(const ModelConfig& cfg) {
  return std::visit(
      [](const auto& c) {
        return std::variant<Fno1d, Fno2d>(std::in_place_type<Fno<std::decay_t<decltype(c)>>>, c);
      },
      cfg);
}

}  // namespace

Session::Session(std::shared_ptr<const detail::ModelSpec> spec, std::size_t capacity_hint)
    : spec_(std::move(spec)), model_(make_model(spec_->cfg)) {
  std::visit(
      [&](auto& m) {
        if (spec_->has_weights) scatter_weights(m, spec_->weights);
        m.reserve(capacity_hint);
      },
      model_);
}

void Session::run(std::span<const c32> u, std::span<c32> v, std::size_t batch) {
  // Buffer-vs-batch validation happens in the model's forward (one frame
  // below) — one guard, one message, no drift.
  std::visit([&](auto& m) { m.forward(u, v, batch); }, model_);
}

void Session::run_real(std::span<const float> u, std::span<float> v, std::size_t batch) {
  std::visit([&](auto& m) { m.forward_real(u, v, batch); }, model_);
}

void Session::reserve(std::size_t batch) {
  std::visit([&](auto& m) { m.reserve(batch); }, model_);
}

std::size_t Session::capacity() const noexcept {
  return std::visit([](const auto& m) { return m.capacity(); }, model_);
}

WeightBundle Session::gather() const {
  return std::visit([](const auto& m) { return gather_weights(m); }, model_);
}

}  // namespace turbofno::core
