#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

namespace turbofno::serve {

namespace {

// Deadline slack: triggering a hair early costs one slightly-smaller
// micro-batch; triggering late costs every queued request real latency.
constexpr double kDeadlineSlackS = 50e-6;

}  // namespace

std::string_view status_name(Status s) noexcept {
  switch (s) {
    case Status::Ok:
      return "ok";
    case Status::Rejected:
      return "rejected";
    case Status::ShutDown:
      return "shut-down";
    case Status::InvalidInput:
      return "invalid-input";
    case Status::Shed:
      return "shed";
  }
  return "?";
}

std::string_view priority_name(Priority p) noexcept {
  switch (p) {
    case Priority::High:
      return "high";
    case Priority::Normal:
      return "normal";
  }
  return "?";
}

InferenceServer::InferenceServer(Options opts, std::shared_ptr<core::Engine> engine)
    : opts_(std::move(opts)),
      engine_(engine ? std::move(engine) : std::make_shared<core::Engine>()),
      pool_(std::max<std::size_t>(opts_.workers, 1)) {
  opts_.policy.max_batch = std::max<std::size_t>(opts_.policy.max_batch, 1);
  opts_.policy.queue_capacity = std::max<std::size_t>(opts_.policy.queue_capacity, 1);
  timekeeper_ = std::thread([this] { timekeeper_loop(); });
}

InferenceServer::~InferenceServer() { stop(StopMode::Drain); }

double InferenceServer::starvation_s() const noexcept {
  if (opts_.policy.starvation_s > 0.0) return opts_.policy.starvation_s;
  // Floor the derived default: with max_delay_s == 0 (pure flush/size-
  // triggered serving) a zero bound would mark every queued Normal request
  // overdue and invert the two-level ordering.
  return std::max(8.0 * opts_.policy.max_delay_s, 1e-3);
}

ModelId InferenceServer::register_model(std::unique_ptr<Model> m) {
  m->session = engine_->create_session(m->handle, opts_.policy.max_batch);
  m->in_elems = engine_->input_elems(m->handle);
  m->out_elems = engine_->output_elems(m->handle);
  m->batch_in.resize(opts_.policy.max_batch * m->in_elems);
  m->batch_out.resize(opts_.policy.max_batch * m->out_elems);
  const runtime::MutexLock lock(mu_);
  models_.push_back(std::move(m));
  return models_.size() - 1;
}

ModelId InferenceServer::load_model(const core::ModelConfig& cfg) {
  auto m = std::make_unique<Model>();
  m->handle = engine_->register_model(cfg);
  return register_model(std::move(m));
}

ModelId InferenceServer::load_model(const core::ModelConfig& cfg,
                                    const core::WeightBundle& weights) {
  auto m = std::make_unique<Model>();
  m->handle = engine_->load_model(cfg, weights);
  return register_model(std::move(m));
}

ModelId InferenceServer::adopt_model(const core::Engine& from, core::ModelHandle h) {
  auto m = std::make_unique<Model>();
  m->handle = engine_->adopt_spec(from.share_spec(h));
  return register_model(std::move(m));
}

std::size_t InferenceServer::model_count() const {
  const runtime::MutexLock lock(mu_);
  return models_.size();
}

std::size_t InferenceServer::input_elems(ModelId m) const {
  const runtime::MutexLock lock(mu_);
  return models_.at(m)->in_elems;
}

std::size_t InferenceServer::output_elems(ModelId m) const {
  const runtime::MutexLock lock(mu_);
  return models_.at(m)->out_elems;
}

std::size_t InferenceServer::queue_depth(ModelId m) const {
  const runtime::MutexLock lock(mu_);
  return models_.at(m)->queued();
}

double InferenceServer::exec_estimate(ModelId m) const {
  const runtime::MutexLock lock(mu_);
  return models_.at(m)->exec_ewma_s;
}

void InferenceServer::set_exec_estimate(ModelId m, double seconds) {
  const runtime::MutexLock lock(mu_);
  models_.at(m)->exec_ewma_s = seconds;
}

double InferenceServer::arrival_estimate(ModelId m) const {
  const runtime::MutexLock lock(mu_);
  return models_.at(m)->arrival_ewma_s;
}

void InferenceServer::set_arrival_estimate(ModelId m, double seconds) {
  const runtime::MutexLock lock(mu_);
  models_.at(m)->arrival_ewma_s = seconds;
}

void InferenceServer::complete(Pending&& p, InferResponse&& r) {
  r.id = p.id;
  r.priority = p.priority;
  if (p.has_promise) {
    p.promise.set_value(std::move(r));
  } else if (p.callback) {
    p.callback(std::move(r));
  }
}

std::future<InferResponse> InferenceServer::submit(ModelId model, std::span<const c32> input,
                                                   std::span<c32> output, SubmitOptions opts) {
  Pending p;
  p.priority = opts.priority;
  p.deadline_s = opts.deadline_s;
  p.in_view = input;
  p.out_view = output;
  p.has_promise = true;
  std::future<InferResponse> fut = p.promise.get_future();
  submit_impl(model, std::move(p));
  return fut;
}

void InferenceServer::submit(ModelId model, std::span<const c32> input, std::span<c32> output,
                             std::function<void(InferResponse&&)> on_done, SubmitOptions opts) {
  Pending p;
  p.priority = opts.priority;
  p.deadline_s = opts.deadline_s;
  p.in_view = input;
  p.out_view = output;
  p.callback = std::move(on_done);
  submit_impl(model, std::move(p));
}

std::future<InferResponse> InferenceServer::submit(ModelId model, std::vector<c32> input,
                                                   SubmitOptions opts) {
  Pending p;
  p.priority = opts.priority;
  p.deadline_s = opts.deadline_s;
  p.owned = std::move(input);
  p.owning = true;
  p.in_view = p.owned;
  p.has_promise = true;
  std::future<InferResponse> fut = p.promise.get_future();
  submit_impl(model, std::move(p));
  return fut;
}

void InferenceServer::submit(ModelId model, std::vector<c32> input,
                             std::function<void(InferResponse&&)> on_done, SubmitOptions opts) {
  Pending p;
  p.priority = opts.priority;
  p.deadline_s = opts.deadline_s;
  p.owned = std::move(input);
  p.owning = true;
  p.in_view = p.owned;
  p.callback = std::move(on_done);
  submit_impl(model, std::move(p));
}

std::future<InferResponse> InferenceServer::submit_real(ModelId model,
                                                        std::span<const float> input,
                                                        std::span<float> output,
                                                        SubmitOptions opts) {
  Pending p;
  p.priority = opts.priority;
  p.deadline_s = opts.deadline_s;
  p.fin_view = input;
  p.fout_view = output;
  p.real = true;
  p.has_promise = true;
  std::future<InferResponse> fut = p.promise.get_future();
  submit_impl(model, std::move(p));
  return fut;
}

void InferenceServer::submit_real(ModelId model, std::span<const float> input,
                                  std::span<float> output,
                                  std::function<void(InferResponse&&)> on_done,
                                  SubmitOptions opts) {
  Pending p;
  p.priority = opts.priority;
  p.deadline_s = opts.deadline_s;
  p.fin_view = input;
  p.fout_view = output;
  p.real = true;
  p.callback = std::move(on_done);
  submit_impl(model, std::move(p));
}

void InferenceServer::submit_impl(ModelId model, Pending&& p) {
  InferResponse refusal;
  bool refuse = false;
  {
    const runtime::MutexLock lock(mu_);
    Model& m = *models_.at(model);
    p.id = next_id_++;
    p.submit_s = clock_.seconds();
    const std::size_t in_n = p.real ? p.fin_view.size() : p.in_view.size();
    const std::size_t out_n = p.real ? p.fout_view.size() : p.out_view.size();
    const bool bad_shape = in_n != m.in_elems || (!p.owning && out_n != m.out_elems);
    if (!accepting_) {
      refusal.status = Status::ShutDown;
      ++stats_.shut_down;
      refuse = true;
    } else if (bad_shape) {
      refusal.status = Status::InvalidInput;
      ++stats_.rejected;
      refuse = true;
    } else if (m.queued() >= opts_.policy.queue_capacity) {
      refusal.status = Status::Rejected;
      ++stats_.rejected;
      refuse = true;
    } else if (p.deadline_s > 0.0 && !deadline_feasible_locked(m, p)) {
      refusal.status = Status::Shed;
      if (p.priority == Priority::High) {
        ++stats_.shed_high;
      } else {
        ++stats_.shed_normal;
      }
      refuse = true;
    } else {
      ++stats_.submitted;
      if (p.priority == Priority::High) ++stats_.high_submitted;
      ++inflight_;
      // Arrival-rate EWMA (adaptive sizing's load signal): the gap between
      // consecutive *accepted* submissions.  Learned unconditionally —
      // cheap, and it keeps arrival_estimate() meaningful even before the
      // adaptive policy is switched on.
      if (m.last_arrival_s >= 0.0) {
        const double gap = p.submit_s - m.last_arrival_s;
        m.arrival_ewma_s =
            m.arrival_ewma_s == 0.0 ? gap : 0.75 * m.arrival_ewma_s + 0.25 * gap;
      }
      m.last_arrival_s = p.submit_s;
      const std::size_t level = p.priority == Priority::High ? kHigh : kNormal;
      const bool was_empty = m.queued() == 0;
      m.queue[level].push_back(std::move(p));
      if (!m.busy && m.queued() >= launch_target_locked(m)) {
        launch_locked(m);
      } else if (was_empty || level == kHigh) {
        deadline_cv_.notify_one();  // a new earliest deadline may exist
      }
      return;
    }
  }
  if (refuse) complete(std::move(p), std::move(refusal));
}

double InferenceServer::earliest_submit(const Model& m) noexcept {
  double earliest = std::numeric_limits<double>::infinity();
  for (const auto& q : m.queue) {
    if (!q.empty()) earliest = std::min(earliest, q.front().submit_s);
  }
  return earliest;
}

bool InferenceServer::deadline_due_locked(const Model& m, double now) const {
  return m.queued() != 0 &&
         now >= earliest_submit(m) + opts_.policy.max_delay_s - kDeadlineSlackS;
}

bool InferenceServer::deadline_feasible_locked(const Model& m, const Pending& p) const noexcept {
  const double per = m.exec_ewma_s;
  if (per <= 0.0) return true;  // no estimate yet — admit and learn
  // Work that pops before this request, per QoS class: High requests wait
  // only on the High backlog (plus the batch in flight); Normal requests
  // wait on everything.  One-at-a-time execution is assumed — a deliberate
  // overestimate, since batching only shortens the wait.
  const std::size_t ahead =
      (p.priority == Priority::High ? m.queue[kHigh].size() : m.queued()) + (m.busy ? 1 : 0);
  return static_cast<double>(ahead + 1) * per <= p.deadline_s;
}

std::deque<InferenceServer::Pending>& InferenceServer::next_queue_locked(Model& m, double now,
                                                                         bool count_promotion) {
  auto& high = m.queue[kHigh];
  auto& normal = m.queue[kNormal];
  // Starvation guard first: an overdue Normal request outranks younger
  // High work, bounding how long strict priority can delay it.
  if (!normal.empty() && now >= normal.front().submit_s + starvation_s()) {
    if (count_promotion && !high.empty()) ++stats_.starvation_promotions;
    return normal;
  }
  return high.empty() ? normal : high;
}

InferenceServer::Pending InferenceServer::pop_next_locked(Model& m, double now) {
  auto& q = next_queue_locked(m, now, /*count_promotion=*/true);
  Pending p = std::move(q.front());
  q.pop_front();
  return p;
}

std::size_t InferenceServer::batch_cap_locked(const Model& m) const noexcept {
  if (!opts_.policy.adaptive) return opts_.policy.max_batch;
  // Sustained overload: requests arrive at least as fast as the learned
  // per-request estimate can drain them.  Both EWMAs must have learned
  // something — growth is never speculative about *cost*.
  if (m.exec_ewma_s > 0.0 && m.arrival_ewma_s > 0.0 && m.arrival_ewma_s <= m.exec_ewma_s) {
    return opts_.policy.max_batch * std::max<std::size_t>(opts_.policy.growth_limit, 1);
  }
  return opts_.policy.max_batch;
}

std::size_t InferenceServer::launch_target_locked(const Model& m) const noexcept {
  if (!opts_.policy.adaptive || m.arrival_ewma_s <= 0.0) return opts_.policy.max_batch;
  // Speculative sizing: the batch a full max_delay_s wait is *expected* to
  // accumulate.  Once that many are queued, waiting longer cannot fill the
  // batch further — launch now.  Sparse traffic (gap >= max_delay_s) thus
  // launches singletons immediately instead of eating the delay.
  const double expected = opts_.policy.max_delay_s / m.arrival_ewma_s;
  const std::size_t cap = batch_cap_locked(m);
  if (expected <= 1.0) return 1;
  if (expected >= static_cast<double>(cap)) return cap;
  return static_cast<std::size_t>(std::ceil(expected));
}

void InferenceServer::launch_locked(Model& m) {
  m.flush_requested = false;  // launching consumes any pending flush intent
  const double now = clock_.seconds();
  const std::size_t n = std::min(m.queued(), batch_cap_locked(m));
  auto batch = std::make_shared<std::vector<Pending>>();
  batch->reserve(n);
  batch->push_back(pop_next_locked(m, now));
  // Micro-batches are lane-homogeneous: stop at the first queued request
  // whose lane (run vs run_real) differs from the batch leader's.  The
  // remainder launches in the relaunch chain, exactly like an over-full
  // queue would.
  for (std::size_t i = 1; i < n; ++i) {
    if (next_queue_locked(m, now, /*count_promotion=*/false).front().real !=
        batch->front().real) {
      break;
    }
    batch->push_back(pop_next_locked(m, now));
  }
  m.busy = true;
  // shared_ptr because std::function requires copyable callables; the
  // Model lives in a stable unique_ptr slot for the server's lifetime.
  Model* mp = &m;
  pool_.submit([this, mp, batch] { execute(*mp, std::move(*batch)); });
}

void InferenceServer::execute(Model& m, std::vector<Pending> batch) {
  const std::size_t B = batch.size();
  const bool real = batch.front().real;  // batches are lane-homogeneous
  const double formed_s = clock_.seconds();
  const std::size_t elem_bytes = real ? sizeof(float) : sizeof(c32);

  double gather_s = 0.0;
  double exec_s = 0.0;
  std::size_t gather_bytes = 0;
  std::size_t scatter_bytes = 0;
  bool exec_ok = true;
  std::vector<InferResponse> responses(B);

  // Runs one lane of the session, mapping a model-side failure (e.g. a
  // shape the requested lane cannot support) to typed InvalidInput
  // responses instead of tearing down the serving process.
  const auto guarded_run = [&](auto&& fn) {
    runtime::Timer exec_t;
    try {
      fn();
    } catch (const std::exception&) {
      exec_ok = false;
    }
    exec_s = exec_t.seconds();
  };

  if (B == 1) {
    // Single-request fast path: the session runs directly on the request's
    // memory (the caller's buffers for zero-copy submissions, the moved-in
    // vector and the response vector for owning ones).  Nothing is staged,
    // so the gather/scatter counters see zero bytes.
    Pending& p = batch.front();
    InferResponse& r = responses.front();
    if (real) {
      guarded_run([&] { m.session->run_real(p.fin_view, p.fout_view, 1); });
    } else {
      std::span<c32> out = p.out_view;
      if (p.owning) {
        r.output.resize(m.out_elems);
        out = r.output;
      }
      guarded_run([&] { m.session->run(p.in_view, out, 1); });
    }
  } else if (real) {
    // The float staging area is sized lazily on the first multi-request
    // real micro-batch (many deployments never submit this lane), and
    // grows when the adaptive policy launches past max_batch.  Safe
    // unlocked: the executor owns the staging buffers while busy == true.
    const std::size_t rows = std::max(B, opts_.policy.max_batch);
    if (m.batch_in_f.size() < rows * m.in_elems) {
      m.batch_in_f.resize(rows * m.in_elems);
      m.batch_out_f.resize(rows * m.out_elems);
    }
    runtime::Timer gather_t;
    for (std::size_t i = 0; i < B; ++i) {
      std::memcpy(m.batch_in_f.data() + i * m.in_elems, batch[i].fin_view.data(),
                  m.in_elems * sizeof(float));
    }
    gather_s = gather_t.seconds();
    gather_bytes = B * m.in_elems * sizeof(float);

    const std::span<const float> in{m.batch_in_f.data(), B * m.in_elems};
    const std::span<float> out{m.batch_out_f.data(), B * m.out_elems};
    guarded_run([&] { m.session->run_real(in, out, B); });
  } else {
    // Complex staging is pre-sized to max_batch at registration; adaptive
    // grown batches extend it here (executor-owned, see above).
    if (m.batch_in.size() < B * m.in_elems) {
      m.batch_in.resize(B * m.in_elems);
      m.batch_out.resize(B * m.out_elems);
    }
    runtime::Timer gather_t;
    for (std::size_t i = 0; i < B; ++i) {
      std::memcpy(m.batch_in.data() + i * m.in_elems, batch[i].in_view.data(),
                  m.in_elems * sizeof(c32));
    }
    gather_s = gather_t.seconds();
    gather_bytes = B * m.in_elems * sizeof(c32);

    const std::span<const c32> in{m.batch_in.data(), B * m.in_elems};
    const std::span<c32> out{m.batch_out.data(), B * m.out_elems};
    guarded_run([&] { m.session->run(in, out, B); });
  }

  runtime::Timer scatter_t;
  double queue_wait_sum = 0.0;
  for (std::size_t i = 0; i < B; ++i) {
    InferResponse& r = responses[i];
    r.status = exec_ok ? Status::Ok : Status::InvalidInput;
    if (!exec_ok) r.output.clear();
    if (exec_ok && B > 1) {
      if (real) {
        std::memcpy(batch[i].fout_view.data(), m.batch_out_f.data() + i * m.out_elems,
                    m.out_elems * sizeof(float));
      } else {
        const c32* row = m.batch_out.data() + i * m.out_elems;
        if (batch[i].owning) {
          r.output.assign(row, row + m.out_elems);
        } else {
          std::memcpy(batch[i].out_view.data(), row, m.out_elems * sizeof(c32));
        }
      }
      scatter_bytes += m.out_elems * elem_bytes;
    }
    r.timing.queue_s = formed_s - batch[i].submit_s;
    r.timing.exec_s = exec_s;
    r.timing.micro_batch = B;
    r.timing.total_s = clock_.seconds() - batch[i].submit_s;
    queue_wait_sum += r.timing.queue_s;
    complete(std::move(batch[i]), std::move(r));
  }
  const double scatter_s = scatter_t.seconds();

  {
    const runtime::MutexLock lock(trace_mu_);
    latency_.stage("queue-wait").seconds += queue_wait_sum;
    auto& g = latency_.stage("gather");
    g.seconds += gather_s;
    g.bytes_read += gather_bytes;
    auto& e = latency_.stage("execute");
    e.seconds += exec_s;
    e.kernel_launches += 1;
    auto& s = latency_.stage("scatter");
    s.seconds += scatter_s;
    s.bytes_written += scatter_bytes;
  }

  {
    const runtime::MutexLock lock(mu_);
    m.busy = false;
    inflight_ -= B;
    if (exec_ok) {
      stats_.completed += B;
      // Admission control learns from every successful batch: an EWMA of
      // per-request execution seconds (stable enough to judge deadline
      // feasibility, reactive enough to follow load-dependent drift).
      const double per_req = exec_s / static_cast<double>(B);
      m.exec_ewma_s = m.exec_ewma_s == 0.0 ? per_req : 0.75 * m.exec_ewma_s + 0.25 * per_req;
    } else {
      ++stats_.exec_errors;
    }
    stats_.batches += 1;
    stats_.batched_requests += B;
    stats_.max_micro_batch = std::max(stats_.max_micro_batch, B);
    if (B > opts_.policy.max_batch) ++stats_.grown_batches;
    if (m.queued() != 0 &&
        (m.queued() >= launch_target_locked(m) || !accepting_ || m.flush_requested ||
         deadline_due_locked(m, clock_.seconds()))) {
      launch_locked(m);
    }
  }
  drained_cv_.notify_all();
  deadline_cv_.notify_one();
}

void InferenceServer::timekeeper_loop() {
  runtime::MutexLock lock(mu_);
  while (!stopping_) {
    double earliest = std::numeric_limits<double>::infinity();
    for (const auto& m : models_) {
      if (!m->busy && m->queued() != 0) {
        earliest = std::min(earliest, earliest_submit(*m) + opts_.policy.max_delay_s);
      }
    }
    if (earliest == std::numeric_limits<double>::infinity()) {
      deadline_cv_.wait(lock.native());
      continue;
    }
    const double now = clock_.seconds();
    if (now >= earliest - kDeadlineSlackS) {
      for (auto& m : models_) {
        if (!m->busy && deadline_due_locked(*m, now)) launch_locked(*m);
      }
      continue;  // recompute the next earliest deadline
    }
    deadline_cv_.wait_for(lock.native(), std::chrono::duration<double>(earliest - now));
  }
}

void InferenceServer::flush() {
  const runtime::MutexLock lock(mu_);
  for (auto& m : models_) {
    if (m->queued() == 0) continue;
    if (!m->busy) {
      launch_locked(*m);
    } else {
      // Remember the intent: the executor finishing this model launches the
      // queued remainder instead of letting it wait out the deadline.
      m->flush_requested = true;
    }
  }
}

void InferenceServer::drain_locked(runtime::MutexLock& lock) {
  while (inflight_ > 0) {
    for (auto& m : models_) {
      if (!m->busy && m->queued() != 0) launch_locked(*m);
    }
    drained_cv_.wait_for(lock.native(), std::chrono::milliseconds(1));
  }
}

void InferenceServer::drain() {
  runtime::MutexLock lock(mu_);
  drain_locked(lock);
}

void InferenceServer::stop(StopMode mode) {
  std::vector<Pending> aborted;
  {
    runtime::MutexLock lock(mu_);
    if (stop_done_) return;
    if (stop_running_) {
      // Another thread owns the wind-down (stop() and the destructor may
      // race); wait for it to finish rather than double-joining.  Explicit
      // loop instead of the predicate overload: the analysis cannot see
      // that a predicate lambda runs with the lock held.
      while (!stop_done_) drained_cv_.wait(lock.native());
      return;
    }
    stop_running_ = true;
    accepting_ = false;
    if (mode == StopMode::Abort) {
      for (auto& m : models_) {
        for (auto& q : m->queue) {
          while (!q.empty()) {
            aborted.push_back(std::move(q.front()));
            q.pop_front();
            --inflight_;
            ++stats_.shut_down;
          }
        }
      }
    }
    drain_locked(lock);
    stopping_ = true;
  }
  deadline_cv_.notify_all();
  if (timekeeper_.joinable()) timekeeper_.join();
  for (auto& p : aborted) {
    InferResponse r;
    r.status = Status::ShutDown;
    complete(std::move(p), std::move(r));
  }
  {
    const runtime::MutexLock lock(mu_);
    stop_done_ = true;
  }
  drained_cv_.notify_all();
}

ServerStats InferenceServer::stats() const {
  const runtime::MutexLock lock(mu_);
  return stats_;
}

trace::PipelineCounters InferenceServer::latency_counters() const {
  const runtime::MutexLock lock(trace_mu_);
  return latency_;
}

}  // namespace turbofno::serve
