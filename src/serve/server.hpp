// Batched inference serving front-end — QoS-aware, zero-copy capable, and
// built on the Engine/Session API (TurboFNO API v2).
//
// Architecture:
//
//   submit() ──> per-model two-level QoS queue ──┐ size trigger (max_batch)
//                 (High / Normal + starvation    ├──> micro-batch ──> pool
//   timekeeper ── guard, deadline-aware pops) ───┘ deadline trigger  workers
//                                                                      │
//   futures / callbacks / caller buffers <── scatter <── Session <─────┘
//
// Requests for the same model are coalesced into dynamic micro-batches and
// executed through the model's elastic Engine session (one fused
// FFT-CGEMM-iFFT sweep per spectral layer for the whole batch), reusing
// FFT plans, packed weight planes, and workspaces across every
// micro-batch.  Results are bitwise-identical to running each request
// alone, so batching and QoS ordering are pure scheduling decisions.
//
// Submission comes in two flavors:
//   - zero-copy: the caller passes `std::span` views of its own input and
//     output buffers, which must stay valid (and the output must not be
//     read) until the response is delivered.  A single-request micro-batch
//     executes directly on the caller's memory — the server copies no
//     input or output bytes (the serve.gather/scatter counters prove it);
//     multi-request batches copy only into the batch staging area.
//   - owning: the caller moves in a std::vector and receives the result in
//     InferResponse::output.  Thin wrappers over the same path.
//
// QoS: each model has a two-level (High/Normal) queue.  Micro-batches pop
// High first, except that a Normal request older than
// BatchingPolicy::starvation_s is overdue and pops ahead of younger High
// work (starvation guard).  Both levels share the deadline trigger.
//
// Thread safety: every public method may be called from any thread.
// Determinism: response *values* never depend on how requests were grouped
// or ordered; only timing metadata does.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "runtime/thread_annotations.hpp"

#include "core/config.hpp"
#include "core/engine.hpp"
#include "core/serialize.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"
#include "serve/request.hpp"
#include "tensor/aligned_buffer.hpp"
#include "trace/counters.hpp"

namespace turbofno::serve {

class InferenceServer {
 public:
  struct Options {
    BatchingPolicy policy;
    /// Micro-batch executor threads.  One is enough on small hosts; more
    /// lets distinct models execute concurrently (one micro-batch per
    /// model is in flight at a time).
    std::size_t workers = 1;
  };

  InferenceServer() : InferenceServer(Options{}) {}
  explicit InferenceServer(Options opts) : InferenceServer(std::move(opts), nullptr) {}
  /// Serve on an existing (shared) engine; `engine == nullptr` creates a
  /// private one.  Sharing an engine shares its runtime configuration and
  /// model registry with other users of it.
  InferenceServer(Options opts, std::shared_ptr<core::Engine> engine);
  /// Drains in-flight and queued work (StopMode::Drain), then joins.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Registers a model; weights are materialized from the config's seed.
  /// Requests reference the returned id.  Registration is cheap to call at
  /// any time but models live for the server's lifetime.
  ModelId load_model(const core::ModelConfig& cfg);
  /// Registers a model with weights from a serialized checkpoint; the
  /// bundle is validated against the architecture up front (throws).
  ModelId load_model(const core::ModelConfig& cfg, const core::WeightBundle& weights);
  /// Registry partitioning: registers model `h` of another engine by
  /// adopting its immutable spec (Engine::share_spec/adopt_spec) — weights
  /// are shared, not re-seeded, so a shard worker serving a subset of a
  /// catalog is bitwise-identical to the catalog process serving it.
  ModelId adopt_model(const core::Engine& from, core::ModelHandle h);

  /// Number of registered models (what request frames may name).
  [[nodiscard]] std::size_t model_count() const;

  /// The engine this server executes on.
  [[nodiscard]] const std::shared_ptr<core::Engine>& engine() const noexcept { return engine_; }

  /// Input/output element counts one request of `m` must carry.
  [[nodiscard]] std::size_t input_elems(ModelId m) const;
  [[nodiscard]] std::size_t output_elems(ModelId m) const;

  /// Zero-copy submission: `input` and `output` are caller-owned views
  /// that must stay valid until the response is delivered; the result is
  /// written into `output` and InferResponse::output stays empty.
  std::future<InferResponse> submit(ModelId model, std::span<const c32> input,
                                    std::span<c32> output, SubmitOptions opts = {});
  void submit(ModelId model, std::span<const c32> input, std::span<c32> output,
              std::function<void(InferResponse&&)> on_done, SubmitOptions opts = {});

  /// Owning submission (thin wrappers over the zero-copy path): the input
  /// vector is moved in; the result arrives in InferResponse::output.
  std::future<InferResponse> submit(ModelId model, std::vector<c32> input,
                                    SubmitOptions opts = {});
  void submit(ModelId model, std::vector<c32> input,
              std::function<void(InferResponse&&)> on_done, SubmitOptions opts = {});

  /// Real-input (RFFT half-spectrum lane) zero-copy submission: the spans
  /// hold real samples and the request executes through Session::run_real.
  /// Same element counts and lifetime rules as the complex spans.  Requests
  /// of both lanes share one QoS queue; micro-batches are formed
  /// lane-homogeneous (a batch never mixes run and run_real requests).
  std::future<InferResponse> submit_real(ModelId model, std::span<const float> input,
                                         std::span<float> output, SubmitOptions opts = {});
  void submit_real(ModelId model, std::span<const float> input, std::span<float> output,
                   std::function<void(InferResponse&&)> on_done, SubmitOptions opts = {});

  /// Requests currently queued for `m` (both QoS levels, excluding the
  /// micro-batch in flight).  Admission-control visibility for front-ends.
  [[nodiscard]] std::size_t queue_depth(ModelId m) const;

  /// Per-request execution-time estimate (seconds) the admission control
  /// uses for `m`: an EWMA learned from completed micro-batches, 0 until
  /// the first batch finishes.
  [[nodiscard]] double exec_estimate(ModelId m) const;
  /// Overrides the learned estimate — a calibration/ops hook (and what
  /// makes admission-control tests deterministic).
  void set_exec_estimate(ModelId m, double seconds);

  /// Mean inter-arrival gap estimate (seconds) for `m`: an EWMA over the
  /// gaps between accepted submissions, 0 until two have arrived.  The
  /// adaptive batch policy sizes speculative micro-batches from it.
  [[nodiscard]] double arrival_estimate(ModelId m) const;
  /// Overrides the learned arrival gap — same role as set_exec_estimate.
  void set_arrival_estimate(ModelId m, double seconds);

  /// Flushes every non-empty queue as (possibly partial) micro-batches now,
  /// without waiting for size or deadline triggers.
  void flush();

  /// Blocks until every accepted request has been delivered.
  void drain();

  enum class StopMode {
    Drain,  // execute everything already accepted, then stop
    Abort,  // complete queued-but-unlaunched requests with Status::ShutDown
  };

  /// Stops intake and winds down per `mode`.  Idempotent; concurrent
  /// submissions race benignly (they complete with Status::ShutDown).
  void stop(StopMode mode = StopMode::Drain);

  [[nodiscard]] ServerStats stats() const;

  /// Cumulative per-stage latency/traffic counters, trace-style:
  ///   serve.queue-wait   sum of request queueing seconds
  ///   serve.gather       input staging; bytes_read counts only bytes the
  ///                      server actually copied (zero for single-request
  ///                      micro-batches, which run on the request memory)
  ///   serve.execute      batched forwards (kernel_launches = micro-batches)
  ///   serve.scatter      result delivery; bytes_written counts only bytes
  ///                      copied out of the staging area
  [[nodiscard]] trace::PipelineCounters latency_counters() const;

 private:
  struct Pending {
    RequestId id = 0;
    Priority priority = Priority::Normal;
    // Zero-copy views (always set for accepted requests; for owning
    // submissions they view `owned`/the response vector).
    std::span<const c32> in_view;
    std::span<c32> out_view;
    // Real-lane views (set instead of the complex ones when real == true;
    // the real lane is span-only, never owning).
    std::span<const float> fin_view;
    std::span<float> fout_view;
    bool real = false;            // executes through Session::run_real
    std::vector<c32> owned;       // backing storage for owning submissions
    bool owning = false;
    std::promise<InferResponse> promise;
    std::function<void(InferResponse&&)> callback;  // used when no promise
    bool has_promise = false;
    double submit_s = 0.0;   // server-clock submission stamp
    double deadline_s = 0.0;  // relative admission deadline (0 = none)
  };

  // Queue levels, pop-priority order.
  static constexpr std::size_t kHigh = 0;
  static constexpr std::size_t kNormal = 1;
  static constexpr std::size_t kLevels = 2;

  struct Model {
    core::ModelHandle handle = 0;
    std::size_t in_elems = 0;   // per request
    std::size_t out_elems = 0;  // per request
    std::optional<core::Session> session;
    // Guarded by the server's mu_ (a nested struct cannot name the owning
    // server's member in a guarded_by attribute, so the protocol is stated
    // here and enforced by the TFNO_REQUIRES(mu_) on every *_locked helper
    // that touches these fields):
    std::deque<Pending> queue[kLevels];
    bool busy = false;  // an executor currently owns this model
    bool flush_requested = false;  // flush() arrived while busy; launch on completion
    // Owned by the executor holding busy == true (single-owner protocol —
    // only the worker that observed busy flip false->true under mu_ may
    // touch the staging buffers, and it does so unlocked):
    AlignedBuffer<c32> batch_in;   // [max_batch, in_elems]
    AlignedBuffer<c32> batch_out;  // [max_batch, out_elems]
    AlignedBuffer<float> batch_in_f;   // real-lane staging, sized lazily
    AlignedBuffer<float> batch_out_f;
    // Guarded by the server's mu_: EWMA of per-request execution seconds,
    // learned from completed micro-batches (0 until the first completes).
    double exec_ewma_s = 0.0;
    // Guarded by the server's mu_: EWMA of the gap between accepted
    // submissions (0 until two arrive) and the previous arrival stamp
    // (-1 before the first).  The adaptive policy's load signal.
    double arrival_ewma_s = 0.0;
    double last_arrival_s = -1.0;

    [[nodiscard]] std::size_t queued() const noexcept {
      return queue[kHigh].size() + queue[kNormal].size();
    }
  };

  ModelId register_model(std::unique_ptr<Model> m);
  void submit_impl(ModelId model, Pending&& p);
  static void complete(Pending&& p, InferResponse&& r);
  /// Effective starvation bound (policy.starvation_s or its default).
  [[nodiscard]] double starvation_s() const noexcept;
  /// Oldest submission stamp across both levels; +inf when empty.
  [[nodiscard]] static double earliest_submit(const Model& m) noexcept;
  /// The queue the next pop (per QoS order: overdue Normal first, then
  /// High FIFO, then Normal FIFO) would come from.  Caller holds mu_ and
  /// has checked the model has queued work.  `count_promotion` tallies a
  /// starvation promotion when an overdue Normal outranks queued High work
  /// — pass it only when the front is actually popped.
  std::deque<Pending>& next_queue_locked(Model& m, double now, bool count_promotion)
      TFNO_REQUIRES(mu_);
  /// Pops the next request per QoS order.  Caller holds mu_ and has
  /// checked the model has queued work.
  Pending pop_next_locked(Model& m, double now) TFNO_REQUIRES(mu_);
  /// Admission control: can `p` still meet its deadline given the backlog
  /// ahead of it (per QoS class) and the learned per-request estimate?
  [[nodiscard]] bool deadline_feasible_locked(const Model& m, const Pending& p) const noexcept
      TFNO_REQUIRES(mu_);
  /// Largest micro-batch the policy currently allows for `m`: max_batch,
  /// or max_batch * growth_limit when the adaptive policy sees sustained
  /// overload (work arriving at least as fast as the learned estimate can
  /// drain it one batch at a time).
  [[nodiscard]] std::size_t batch_cap_locked(const Model& m) const noexcept TFNO_REQUIRES(mu_);
  /// Queue depth that triggers a size-based launch for `m`.  Non-adaptive:
  /// always max_batch.  Adaptive: the expected number of arrivals within
  /// max_delay_s (speculative sizing — waiting longer would not fill the
  /// batch further), clamped to [1, batch_cap_locked(m)].
  [[nodiscard]] std::size_t launch_target_locked(const Model& m) const noexcept
      TFNO_REQUIRES(mu_);
  // Pops up to batch_cap_locked(m) requests and hands them to the pool.
  // Caller holds mu_ and has checked the model is idle with a non-empty
  // queue.
  void launch_locked(Model& m) TFNO_REQUIRES(mu_);
  void execute(Model& m, std::vector<Pending> batch) TFNO_EXCLUDES(mu_);
  void timekeeper_loop() TFNO_EXCLUDES(mu_);
  // True when `m`'s queue should be flushed by time rather than size.
  [[nodiscard]] bool deadline_due_locked(const Model& m, double now) const TFNO_REQUIRES(mu_);
  // Launches idle non-empty queues and waits until nothing is in flight.
  void drain_locked(runtime::MutexLock& lock) TFNO_REQUIRES(mu_);

  Options opts_;
  std::shared_ptr<core::Engine> engine_;
  runtime::Timer clock_;  // server-lifetime monotonic clock

  mutable runtime::Mutex mu_;
  std::vector<std::unique_ptr<Model>> models_ TFNO_GUARDED_BY(mu_);
  bool accepting_ TFNO_GUARDED_BY(mu_) = true;
  bool stopping_ TFNO_GUARDED_BY(mu_) = false;      // timekeeper shutdown flag
  bool stop_running_ TFNO_GUARDED_BY(mu_) = false;  // a stop() call owns the wind-down
  bool stop_done_ TFNO_GUARDED_BY(mu_) = false;     // stop() ran to completion (join included)
  std::uint64_t inflight_ TFNO_GUARDED_BY(mu_) = 0;  // accepted, not yet delivered
  RequestId next_id_ TFNO_GUARDED_BY(mu_) = 1;
  ServerStats stats_ TFNO_GUARDED_BY(mu_);

  std::condition_variable deadline_cv_;  // wakes the timekeeper
  std::condition_variable drained_cv_;   // wakes drain()/stop()

  mutable runtime::Mutex trace_mu_;
  trace::PipelineCounters latency_ TFNO_GUARDED_BY(trace_mu_){"serve"};

  runtime::ThreadPool pool_;
  std::thread timekeeper_;
};

}  // namespace turbofno::serve
