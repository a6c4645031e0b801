#include "shard/supervisor.hpp"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/client.hpp"
#include "runtime/timer.hpp"

namespace turbofno::shard {

namespace {

constexpr char kPortPrefix[] = "TFNO_SHARDD_PORT=";

/// True (and `port` set) when `line` is a worker port announcement.
bool parse_port_line(const std::string& line, std::uint16_t& port) {
  const std::size_t plen = sizeof kPortPrefix - 1;
  if (line.compare(0, plen, kPortPrefix) != 0) return false;
  try {
    std::size_t used = 0;
    const unsigned long v = std::stoul(line.substr(plen), &used);
    if (used == 0 || v > 65535) return false;
    port = static_cast<std::uint16_t>(v);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// One connect+heartbeat probe against a worker's private port.  Short
/// timeouts: a probe is a liveness check, not a request.
bool probe_worker(std::uint16_t port) noexcept {
  try {
    net::Client c;
    net::Client::ConnectOptions co;
    co.timeout_s = 0.25;
    co.attempts = 1;
    co.io_timeout_s = 0.5;
    c.connect(port, "127.0.0.1", co);
    return c.ping(0.5);
  } catch (const std::exception&) {
    return false;
  }
}

/// Workers rebuild the topology from its spec string, which carries only
/// the model shapes (topology.hpp): a backend, weight scheme or seed the
/// grammar cannot express would make a worker serve a different model than
/// an in-process Worker given the same Topology.  Throws naming the entry.
void check_spec_round_trip(const Topology& topo) {
  const std::string spec = topo.spec();
  const Topology rebuilt = Topology::parse(spec);
  std::size_t entry_begin = 0;
  for (std::size_t i = 0; i < topo.model_count(); ++i) {
    const std::size_t entry_end = spec.find(';', entry_begin);
    if (topo.models()[i].cfg != rebuilt.models()[i].cfg) {
      throw std::invalid_argument(
          "shard::Supervisor: model " + std::to_string(i) + " (\"" +
          spec.substr(entry_begin, entry_end - entry_begin) +
          "\") has a backend, weight scheme or seed the worker spec string cannot carry");
    }
    entry_begin = entry_end + 1;
  }
}

}  // namespace

Supervisor::Supervisor(Topology topo, Options opts,
                       std::function<void(std::size_t, std::uint16_t)> on_endpoint)
    : topo_(std::move(topo)), opts_(std::move(opts)), on_endpoint_(std::move(on_endpoint)) {
  if (opts_.shardd_path.empty()) {
    throw std::invalid_argument("shard::Supervisor: shardd_path is required");
  }
  check_spec_round_trip(topo_);
  hb_s_ = opts_.heartbeat_s > 0.0 ? opts_.heartbeat_s : default_heartbeat_s();
  if (opts_.backoff_min_s <= 0.0) opts_.backoff_min_s = default_backoff_s();
  opts_.backoff_max_s = std::max(opts_.backoff_max_s, opts_.backoff_min_s);
}

Supervisor::~Supervisor() { stop(); }

void Supervisor::spawn_worker_locked(std::size_t index, double now) {
  WorkerProc& w = *workers_[index];
  std::vector<std::string> argv = {opts_.shardd_path,  "--worker",
                                   "--index",          std::to_string(index),
                                   "--topology",       topo_.spec()};
  argv.insert(argv.end(), opts_.extra_args.begin(), opts_.extra_args.end());
  w.proc = runtime::Subprocess::spawn(argv);
  w.pipe_buf.clear();
  w.announced = false;
  w.port = 0;
  w.missed_beats = 0;
  w.respawn_at_s = 0.0;
  ++stats_.spawns;
  if (w.ever_spawned) ++stats_.restarts;
  w.ever_spawned = true;
  (void)now;
}

void Supervisor::drain_pipe_locked(std::size_t index) {
  WorkerProc& w = *workers_[index];
  if (!w.proc.valid()) return;
  w.proc.read_stdout(w.pipe_buf);
  std::size_t nl;
  while ((nl = w.pipe_buf.find('\n')) != std::string::npos) {
    const std::string line = w.pipe_buf.substr(0, nl);
    w.pipe_buf.erase(0, nl + 1);
    std::uint16_t port = 0;
    if (parse_port_line(line, port)) {
      w.announced = true;
      w.port = port;
      ++stats_.endpoints_seen;
      if (on_endpoint_) on_endpoint_(index, port);
    }
  }
}

void Supervisor::monitor_loop() {
  runtime::Timer clock;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    {
      const runtime::MutexLock lock(mu_);
      const double now = clock.seconds();
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        WorkerProc& w = *workers_[i];
        drain_pipe_locked(i);
        if (w.proc.valid()) {
          if (w.proc.poll_exit()) {
            // Harvest any final output (a dying worker may have announced
            // just before the crash), then schedule the restart.
            drain_pipe_locked(i);
            w.proc = runtime::Subprocess{};
            w.announced = false;
            w.backoff_s = w.backoff_s <= 0.0
                              ? opts_.backoff_min_s
                              : std::min(w.backoff_s * 2.0, opts_.backoff_max_s);
            w.respawn_at_s = now + w.backoff_s;
            continue;
          }
          if (w.announced && now >= w.next_probe_s) {
            w.next_probe_s = now + hb_s_;
            if (probe_worker(w.port)) {
              w.missed_beats = 0;
              w.backoff_s = 0.0;  // healthy again: future restarts start small
            } else if (++w.missed_beats >= opts_.heartbeat_misses) {
              // A wedged worker (alive but unresponsive) is as dead as a
              // crashed one: kill it and let the exit path respawn.
              w.proc.signal(SIGKILL);
              ++stats_.heartbeat_kills;
              w.missed_beats = 0;
            }
          }
        } else if (w.ever_spawned && now >= w.respawn_at_s) {
          spawn_worker_locked(i, now);
          w.next_probe_s = now + hb_s_;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(opts_.poll_s));
  }
}

void Supervisor::start() {
  {
    const runtime::MutexLock lock(mu_);
    if (started_) throw std::logic_error("shard::Supervisor::start called twice");
    started_ = true;
    workers_.clear();
    for (std::size_t i = 0; i < topo_.worker_count(); ++i) {
      workers_.push_back(std::make_unique<WorkerProc>());
    }
    runtime::Timer clock;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      spawn_worker_locked(i, clock.seconds());
      workers_[i]->next_probe_s = hb_s_;  // first probe after one period
    }
  }
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  monitor_ = std::thread([this] { monitor_loop(); });
}

void Supervisor::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  // Monitor first: once it is joined, nothing can restart what we kill.
  stop_requested_.store(true, std::memory_order_release);
  if (monitor_.joinable()) monitor_.join();
  {
    const runtime::MutexLock lock(mu_);
    for (auto& wp : workers_) {
      if (wp->proc.valid()) wp->proc.terminate(/*grace_s=*/2.0);
    }
  }
  running_.store(false, std::memory_order_release);
}

Supervisor::Stats Supervisor::stats() const {
  const runtime::MutexLock lock(mu_);
  return stats_;
}

pid_t Supervisor::worker_pid(std::size_t index) const {
  const runtime::MutexLock lock(mu_);
  if (index >= workers_.size() || !workers_[index]->proc.valid()) return -1;
  return workers_[index]->proc.pid();
}

void Supervisor::kill_worker(std::size_t index) {
  const runtime::MutexLock lock(mu_);
  if (index < workers_.size()) workers_[index]->proc.signal(SIGKILL);
}

}  // namespace turbofno::shard
