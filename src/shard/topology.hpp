// Shard topology: which worker owns which model of the global registry.
//
// The global model-id space is what clients address (a request frame's
// `model` field); each worker process registers only its owned subset, in
// global-id order, so a model's *local* id at its worker is its rank among
// that worker's models.  The router translates global -> (worker, local)
// on the way in and back on the way out; both sides derive the mapping
// from the same Topology, so no id table ever crosses the wire.
//
// A topology round-trips through a compact spec string (what tfno_shardd
// worker processes receive on their command line):
//
//   1d:in,hidden,out,n,modes,layers@worker
//   2d:in,hidden,out,nx,ny,modes_x,modes_y,layers@worker
//
// joined by ';' — e.g. "1d:2,8,2,64,16,2@0;2d:1,8,1,16,16,4,4,2@1".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace turbofno::shard {

/// One globally-addressable model and the worker that serves it.
struct ModelEntry {
  core::ModelConfig cfg;
  std::size_t worker = 0;
};

/// Where a global model id lives.
struct Route {
  std::size_t worker = 0;
  std::uint32_t local = 0;  // the model's id at that worker
};

class Topology {
 public:
  /// Appends a model owned by `worker`; returns its global id.
  std::size_t add(const core::ModelConfig& cfg, std::size_t worker);

  [[nodiscard]] const std::vector<ModelEntry>& models() const noexcept { return models_; }
  [[nodiscard]] std::size_t model_count() const noexcept { return models_.size(); }

  /// Highest owner index + 1 (0 for an empty topology).
  [[nodiscard]] std::size_t worker_count() const noexcept;
  /// Models owned by `worker`.
  [[nodiscard]] std::size_t owned_count(std::size_t worker) const noexcept;
  /// Global ids owned by `worker`, in global order (== local-id order).
  [[nodiscard]] std::vector<std::size_t> owned(std::size_t worker) const;

  /// Maps a global id to its worker and worker-local id.  Throws
  /// std::out_of_range for an unknown id.
  [[nodiscard]] Route route(std::size_t global) const;

  /// Serializes to the spec-string grammar above.
  [[nodiscard]] std::string spec() const;
  /// Parses a spec string.  Throws std::invalid_argument with a message
  /// naming the offending entry.
  static Topology parse(const std::string& spec);

 private:
  std::vector<ModelEntry> models_;
};

}  // namespace turbofno::shard
