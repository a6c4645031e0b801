#include "shard/worker.hpp"

#include <stdexcept>

namespace turbofno::shard {

namespace {

net::SocketServer::Options front_options(const Worker::Options& opts) {
  net::SocketServer::Options so;
  so.port = opts.port;
  so.io_threads = opts.io_threads;
  return so;
}

}  // namespace

Worker::Worker(const Topology& topo, std::size_t index, Options opts)
    : index_(index), server_(std::make_shared<serve::InferenceServer>(opts.serve)) {
  // Register the owned subset in global order: local id i is the i-th
  // owned model, exactly the mapping Topology::route computes.
  for (const std::size_t g : topo.owned(index)) {
    server_->load_model(topo.models()[g].cfg);
  }
  front_ = std::make_unique<net::SocketServer>(front_options(opts), server_);
}

Worker::Worker(const Topology& topo, std::size_t index, const core::Engine& catalog,
               std::span<const core::ModelHandle> catalog_handles, Options opts)
    : index_(index), server_(std::make_shared<serve::InferenceServer>(opts.serve)) {
  if (catalog_handles.size() != topo.model_count()) {
    throw std::invalid_argument("shard::Worker: catalog_handles/topology size mismatch");
  }
  for (const std::size_t g : topo.owned(index)) {
    server_->adopt_model(catalog, catalog_handles[g]);
  }
  front_ = std::make_unique<net::SocketServer>(front_options(opts), server_);
}

Worker::~Worker() { stop(); }

void Worker::start() { front_->start(); }

void Worker::stop() { front_->stop(); }

}  // namespace turbofno::shard
