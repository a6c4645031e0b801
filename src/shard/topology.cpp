#include "shard/topology.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <variant>

namespace turbofno::shard {

std::size_t Topology::add(const core::ModelConfig& cfg, std::size_t worker) {
  models_.push_back({cfg, worker});
  return models_.size() - 1;
}

std::size_t Topology::worker_count() const noexcept {
  std::size_t n = 0;
  for (const auto& m : models_) n = std::max(n, m.worker + 1);
  return n;
}

std::size_t Topology::owned_count(std::size_t worker) const noexcept {
  std::size_t n = 0;
  for (const auto& m : models_) {
    if (m.worker == worker) ++n;
  }
  return n;
}

std::vector<std::size_t> Topology::owned(std::size_t worker) const {
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < models_.size(); ++i) {
    if (models_[i].worker == worker) ids.push_back(i);
  }
  return ids;
}

Route Topology::route(std::size_t global) const {
  if (global >= models_.size()) {
    throw std::out_of_range("shard::Topology::route: unknown model id");
  }
  Route r;
  r.worker = models_[global].worker;
  // Local id = rank among the owner's models in global order; the worker
  // registers its subset in the same order, so the two derivations agree.
  std::uint32_t local = 0;
  for (std::size_t i = 0; i < global; ++i) {
    if (models_[i].worker == r.worker) ++local;
  }
  r.local = local;
  return r;
}

namespace {

/// The two entry grammars (topology.hpp), less the "@worker" suffix.
void write_entry(std::ostream& out, const core::Fno1dConfig& c) {
  out << "1d:" << c.in_channels << ',' << c.hidden << ',' << c.out_channels << ',' << c.n << ','
      << c.modes << ',' << c.layers;
}

void write_entry(std::ostream& out, const core::Fno2dConfig& c) {
  out << "2d:" << c.in_channels << ',' << c.hidden << ',' << c.out_channels << ',' << c.nx << ','
      << c.ny << ',' << c.modes_x << ',' << c.modes_y << ',' << c.layers;
}

[[noreturn]] void bad_entry(const std::string& entry, const char* why) {
  throw std::invalid_argument("shard::Topology::parse: " + std::string(why) + " in \"" + entry +
                              "\"");
}

/// Parses the comma-separated field list + "@worker" suffix of one entry.
std::vector<std::size_t> parse_fields(const std::string& entry, const std::string& rest,
                                      std::size_t expect, std::size_t& worker) {
  const auto at = rest.rfind('@');
  if (at == std::string::npos) bad_entry(entry, "missing @worker suffix");
  std::vector<std::size_t> fields;
  std::size_t pos = 0;
  const std::string list = rest.substr(0, at);
  while (pos <= list.size()) {
    const auto comma = list.find(',', pos);
    const std::string tok =
        list.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    std::size_t used = 0;
    std::size_t v = 0;
    try {
      v = std::stoul(tok, &used);
    } catch (const std::exception&) {
      bad_entry(entry, "non-numeric field");
    }
    if (used != tok.size() || tok.empty()) bad_entry(entry, "non-numeric field");
    fields.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (fields.size() != expect) bad_entry(entry, "wrong field count");
  const std::string wtok = rest.substr(at + 1);
  std::size_t used = 0;
  try {
    worker = std::stoul(wtok, &used);
  } catch (const std::exception&) {
    bad_entry(entry, "bad worker index");
  }
  if (used != wtok.size() || wtok.empty()) bad_entry(entry, "bad worker index");
  return fields;
}

}  // namespace

std::string Topology::spec() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < models_.size(); ++i) {
    if (i != 0) out << ';';
    std::visit([&](const auto& c) { write_entry(out, c); }, models_[i].cfg);
    out << '@' << models_[i].worker;
  }
  return out.str();
}

Topology Topology::parse(const std::string& spec) {
  Topology topo;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const auto semi = spec.find(';', pos);
    const std::string entry =
        spec.substr(pos, semi == std::string::npos ? std::string::npos : semi - pos);
    pos = semi == std::string::npos ? spec.size() : semi + 1;
    if (entry.empty()) bad_entry(entry, "empty entry");
    std::size_t worker = 0;
    if (entry.rfind("1d:", 0) == 0) {
      const auto f = parse_fields(entry, entry.substr(3), 6, worker);
      core::Fno1dConfig cfg;
      cfg.in_channels = f[0];
      cfg.hidden = f[1];
      cfg.out_channels = f[2];
      cfg.n = f[3];
      cfg.modes = f[4];
      cfg.layers = f[5];
      topo.add(cfg, worker);
    } else if (entry.rfind("2d:", 0) == 0) {
      const auto f = parse_fields(entry, entry.substr(3), 8, worker);
      core::Fno2dConfig cfg;
      cfg.in_channels = f[0];
      cfg.hidden = f[1];
      cfg.out_channels = f[2];
      cfg.nx = f[3];
      cfg.ny = f[4];
      cfg.modes_x = f[5];
      cfg.modes_y = f[6];
      cfg.layers = f[7];
      topo.add(cfg, worker);
    } else {
      bad_entry(entry, "unknown entry kind (want 1d:/2d:)");
    }
  }
  return topo;
}

}  // namespace turbofno::shard
