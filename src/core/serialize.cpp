#include "core/serialize.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "core/fno.hpp"

namespace turbofno::core {

const WeightBundle::Entry* WeightBundle::find(const std::string& name) const noexcept {
  for (const auto& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

namespace {

constexpr std::uint32_t kMagic = 0x4f4e4654u;  // "TFNO" little-endian

template <class T>
void put(std::vector<std::uint8_t>& out, const T& v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

template <class T>
T get(std::span<const std::uint8_t> bytes, std::size_t& off) {
  if (off + sizeof(T) > bytes.size()) throw std::runtime_error("weight bundle: truncated");
  T v;
  std::memcpy(&v, bytes.data() + off, sizeof(T));
  off += sizeof(T);
  return v;
}

}  // namespace

std::vector<std::uint8_t> save_bundle(const WeightBundle& bundle) {
  std::vector<std::uint8_t> out;
  put(out, kMagic);
  put(out, kBundleVersion);
  put(out, static_cast<std::uint32_t>(bundle.entries.size()));
  for (const auto& e : bundle.entries) {
    put(out, static_cast<std::uint32_t>(e.name.size()));
    out.insert(out.end(), e.name.begin(), e.name.end());
    put(out, static_cast<std::uint64_t>(e.data.size()));
    if (!e.data.empty()) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(e.data.data());
      out.insert(out.end(), p, p + e.data.size() * sizeof(c32));
    }
  }
  return out;
}

WeightBundle load_bundle(std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  if (get<std::uint32_t>(bytes, off) != kMagic) {
    throw std::runtime_error("weight bundle: bad magic");
  }
  const auto version = get<std::uint32_t>(bytes, off);
  if (version != kBundleVersion) {
    throw std::runtime_error("weight bundle: unsupported version " + std::to_string(version));
  }
  const auto count = get<std::uint32_t>(bytes, off);
  WeightBundle bundle;
  bundle.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    WeightBundle::Entry e;
    const auto name_len = get<std::uint32_t>(bytes, off);
    if (off + name_len > bytes.size()) throw std::runtime_error("weight bundle: truncated");
    e.name.assign(reinterpret_cast<const char*>(bytes.data() + off), name_len);
    off += name_len;
    const auto elems = get<std::uint64_t>(bytes, off);
    if (off + elems * sizeof(c32) > bytes.size()) {
      throw std::runtime_error("weight bundle: truncated");
    }
    e.data.resize(elems);
    // memcpy with a null destination is UB even for zero bytes, and an
    // empty vector's data() may be null — skip the copy for empty entries.
    if (elems != 0) std::memcpy(e.data.data(), bytes.data() + off, elems * sizeof(c32));
    off += elems * sizeof(c32);
    bundle.entries.push_back(std::move(e));
  }
  return bundle;
}

void save_bundle_file(const WeightBundle& bundle, const std::string& path) {
  const auto bytes = save_bundle(bundle);
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("weight bundle: cannot open " + path);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("weight bundle: write failed for " + path);
}

WeightBundle load_bundle_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw std::runtime_error("weight bundle: cannot open " + path);
  const auto size = static_cast<std::size_t>(f.tellg());
  f.seekg(0);
  std::vector<std::uint8_t> bytes(size);
  f.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size));
  if (!f) throw std::runtime_error("weight bundle: read failed for " + path);
  return load_bundle(bytes);
}

namespace {

WeightBundle::Entry snapshot(const std::string& name, std::span<const c32> w) {
  return {name, std::vector<c32>(w.begin(), w.end())};
}

void restore(std::span<c32> dst, const WeightBundle& bundle, const std::string& name) {
  const auto* e = bundle.find(name);
  if (e == nullptr) throw std::runtime_error("weight bundle: missing tensor " + name);
  if (e->data.size() != dst.size()) {
    throw std::runtime_error("weight bundle: size mismatch for " + name);
  }
  std::copy(e->data.begin(), e->data.end(), dst.begin());
}

}  // namespace

template <class Config>
WeightBundle gather_weights(const Fno<Config>& model) {
  WeightBundle b;
  b.entries.push_back(snapshot("lift", model.lift().weights()));
  const auto& layers = model.spectral_layers();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    b.entries.push_back(snapshot("spectral." + std::to_string(l), layers[l].weights()));
  }
  const auto& residuals = model.residual_layers();
  for (std::size_t l = 0; l < residuals.size(); ++l) {
    b.entries.push_back(snapshot("residual." + std::to_string(l), residuals[l].weights()));
  }
  b.entries.push_back(snapshot("project", model.projection().weights()));
  return b;
}

template <class Config>
void scatter_weights(Fno<Config>& model, const WeightBundle& bundle) {
  // Bundles written before checkpoints were complete carried only the
  // spectral tensors; surface that as a migration error, not a generic
  // missing-tensor one.  (The container format itself is unchanged, so
  // kBundleVersion stays at 1.)
  if (bundle.find("lift") == nullptr && bundle.find("spectral.0") != nullptr) {
    throw std::runtime_error(
        "weight bundle: spectral-only checkpoint from an older writer; re-save it with "
        "gather_weights to include the lift/residual/project tensors");
  }
  restore(model.lift().weights(), bundle, "lift");
  auto& layers = model.spectral_layers();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    restore(layers[l].weights(), bundle, "spectral." + std::to_string(l));
  }
  auto& residuals = model.residual_layers();
  for (std::size_t l = 0; l < residuals.size(); ++l) {
    restore(residuals[l].weights(), bundle, "residual." + std::to_string(l));
  }
  restore(model.projection().weights(), bundle, "project");
  // Every restore above found its tensor; if the bundle holds MORE entries
  // than the model consumes, it was gathered from a deeper architecture
  // (e.g. more layers) — dropping the extras silently would serve weights
  // matching no valid model, so reject it.
  const std::size_t consumed = 2 + layers.size() + residuals.size();
  if (bundle.entries.size() > consumed) {
    throw std::runtime_error("weight bundle: " +
                             std::to_string(bundle.entries.size() - consumed) +
                             " unconsumed tensor(s) — checkpoint from a deeper architecture");
  }
}

template WeightBundle gather_weights(const Fno1d&);
template WeightBundle gather_weights(const Fno2d&);
template void scatter_weights(Fno1d&, const WeightBundle&);
template void scatter_weights(Fno2d&, const WeightBundle&);

}  // namespace turbofno::core
