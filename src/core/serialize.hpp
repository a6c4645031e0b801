// Model weight serialization — a flat, versioned binary container so
// trained FNO weights can be checkpointed and reloaded across processes.
//
// Format (little endian):
//   magic "TFNO"  u32 version  u32 tensor_count
//   per tensor: u32 name_len, name bytes, u64 elem_count, elems (c32)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tensor/complex.hpp"

namespace turbofno::core {

template <class Config>
class Fno;

/// Named weight blobs gathered from / scattered into a model.
struct WeightBundle {
  struct Entry {
    std::string name;
    std::vector<c32> data;
  };
  std::vector<Entry> entries;

  [[nodiscard]] const Entry* find(const std::string& name) const noexcept;
};

/// Serializes a bundle to bytes / parses it back.  `load` throws
/// std::runtime_error on malformed input (bad magic, truncation, version).
std::vector<std::uint8_t> save_bundle(const WeightBundle& bundle);
WeightBundle load_bundle(std::span<const std::uint8_t> bytes);

/// File convenience wrappers.
void save_bundle_file(const WeightBundle& bundle, const std::string& path);
WeightBundle load_bundle_file(const std::string& path);

/// Gathers every learnable tensor of a model: "lift", "spectral.<l>",
/// "residual.<l>", and "project".  A bundle produced here is a complete
/// checkpoint — scattering it into a fresh model of the same architecture
/// reproduces the source model's outputs bitwise.  Instantiated for Fno1d
/// and Fno2d.
template <class Config>
WeightBundle gather_weights(const Fno<Config>& model);
/// Writes a bundle's tensors back into the model; throws on any missing
/// name or size mismatch (a checkpoint for a different architecture).
template <class Config>
void scatter_weights(Fno<Config>& model, const WeightBundle& bundle);

inline constexpr std::uint32_t kBundleVersion = 1;

}  // namespace turbofno::core
