// Public configuration types of the TurboFNO core library.
#pragma once

#include <cstddef>
#include <variant>

#include "fused/ladder.hpp"

namespace turbofno::core {

/// Which pipeline implements the spectral convolution.
using Backend = fused::Variant;

/// Weight scheme of the spectral mixing.
enum class WeightScheme {
  /// One complex matrix W[out, hidden] applied at every retained frequency —
  /// the paper's formulation (a single tall-and-skinny CGEMM).
  Shared,
  /// Canonical FNO: an independent W_f[out, hidden] per retained mode
  /// (library extension, 1D only; runs on the unfused path).
  PerMode,
};

struct Fno1dConfig {
  std::size_t in_channels = 1;    // physical input channels
  std::size_t hidden = 64;        // lifted width (paper's K)
  std::size_t out_channels = 1;   // physical output channels
  std::size_t n = 256;            // spatial resolution (power of two)
  std::size_t modes = 64;         // retained frequencies
  std::size_t layers = 4;         // spectral layers
  Backend backend = Backend::FullyFused;
  WeightScheme scheme = WeightScheme::Shared;
  unsigned seed = 0x7f4a7c15u;    // weight init seed

  bool operator==(const Fno1dConfig&) const = default;
};

struct Fno2dConfig {
  std::size_t in_channels = 1;
  std::size_t hidden = 32;
  std::size_t out_channels = 1;
  std::size_t nx = 64;
  std::size_t ny = 64;
  std::size_t modes_x = 16;
  std::size_t modes_y = 16;
  std::size_t layers = 4;
  Backend backend = Backend::FullyFused;
  unsigned seed = 0x2545f491u;

  bool operator==(const Fno2dConfig&) const = default;
};

/// Either model's configuration: what the Engine, the serving layer and the
/// shard topology register and carry.  An Fno1dConfig or Fno2dConfig
/// converts implicitly.
using ModelConfig = std::variant<Fno1dConfig, Fno2dConfig>;

/// Samples per channel of one field: n, or nx * ny.
constexpr std::size_t spatial_size(const Fno1dConfig& cfg) noexcept { return cfg.n; }
constexpr std::size_t spatial_size(const Fno2dConfig& cfg) noexcept { return cfg.nx * cfg.ny; }

}  // namespace turbofno::core
