// Blocking configuration of the TurboFNO CGEMM (paper Table 1).
//
// The kernel is "fully templated" (Section 3.1): thread-block tile shape and
// register tile factors are compile-time parameters, instantiated for the
// shapes the pipelines use plus an ablation sweep.  On the CPU substrate the
// thread-block tile becomes the per-task cache tile and, on the scalar
// backend, the register tile the innermost accumulator block.
#pragma once

#include <cstddef>

namespace turbofno::gemm {

/// Compile-time tile shape.  Names mirror the paper:
///   Mtb x Ntb x Ktb — thread-block (cache) tile,
///   Mt x Nt         — per-thread register tile.
/// On the CPU, Mtb x Ntb is the C tile of one parallel task, and Ktb and
/// Mt x Nt shape only the scalar backend's GEMM (its k-tile and register
/// tile) and the GPU cost model.  The SIMD backends run every register
/// block over the whole K with the backend's own block shape
/// (gemm::RegBlock in micro_kernel.hpp), whatever Ktb, Mt and Nt say.
template <std::size_t Mtb_, std::size_t Ntb_, std::size_t Ktb_, std::size_t Mt_ = 4,
          std::size_t Nt_ = 4>
struct Tiles {
  static constexpr std::size_t Mtb = Mtb_;
  static constexpr std::size_t Ntb = Ntb_;
  static constexpr std::size_t Ktb = Ktb_;
  static constexpr std::size_t Mt = Mt_;
  static constexpr std::size_t Nt = Nt_;
  static_assert(Mtb % Mt == 0 && Ntb % Nt == 0, "register tile must divide block tile");
};

/// Paper Table 1: m_tb=32, n_tb=32, k_tb=8, m_t=n_t=4 for the fused kernel;
/// Section 3.1 quotes Mtb=Ntb=64 for the standalone CGEMM.  We expose both.
using FusedTiles = Tiles<32, 32, 8, 4, 4>;
using StandaloneTiles = Tiles<64, 64, 8, 4, 4>;

/// Runtime view of a tile configuration (for printing Table 1 and sweeps).
struct TileShape {
  std::size_t mtb = 0, ntb = 0, ktb = 0, mt = 0, nt = 0;
};

template <class Cfg>
constexpr TileShape shape_of() noexcept {
  return {Cfg::Mtb, Cfg::Ntb, Cfg::Ktb, Cfg::Mt, Cfg::Nt};
}

/// Warp-level tile of the paper's Table 1 (m_w x n_w = 32 x 16).  The CPU
/// substrate has no warps; the value is carried for the GPU cost model and
/// the Table 1 bench.
inline constexpr std::size_t kWarpTileM = 32;
inline constexpr std::size_t kWarpTileN = 16;

}  // namespace turbofno::gemm
