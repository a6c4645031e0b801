// Analytic operation accounting for pruned FFTs (reproduces Figure 5).
//
// The counter walks the paper's pruned radix-2 DIF butterfly network
// (Section 3.3) stage by stage without touching data: output truncation
// drops every butterfly whose subtree feeds no kept bin, and input zero
// padding turns butterflies with a zero upper input into a copy plus a
// twiddle scale.  FftPlan's flop counters, the trace counters and the
// gpusim A100 model all use this count, so they describe the paper's
// pruned GPU kernel.  The CPU plans execute the dense Stockham transform
// and only filter their loads and stores (see fft/plan.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

namespace turbofno::fft {

struct OpCount {
  std::uint64_t unit_ops = 0;  // butterfly outputs computed (Fig 5 convention)
  std::uint64_t cmul = 0;      // complex multiplies performed
  std::uint64_t cadd = 0;      // complex additions performed

  [[nodiscard]] std::uint64_t flops() const noexcept { return 6 * cmul + 2 * cadd; }
};

/// Needed-output count of the block at `block_index` among the 2^depth
/// blocks of a depth-d DIF stage when only the first `m` natural-order bins
/// are required.  The even child needs ceil(need/2) bins, the odd child
/// floor(need/2); a block that needs none is pruned with its subtree.
std::size_t block_need(std::size_t block_index, std::size_t depth, std::size_t m) noexcept;

/// Ops of the pruned transform: n-point, first `m` outputs needed, first `p`
/// inputs nonzero.
OpCount count_pruned_ops(std::size_t n, std::size_t m, std::size_t p) noexcept;

/// Ops of the unpruned n-point transform (m == p == n).
OpCount count_full_ops(std::size_t n) noexcept;

/// unit-op fraction retained vs the full transform, e.g. Figure 5's
/// 4-point example: m=1 -> 0.375, m=2 -> 0.75.
double pruned_fraction(std::size_t n, std::size_t m, std::size_t p) noexcept;

}  // namespace turbofno::fft
