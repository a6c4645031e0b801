#include "fft/opcount.hpp"

#include <algorithm>

#include "fft/twiddle.hpp"

namespace turbofno::fft {

std::size_t block_need(std::size_t block_index, std::size_t depth, std::size_t m) noexcept {
  // Block `b` of the depth-d stage holds the bins k with
  // k mod 2^d == bit_reverse(b, d); of those, the ones below m number
  // ceil((m - r) / 2^d).
  const std::size_t r = bit_reverse(block_index, depth);
  const std::size_t stride = std::size_t{1} << depth;
  if (r >= m) return 0;
  return (m - r + stride - 1) >> depth;
}

OpCount count_pruned_ops(std::size_t n, std::size_t m, std::size_t p) noexcept {
  OpCount c{};
  if (!is_pow2(n)) return c;
  m = std::clamp<std::size_t>(m == 0 ? n : m, 1, n);
  p = std::clamp<std::size_t>(p == 0 ? n : p, 1, n);

  std::size_t depth = 0;
  for (std::size_t L = n; L >= 2; L /= 2, ++depth) {
    const std::size_t half = L / 2;
    const std::size_t nblocks = n / L;
    const std::size_t z = std::min(p, L);
    const std::size_t full_end = z > half ? z - half : 0;
    const std::size_t copy_end = std::min(z, half);

    for (std::size_t b = 0; b < nblocks; ++b) {
      const std::size_t need = block_need(b, depth, m);
      if (need == 0) continue;
      if (need >= 2) {
        // Full butterflies; j == 0 is twiddle-free when it falls in the full
        // region.
        if (full_end > 0) {
          c.unit_ops += 2;
          c.cadd += 2;
          for (std::size_t j = 1; j < full_end; ++j) {
            c.unit_ops += 2;
            c.cadd += 2;
            c.cmul += 1;
          }
        }
        // Zero upper input: odd output is a twiddle scale, even is a copy.
        for (std::size_t j = full_end; j < copy_end; ++j) {
          c.unit_ops += 1;
          c.cmul += 1;
        }
      } else {
        // Odd subtree pruned: sums only, and only where the upper input is
        // nonzero.
        c.unit_ops += full_end;
        c.cadd += full_end;
      }
    }
  }
  return c;
}

OpCount count_full_ops(std::size_t n) noexcept { return count_pruned_ops(n, n, n); }

double pruned_fraction(std::size_t n, std::size_t m, std::size_t p) noexcept {
  const OpCount full = count_full_ops(n);
  if (full.unit_ops == 0) return 0.0;
  return static_cast<double>(count_pruned_ops(n, m, p).unit_ops) /
         static_cast<double>(full.unit_ops);
}

}  // namespace turbofno::fft
