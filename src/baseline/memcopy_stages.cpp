#include "baseline/memcopy_stages.hpp"

#include <cstring>

#include "runtime/parallel.hpp"

namespace turbofno::baseline {

void truncate_copy_2d(std::span<const c32> src, std::span<c32> dst, std::size_t rows,
                      std::size_t nx, std::size_t ny, std::size_t kx, std::size_t ky,
                      trace::StageCounters* sc) {
  runtime::parallel_for(0, rows, 16, [&](std::size_t lo, std::size_t hi) {
    // tfno-hot-begin: per-chunk copy body (heap allocation forbidden)
    for (std::size_t r = lo; r < hi; ++r) {
      const c32* s = src.data() + r * nx * ny;
      c32* d = dst.data() + r * kx * ky;
      for (std::size_t x = 0; x < kx; ++x) {
        std::memcpy(d + x * ky, s + x * ny, ky * sizeof(c32));
      }
    }
    // tfno-hot-end
  });
  if (sc != nullptr) {
    sc->bytes_read += rows * kx * ky * sizeof(c32);
    sc->bytes_written += rows * kx * ky * sizeof(c32);
    sc->kernel_launches += 1;
  }
}

void pad_copy_2d(std::span<const c32> src, std::span<c32> dst, std::size_t rows, std::size_t kx,
                 std::size_t ky, std::size_t nx, std::size_t ny, trace::StageCounters* sc) {
  runtime::parallel_for(0, rows, 16, [&](std::size_t lo, std::size_t hi) {
    // tfno-hot-begin: per-chunk copy body (heap allocation forbidden)
    for (std::size_t r = lo; r < hi; ++r) {
      const c32* s = src.data() + r * kx * ky;
      c32* d = dst.data() + r * nx * ny;
      for (std::size_t x = 0; x < kx; ++x) {
        std::memcpy(d + x * ny, s + x * ky, ky * sizeof(c32));
        std::memset(d + x * ny + ky, 0, (ny - ky) * sizeof(c32));
      }
      std::memset(d + kx * ny, 0, (nx - kx) * ny * sizeof(c32));
    }
    // tfno-hot-end
  });
  if (sc != nullptr) {
    sc->bytes_read += rows * kx * ky * sizeof(c32);
    sc->bytes_written += rows * nx * ny * sizeof(c32);
    sc->kernel_launches += 1;
  }
}

}  // namespace turbofno::baseline
