// The extra memory-copy kernels of the PyTorch-like baseline.
//
// cuFFT cannot filter frequencies (the paper's limitation #2), so stock FNO
// implementations launch separate copy kernels to extract the retained modes
// after the forward FFT and to re-insert them (zero-padded) before the
// inverse FFT.  These are those kernels, with faithful traffic accounting.
// They act on rows of [nx, ny] spectra; 1D spectra are nx = kx = 1.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/complex.hpp"
#include "trace/counters.hpp"

namespace turbofno::baseline {

/// src rows x [nx, ny] -> dst rows x [kx, ky], keeping the low corner block.
void truncate_copy_2d(std::span<const c32> src, std::span<c32> dst, std::size_t rows,
                      std::size_t nx, std::size_t ny, std::size_t kx, std::size_t ky,
                      trace::StageCounters* sc = nullptr);

/// src rows x [kx, ky] -> dst rows x [nx, ny], zero elsewhere.
void pad_copy_2d(std::span<const c32> src, std::span<c32> dst, std::size_t rows, std::size_t kx,
                 std::size_t ky, std::size_t nx, std::size_t ny,
                 trace::StageCounters* sc = nullptr);

}  // namespace turbofno::baseline
