// The staged ladder driver for the four TurboFNO rows (Table 2 A-D), 1D.
//
// Every row runs the same chain — truncated FFT, k-loop CGEMM over the
// hidden dim, zero-padded iFFT — and differs only in which of its two stage
// boundaries still round-trip through (simulated) global memory.  A Fusion
// names those boundaries; the driver runs
//
//   [fft-trunc] -> k-loop stage -> [ifft-pad]
//
// where a bracketed stage exists only while its boundary is unfused.  With
// neither boundary fused (FftOpt) the k-loop stage is the batched CGEMM.
// Otherwise one task per batch signal runs the paper's k-loop-aligned FFT
// variant (Section 2.3, Figure 6): instead of batching FFT pencils along the
// spatial axis, it iterates the hidden dim in k-tiles, exactly like the
// GEMM k-loop (Figure 6(c)-(e)), transforming a k-tile's channels at a
// time (column-blocked, 8 per SIMD pass) and depositing their truncated
// spectra straight into the operand tile the CGEMM consumes, the CPU
// analogue of writing the FFT output into the shared-memory tile.  That
// tile comes from the forward transform itself (fused forward) or from the
// stored spectra, and is multiplied on the CGEMM's own micro-kernel
// (KLoopGemm); the accumulator feeds the
// zero-padded inverse, 8 output rows per column block (fused inverse, the
// CGEMM epilogue of Figure 6(f)), or the stored mixed spectra.  The real
// lane's R2C/C2R plans run one signal at a time.
//
// Both lanes run the one chain: the complex lane keeps `modes` bins, the
// real lane keeps the RFFT half-spectrum (modes/2+1 bins) of real samples
// and inverts with the Hermitian-projecting C2R plan.  The half-spectrum is
// a capacity subset of the complex workspaces, so the lanes share buffers.
// This header also holds the stage vocabulary and closed-form accounting
// the 2D driver reuses for its Y-axis chain.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>

#include "baseline/problem.hpp"
#include "fft/plan.hpp"
#include "fft/real.hpp"
#include "fused/ladder.hpp"
#include "gemm/config.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/complex.hpp"
#include "trace/counters.hpp"

namespace turbofno::fused {

/// Which boundaries of the FFT -> CGEMM -> iFFT chain a ladder row fuses.
struct Fusion {
  bool fwd = false;  // the forward FFT writes the k-loop's A tile directly
  bool inv = false;  // the iFFT runs as the k-loop's epilogue
};

/// The boundaries of a concrete fused row (FftOpt .. FullyFused); throws
/// std::invalid_argument for PyTorch and Auto.
[[nodiscard]] Fusion fusion_of(Variant v);

/// Calls fn(std::bool_constant<f.fwd>, std::bool_constant<f.inv>) so the
/// drivers' hot loops compile once per row.
template <class Fn>
void with_fusion(Fusion f, Fn&& fn) {
  if (f.fwd && f.inv) {
    fn(std::true_type{}, std::true_type{});
  } else if (f.fwd) {
    fn(std::true_type{}, std::false_type{});
  } else if (f.inv) {
    fn(std::false_type{}, std::true_type{});
  } else {
    fn(std::false_type{}, std::false_type{});
  }
}

/// Name of the k-loop stage: "cgemm", "fused-fft-cgemm", "fused-cgemm-ifft"
/// or "fused-fft-cgemm-ifft".
[[nodiscard]] const char* kloop_stage(Fusion f) noexcept;

/// A row's counters name: "fftopt", "fused-fft-gemm", "fused-gemm-ifft" or
/// "fully-fused", followed by `dims` ("-1d" / "-2d").
[[nodiscard]] std::string counters_name(Fusion f, const char* dims);

/// One run through the chain: its closed-form inputs and measured stage
/// seconds.  Spectra counts are complex elements; the global tensor bytes
/// are zero when the chain's input/output lives in on-chip staging (the 2D
/// middle).
struct ChainRun {
  const char* fwd_stage;     // name of the unfused forward stage
  const char* inv_stage;     // name of the unfused inverse stage
  std::uint64_t src_bytes;   // global bytes the forward transform reads
  std::uint64_t dst_bytes;   // global bytes the inverse transform writes
  std::uint64_t in_spectra;  // kept forward spectra, B*K*kept
  std::uint64_t out_spectra; // kept mixed spectra, B*O*kept
  std::uint64_t weights;     // O*K
  std::uint64_t fwd_flops;
  std::uint64_t gemm_flops;
  std::uint64_t inv_flops;
  // Added to the stages' seconds.  The 2D driver accumulates its stage
  // timings per batch group as it runs and leaves these zero.
  double fwd_seconds = 0.0;
  double kloop_seconds = 0.0;
  double inv_seconds = 0.0;
};

/// Fills bytes, FLOPs and launches of the chain's stages (one launch each)
/// for a row with boundaries `f`, and adds the run's stage seconds.  Each
/// stage is looked up once.
void account_chain(trace::PipelineCounters& c, Fusion f, const ChainRun& r);

/// The k-loop's CGEMM for one signal, C[out_dim x m] += W * S over the
/// hidden dim, on the GEMM's split-complex micro-kernel
/// (gemm::accumulate_tile_split, the backend's register block) over Tiles
/// panels.  W is packed as A panels once per weight set (pin / use); each
/// k-tile's spectra (S rows, one per channel) become Ntb-wide B panels.
/// The k-tiles arrive one forward FFT at a time, so the accumulator stays
/// in memory between them: the GEMM's Mtb x Ntb split tiles, row tile by f
/// tile.  Each output keeps its k-ordered cmadd(acc, W, spectrum) chain, so
/// neither the tile depth nor the register block moves bits.
class KLoopGemm {
 public:
  /// The paper's 32 x 32 thread-block tile with a deep k-tile: Ktb = 32
  /// channels per k-step instead of Table 1's k_tb = 8, so each register
  /// block's accumulators stay in registers over 32 channels per load and
  /// store, and the forward transforms a k-tile's channels as four full
  /// column blocks.  Measured at fno1d_c2c's shape (one thread, avx512):
  /// the k-loop stage of every fused row 10-15% below Ktb = 8; Ktb = 64
  /// read the same as 32 within this host's noise.  gemm::FusedTiles keeps
  /// the paper's k_tb = 8 for the cost model, the Table 1 bench and the
  /// scalar backend's cgemm_batched.
  using Tiles = gemm::Tiles<32, 32, 32>;

  /// Sizes the packed panels of an out_dim x hidden W.
  KLoopGemm(std::size_t out_dim, std::size_t hidden);

  /// Packs W [out_dim, hidden] as A panels and pins them to w: use(w)
  /// reads them until another W is used or w is pinned again.
  void pin(const c32* w);
  /// Makes the panels hold W = w before the k-loop tasks read them: a no-op
  /// for the pinned w, otherwise a pack (which drops the pin).
  void use(const c32* w) {
    if (w != pinned_) {
      pack(w);
      pinned_ = nullptr;
    }
  }

  /// Floats of one signal's accumulator tiles, and of one k-tile's B
  /// panels, for m kept bins.
  [[nodiscard]] std::size_t acc_floats(std::size_t m) const noexcept;
  [[nodiscard]] static std::size_t panel_floats(std::size_t m) noexcept;

  /// Zeroes the accumulator rows the register blocks touch.
  void zero(float* acc, std::size_t m) const noexcept;

  /// Adds the k-tile at channel k0: the spectrum of channel k0 + kk is
  /// spectra[kk * ld + f], f < m, for kk below the tile's depth.  `panels`
  /// holds panel_floats(m) floats of B-panel scratch.
  void accumulate(float* acc, float* panels, const c32* spectra, std::size_t ld, std::size_t k0,
                  std::size_t m) const noexcept;

  /// Output o's m accumulated bins, interleaved into dst.
  void read_row(const float* acc, std::size_t o, std::size_t m, c32* dst) const noexcept;

 private:
  void pack(const c32* w);

  std::size_t out_dim_;
  std::size_t hidden_;
  std::size_t k_tiles_;
  AlignedBuffer<float> w_panels_;  // [row tile][k-tile] A panels
  const c32* pinned_ = nullptr;    // the W the panels hold between calls
};

class LadderPipeline1d final : public SpectralPipeline1d {
 public:
  LadderPipeline1d(Variant v, baseline::Spectral1dProblem prob);

  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch) override;
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch) override;
  void reserve(std::size_t batch) override;
  void pack_weights(std::span<const c32> w) override;

 private:
  // One run on either lane: T is the sample type, m the kept bins.
  template <class T, class FwdPlan, class InvPlan>
  void run_lane(const FwdPlan& fwd, const InvPlan& inv, std::size_t m, std::span<const T> u,
                std::span<const c32> w, std::span<T> v, std::size_t batch);
  // The chain's stages; records their seconds in `run`.
  template <bool FwdFused, bool InvFused, class T, class FwdPlan, class InvPlan>
  void run_chain(const FwdPlan& fwd, const InvPlan& inv, std::size_t m, std::span<const T> u,
                 std::span<const c32> w, std::span<T> v, std::size_t batch, ChainRun& run);

  Fusion fusion_;
  std::shared_ptr<const fft::FftPlan> fwd_;  // truncated FFT feeding the k-loop
  std::shared_ptr<const fft::FftPlan> inv_;  // zero-padded iFFT (the k-loop epilogue)
  std::shared_ptr<const fft::RfftPlan> rfwd_;   // lazy: real lane only
  std::shared_ptr<const fft::IrfftPlan> rinv_;  // lazy: real lane only
  AlignedBuffer<c32> freq_;   // [batch, hidden, modes], unfused forward only
  AlignedBuffer<c32> mixed_;  // [batch, out_dim, modes], unfused inverse only
  KLoopGemm kloop_;
};

}  // namespace turbofno::fused
