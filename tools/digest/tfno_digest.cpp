// tfno_digest — bitwise fingerprints of full-model forwards.
//
//   tfno_digest
//
// Runs an FNO forward for every ladder row (and Auto, with the row it
// resolved to) on both lanes (complex C2C and real RFFT), at 1 and 4
// runtime threads, over four shapes: the paper's Fig 19 2D point, a
// Fig 14-class 1D point, and one 2D and one 1D shape whose modes and
// widths are not multiples of any SIMD lane count.  Each shape runs with
// two layers (the activation between them), then with one (the benchmark's
// models: lift and projection in the one layer call, no hidden field) and
// three (two hidden fields).  Each line is
//
//   <shape>[/L<layers>] <lane> t<threads> <row> <FNV-1a 64 of the output bytes>
//
// with the /L suffix on the one- and three-layer lines only, so the
// two-layer lines read as they always have.
//
// Inputs and weights are seeded, so two builds that compute the same bits
// print the same lines: `diff` the output of a TURBOFNO_SIMD=avx2 build
// against an avx512 one to check that the backends are byte-identical.
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>

#include "core/fno.hpp"
#include "core/workload.hpp"
#include "fused/ladder.hpp"
#include "runtime/parallel.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/simd.hpp"

namespace {

using namespace turbofno;

/// FNV-1a, 64-bit, over raw bytes.
std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr fused::Variant kRows[] = {fused::Variant::PyTorch,       fused::Variant::FftOpt,
                                    fused::Variant::FusedFftGemm, fused::Variant::FusedGemmIfft,
                                    fused::Variant::FullyFused,   fused::Variant::Auto};
/// Every row on both lanes for one model shape of `layers` layers;
/// `spatial` is n (1D) or nx * ny (2D).
template <class Model, class Config>
void digest(std::string shape, Config cfg, std::size_t layers, std::size_t spatial,
            std::size_t batch, int threads) {
  cfg.layers = layers;
  if (layers != 2) shape += "/L" + std::to_string(layers);
  const std::size_t in = batch * cfg.in_channels * spatial;
  const std::size_t out = batch * cfg.out_channels * spatial;
  AlignedBuffer<c32> u(in);
  core::fill_random(u.span(), 0x5eedu + static_cast<unsigned>(spatial));
  for (const bool real : {false, true}) {
    for (const fused::Variant row : kRows) {
      cfg.backend = row;
      Model model(cfg);
      AlignedBuffer<c32> v(out);
      std::uint64_t digest;
      if (real) {
        const std::span<const float> ur(reinterpret_cast<const float*>(u.data()), in);
        const std::span<float> vr(reinterpret_cast<float*>(v.data()), out);
        model.forward_real(ur, vr, batch);
        digest = fnv1a(vr.data(), vr.size_bytes());
      } else {
        model.forward(u.span(), v.span(), batch);
        digest = fnv1a(v.data(), out * sizeof(c32));
      }
      std::string name(fused::variant_name(row));
      if (row == fused::Variant::Auto) {
        const auto& prob = model.spectral_layers().front().problem();
        name += "->" + std::string(fused::variant_name(fused::resolve_variant(row, prob, real)));
      }
      std::printf("%s %s t%d %s %016llx\n", shape.c_str(), real ? "real" : "c2c", threads,
                  name.c_str(), static_cast<unsigned long long>(digest));
    }
  }
}

}  // namespace

int main() {
  // Fields: in, hidden, out, n, modes (1D) / in, hidden, out, nx, ny,
  // modes_x, modes_y (2D).
  const core::Fno2dConfig fig19{1, 40, 1, 256, 128, 64, 64};
  const core::Fno1dConfig fig14{1, 128, 1, 128, 64};
  const core::Fno2dConfig odd2d{1, 24, 1, 64, 32, 20, 12};
  const core::Fno1dConfig odd1d{1, 37, 1, 64, 21};

  std::fprintf(stderr, "tfno_digest: simd backend %s\n", simd::active_backend());
  for (const std::size_t layers : {2u, 1u, 3u}) {
    for (const int threads : {1, 4}) {
      runtime::set_thread_count(threads);
      digest<core::Fno2d>("fig19_2d", fig19, layers, fig19.nx * fig19.ny, 2, threads);
      digest<core::Fno1d>("fig14_1d", fig14, layers, fig14.n, 16, threads);
      digest<core::Fno2d>("odd_2d", odd2d, layers, odd2d.nx * odd2d.ny, 3, threads);
      digest<core::Fno1d>("odd_1d", odd1d, layers, odd1d.n, 5, threads);
    }
  }
  return 0;
}
