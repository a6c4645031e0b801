// Per-thread scratch arena for kernel workspaces.
//
// The FFT and fused-pipeline hot loops need small per-task buffers (FFT
// ping-pong storage, transpose slabs, split-complex accumulator tiles).
// Allocating them as AlignedBuffers inside every parallel_for chunk put a
// heap round trip on the steady-state serving path; this arena instead
// hands out 64-byte-aligned slices of thread-local, grow-only storage.
// After a warm-up pass each thread reuses its high-water-mark allocation
// forever, so repeated forwards do no heap allocation at all.
//
// Usage inside a kernel:
//
//   auto& arena = runtime::tls_scratch();
//   const auto scope = arena.scope();          // rewinds on destruction
//   std::span<c32> work = arena.alloc<c32>(2 * n);   // NOT zero-filled
//
// Scopes nest (a parallel caller may hold one while worker chunks open their
// own on other threads, or the master thread re-enters on its own arena);
// each scope rewinds the bump pointer to where it was created.
//
// Sizing guidance: the arena is grow-only per thread, so only bounded,
// per-task workspaces belong here — FFT ping-pong buffers (2n), transpose
// slabs (16 columns x n), per-row accumulator planes, the CGEMM's B panel
// (2 * Ntb * K floats per worker on a SIMD backend: 64 KiB at K = 128) and
// its A panels (per worker, at most the padded M x K operand when a shared
// A serves several batch items: 128 KiB at hidden 128, half that for a
// real A; otherwise one row tile's panel, Mtb x K), the per-field y-major staging tile of
// FftPlan2d's fused middle (ny * keep_x, ~512 KiB for a 512^2
// quarter-truncated field), and the fused 2D layer's slab rows: one cache
// line of every field row of an item's channels per X-stage task, for the
// stage's output, the layer input and the projection (about 1.3 MiB at
// the fig19 shape, 256 rows x 40 channels, the largest steady resident).  Whole-batch
// intermediates must NOT be arena-held: they would be retained per calling
// thread forever (see fft2d.cpp's unfused mid buffer and the pipelines'
// lazily sized member buffers).
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "tensor/aligned_buffer.hpp"

namespace turbofno::runtime {

class ScratchArena {
 public:
  class Scope {
   public:
    explicit Scope(ScratchArena& arena) noexcept
        : arena_(&arena), block_(arena.active_), used_(arena.used_) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { arena_->rewind(block_, used_); }

   private:
    ScratchArena* arena_;
    std::size_t block_;
    std::size_t used_;
  };

  /// Opens a rewind scope: every alloc() after this call is released when
  /// the returned object goes out of scope.
  [[nodiscard]] Scope scope() noexcept { return Scope(*this); }

  /// Returns `count` elements of uninitialized, 64-byte-aligned storage,
  /// valid until the enclosing scope ends.
  template <class T>
  [[nodiscard]] std::span<T> alloc(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>, "scratch holds POD operands only");
    return {static_cast<T*>(alloc_bytes(count * sizeof(T))), count};
  }

  /// Total backing storage reserved by this arena (diagnostics/tests: a
  /// steady-state workload must stop growing this after one warm-up pass).
  [[nodiscard]] std::size_t bytes_reserved() const noexcept;

 private:
  void* alloc_bytes(std::size_t bytes);
  void rewind(std::size_t block, std::size_t used) noexcept {
    active_ = block;
    used_ = used;
  }

  std::vector<AlignedBuffer<std::byte>> blocks_;
  std::size_t active_ = 0;  // index of the block the bump pointer lives in
  std::size_t used_ = 0;    // bytes consumed in blocks_[active_]
};

/// The calling thread's arena (thread_local; safe inside parallel_for
/// bodies and ThreadPool workers).
ScratchArena& tls_scratch() noexcept;

}  // namespace turbofno::runtime
