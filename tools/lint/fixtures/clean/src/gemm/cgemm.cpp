#include "runtime/scratch.hpp"
#include "tensor/aligned_buffer.hpp"
void tile_task(AlignedBuffer<float>& reused, int n) {
  AlignedBuffer<float> owned(n);  // fine: outside the hot region
  // tfno-hot-begin: C-tile body
  auto& arena = runtime::tls_scratch();
  const auto scope = arena.scope();
  const auto panel = arena.alloc<float>(2 * n);
  const AlignedBuffer<float>& view = reused;
  // tfno-hot-end
}
