#include "tensor/aligned_buffer.hpp"
void tile_task(int n) {
  // tfno-hot-begin: C-tile body
  AlignedBuffer<float> Bpack(2 * n);  // BAD: per-chunk pack buffer on the heap
  // tfno-hot-end
}
