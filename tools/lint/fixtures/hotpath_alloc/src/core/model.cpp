#include <vector>
void layers(int n) {
  // tfno-hot-begin: model layer loop
  for (int l = 0; l < n; ++l) {
    std::vector<float> weights(16);  // BAD: per-call weight view on the heap
  }
  // tfno-hot-end
}
