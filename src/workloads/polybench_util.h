// Shared helpers for the PolyBench workload implementations.
#ifndef SRC_WORKLOADS_POLYBENCH_UTIL_H_
#define SRC_WORKLOADS_POLYBENCH_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/core/kernel.h"
#include "src/sim/rng.h"

namespace fabacus {

// Fills `v` with deterministic values in [-1, 1).
inline void FillRandom(std::vector<float>* v, std::size_t n, Rng& rng) {
  v->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    (*v)[i] = rng.NextFloat(-1.0f, 1.0f);
  }
}

// Column means of the rows x cols row-major matrix `data`. It sweeps whole
// rows, so the inner loop is unit-stride; each column still sums in
// ascending row order.
inline void ColumnMeans(const std::vector<float>& data, std::size_t rows, std::size_t cols,
                        std::vector<float>* mean) {
  std::fill(mean->begin(), mean->begin() + cols, 0.0f);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      (*mean)[j] += data[i * cols + j];
    }
  }
  for (std::size_t j = 0; j < cols; ++j) {
    (*mean)[j] /= static_cast<float>(rows);
  }
}

// Row j1 of data^T data for the rows x cols row-major matrix `data`, into
// `out` (cols floats). Each sample row i adds its contribution to the whole
// output row, so the inner loop is unit-stride; out[j2] still sums
// data[i][j1] * data[i][j2] over ascending i.
inline void GramRow(const std::vector<float>& data, std::size_t rows, std::size_t cols,
                    std::size_t j1, float* out) {
  std::fill(out, out + cols, 0.0f);
  for (std::size_t i = 0; i < rows; ++i) {
    const float x = data[i * cols + j1];
    const float* sample = data.data() + i * cols;
    for (std::size_t j2 = 0; j2 < cols; ++j2) {
      out[j2] += x * sample[j2];
    }
  }
}

// The transpose of the n x n row-major matrix `m`.
inline std::vector<float> Transposed(const std::vector<float>& m, std::size_t n) {
  std::vector<float> t(n * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      t[c * n + r] = m[r * n + c];
    }
  }
  return t;
}

inline void FillZero(std::vector<float>* v, std::size_t n) { v->assign(n, 0.0f); }

// Instruction-mix helper: load/store fraction from Table 2, the rest split
// between multiply and general-purpose FUs.
inline void SetMix(MicroblockSpec* m, double ldst, double mul_share) {
  m->frac_ldst = ldst;
  m->frac_mul = (1.0 - ldst) * mul_share;
  m->frac_alu = 1.0 - m->frac_ldst - m->frac_mul;
}

}  // namespace fabacus

#endif  // SRC_WORKLOADS_POLYBENCH_UTIL_H_
