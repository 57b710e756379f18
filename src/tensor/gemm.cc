#include "tensor/gemm.h"

#include <algorithm>
#include <functional>

#include "tensor/gemm_kernels.h"
#include "util/thread_pool.h"

namespace naru {

namespace {
// Minimum rows per task to avoid parallelization overhead on tiny batches.
constexpr size_t kMinRowsPerTask = 16;

// The reference ikj loop: the inner loop is a vectorizable axpy over B's
// row.
template <class ColOf>
void NNRowsScalar(const Matrix& a, const Matrix& b, Matrix* c, size_t lo,
                  size_t hi, size_t k, bool onehot, ColOf col) {
  const size_t n = b.cols();
  for (size_t i = lo; i < hi; ++i) {
    const float* arow = a.Row(i);
    float* crow = c->Row(i);
    if (onehot) {
      // Sparse fast path: one-hot input rows are almost all zeros, so
      // testing A once per k skips whole axpy rows. Exact: the skipped
      // terms contribute +0.0f. Not worth it for dense activations, where
      // the branch only impedes vectorization.
      for (size_t kk = 0; kk < k; ++kk) {
        const float av = arow[col(kk)];
        if (av == 0.0f) continue;
        const float* brow = b.Row(kk);
        for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    } else {
      for (size_t kk = 0; kk < k; ++kk) {
        const float av = arow[col(kk)];
        const float* brow = b.Row(kk);
        for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

}  // namespace

void GemmNN(const Matrix& a, const Matrix& b, Matrix* c, bool accumulate,
            KernelKind kernel, InputHint hint,
            const std::vector<size_t>* a_cols) {
  const size_t m = a.rows();
  const size_t n = b.cols();
  size_t k = a.cols();
  // A strictly ascending list whose last entry is size() - 1 is exactly
  // {0, .., size() - 1}: a prefix, read without the index.
  const size_t* cols = nullptr;
  if (a_cols != nullptr) {
    k = a_cols->size();
    NARU_DCHECK(std::adjacent_find(a_cols->begin(), a_cols->end(),
                                   std::greater_equal<size_t>()) ==
                a_cols->end());
    NARU_CHECK(k == 0 || a_cols->back() < a.cols());
    if (k > 0 && a_cols->back() + 1 != k) cols = a_cols->data();
  }
  NARU_CHECK(b.rows() == k);
  if (accumulate) {
    NARU_CHECK(c->rows() == m && c->cols() == n);
  } else {
    c->Resize(m, n);
    c->Zero();
  }
  if (k == 0) return;
  const bool onehot = hint == InputHint::kOneHot;
  if (kernel != KernelKind::kScalar) {
    // Same cols() means same stride (matrix.h), which the row kernels
    // require: they cover the padded width with no remainder handling.
    NARU_CHECK(c->stride() == b.stride());
    ParallelFor(
        0, m,
        [&](size_t lo, size_t hi) {
          gemm_detail::NNRowsSimd(a.data(), a.stride(), b.data(), b.stride(),
                                  c->data(), c->stride(), lo, hi, k, onehot,
                                  cols);
        },
        kMinRowsPerTask);
    return;
  }
  ParallelFor(
      0, m,
      [&](size_t lo, size_t hi) {
        if (cols == nullptr) {
          NNRowsScalar(a, b, c, lo, hi, k, onehot, gemm_detail::DirectCols{});
        } else {
          NNRowsScalar(a, b, c, lo, hi, k, onehot,
                       gemm_detail::IndexedCols{cols});
        }
      },
      kMinRowsPerTask);
}

void GemmNT(const Matrix& a, const Matrix& b, Matrix* c, bool accumulate,
            KernelKind kernel) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.rows();
  NARU_CHECK(b.cols() == k);
  if (accumulate) {
    NARU_CHECK(c->rows() == m && c->cols() == n);
  } else {
    c->Resize(m, n);
    c->Zero();
  }
  if (kernel != KernelKind::kScalar) {
    // Shared reduction dim means shared stride; the dot products run over
    // the padded width (zero padding contributes zero).
    NARU_CHECK(a.stride() == b.stride());
    ParallelFor(
        0, m,
        [&](size_t lo, size_t hi) {
          gemm_detail::NTRowsSimd(a.data(), a.stride(), b.data(), b.stride(),
                                  c->data(), c->stride(), lo, hi, a.stride(),
                                  n);
        },
        kMinRowsPerTask);
    return;
  }
  ParallelFor(
      0, m,
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          const float* arow = a.Row(i);
          float* crow = c->Row(i);
          for (size_t j = 0; j < n; ++j) {
            const float* brow = b.Row(j);
            float acc = 0.0f;
            for (size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
            crow[j] += acc;
          }
        }
      },
      kMinRowsPerTask);
}

void GemmTN(const Matrix& a, const Matrix& b, Matrix* c, bool accumulate) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  NARU_CHECK(b.rows() == m);
  if (accumulate) {
    NARU_CHECK(c->rows() == k && c->cols() == n);
  } else {
    c->Resize(k, n);
    c->Zero();
  }
  // Parallelize over output rows (columns of A) to keep writes disjoint.
  // The zero-skip stays: this is the training-side X^T * dY, where X is
  // often the sparse one-hot encoding.
  ParallelFor(
      0, k,
      [&](size_t lo, size_t hi) {
        for (size_t i = 0; i < m; ++i) {
          const float* arow = a.Row(i);
          const float* brow = b.Row(i);
          for (size_t kk = lo; kk < hi; ++kk) {
            const float av = arow[kk];
            if (av == 0.0f) continue;
            float* crow = c->Row(kk);
            for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
          }
        }
      },
      8);
}

void AddBiasRows(const Matrix& bias, Matrix* c) {
  NARU_CHECK(bias.rows() == 1 && bias.cols() == c->cols());
  const float* b = bias.Row(0);
  const size_t n = c->cols();
  for (size_t i = 0; i < c->rows(); ++i) {
    float* crow = c->Row(i);
    for (size_t j = 0; j < n; ++j) crow[j] += b[j];
  }
}

void AccumulateBiasGrad(const Matrix& dy, Matrix* bias_grad) {
  NARU_CHECK(bias_grad->rows() == 1 && bias_grad->cols() == dy.cols());
  float* g = bias_grad->Row(0);
  const size_t n = dy.cols();
  for (size_t i = 0; i < dy.rows(); ++i) {
    const float* row = dy.Row(i);
    for (size_t j = 0; j < n; ++j) g[j] += row[j];
  }
}

}  // namespace naru
