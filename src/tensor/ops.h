// Elementwise and row-wise tensor kernels used by layers and the sampler.
#pragma once

#include <cstdint>

#include "tensor/kernel.h"
#include "tensor/matrix.h"

namespace naru {

/// out = relu(in); shapes must match (out may alias in).
void ReluForward(const Matrix& in, Matrix* out);

/// dx = dy * 1[x > 0]; `x` is the pre-activation input (dx may alias dy).
void ReluBackward(const Matrix& x, const Matrix& dy, Matrix* dx);

/// Softmax over each row of `logits` into `probs` (may alias).
/// Numerically stabilized by per-row max subtraction. Only the logical
/// columns are written; the zero padding of each row is never touched.
///
/// `kernel` picks the row kernel: kScalar is the reference (std::exp,
/// one double accumulator in index order). kSimd on an AVX2 host runs an
/// 8-lane kernel with a polynomial exp and a fixed lane-reduction order
/// (within 1e-5 relative of kScalar; subnormal results flush to 0);
/// any other SimdLevel runs the scalar code, bit for bit. Either way the
/// result of a row depends only on that row, so it is bit-identical
/// across batch splits and thread counts for a fixed kernel and host.
void SoftmaxRows(const Matrix& logits, Matrix* probs,
                 KernelKind kernel = KernelKind::kScalar);

/// log(sum(exp(row[begin:end]))) with max-subtraction, for one row.
/// `kernel` dispatches as in SoftmaxRows (kSimd on AVX2 agrees with
/// kScalar within 1e-5 absolute).
double LogSumExpSlice(const float* row, size_t begin, size_t end,
                      KernelKind kernel = KernelKind::kScalar);

/// c += a * scale (shapes must match).
void Axpy(const Matrix& a, float scale, Matrix* c);

/// Returns the global L2 norm sqrt(sum of squares) of the matrix.
double L2Norm(const Matrix& m);

}  // namespace naru
