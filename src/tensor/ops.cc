#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define NARU_OPS_X86 1
#endif

namespace naru {

void ReluForward(const Matrix& in, Matrix* out) {
  if (out != &in) out->Resize(in.rows(), in.cols());
  const float* src = in.data();
  float* dst = out->data();
  const size_t n = in.size();
  for (size_t i = 0; i < n; ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

void ReluBackward(const Matrix& x, const Matrix& dy, Matrix* dx) {
  NARU_CHECK(x.rows() == dy.rows() && x.cols() == dy.cols());
  if (dx != &dy) dx->Resize(dy.rows(), dy.cols());
  const float* xs = x.data();
  const float* dys = dy.data();
  float* dxs = dx->data();
  const size_t n = x.size();
  for (size_t i = 0; i < n; ++i) dxs[i] = xs[i] > 0.0f ? dys[i] : 0.0f;
}

namespace {

void SoftmaxRowScalar(const float* in, float* out, size_t n) {
  float mx = in[0];
  for (size_t i = 1; i < n; ++i) mx = std::max(mx, in[i]);
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    const float e = std::exp(in[i] - mx);
    out[i] = e;
    sum += e;
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (size_t i = 0; i < n; ++i) out[i] *= inv;
}

double LogSumExpScalar(const float* row, size_t n) {
  float mx = row[0];
  for (size_t i = 1; i < n; ++i) mx = std::max(mx, row[i]);
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += std::exp(static_cast<double>(row[i]) - mx);
  }
  return static_cast<double>(mx) + std::log(sum);
}

#if defined(NARU_OPS_X86)

// AVX2 row kernels. A row of n values runs as n/8 full 8-lane blocks plus
// one partial block that goes through an 8-float stack buffer, so the
// zero padding after column n is never read or written. Every exp is an
// independent lane operation; the sum accumulates each lane in double
// (lanes 0-3 and 4-7 in two registers, blocks in ascending order) and
// reduces the lanes in the fixed order of SumLanes.

constexpr float kInf = std::numeric_limits<float>::infinity();

// Loads the `rem` (< 8) values at `in` into lanes [0, rem), `fill` above.
__attribute__((target("avx2,fma"))) __m256 LoadPartial(const float* in,
                                                       size_t rem,
                                                       float fill) {
  alignas(32) float buf[8];
  for (size_t j = 0; j < 8; ++j) buf[j] = j < rem ? in[j] : fill;
  return _mm256_load_ps(buf);
}

__attribute__((target("avx2,fma"))) void StorePartial(float* out, size_t rem,
                                                      __m256 v) {
  alignas(32) float buf[8];
  _mm256_store_ps(buf, v);
  for (size_t j = 0; j < rem; ++j) out[j] = buf[j];
}

// exp(x) per lane, Cephes expf: x = k*ln2 + r with |r| <= ln2/2 (ln2 split
// in two constants so k*C1 is exact), a degree-6 polynomial for e^r, and
// 2^k built in the exponent field. About 2 ulp over the normal range.
// Lanes below ln(FLT_MIN) return +0 (including -inf); NaN stays NaN.
__attribute__((target("avx2,fma"))) __m256 ExpAvx2(__m256 x) {
  const __m256 lo = _mm256_set1_ps(-87.3365447505f);  // ln(FLT_MIN)
  const __m256 hi = _mm256_set1_ps(88.3762626647949f);
  const __m256 underflow = _mm256_cmp_ps(x, lo, _CMP_LT_OQ);
  // max/min return their second operand when either is NaN.
  const __m256 t = _mm256_min_ps(hi, _mm256_max_ps(lo, x));
  const __m256 k = _mm256_round_ps(
      _mm256_mul_ps(t, _mm256_set1_ps(1.44269504088896341f)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(k, _mm256_set1_ps(0.693359375f), t);
  r = _mm256_fnmadd_ps(k, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  const __m256 y = _mm256_add_ps(
      _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r), _mm256_set1_ps(1.0f));
  const __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvttps_epi32(k), _mm256_set1_epi32(127)), 23);
  return _mm256_andnot_ps(underflow,
                          _mm256_mul_ps(y, _mm256_castsi256_ps(bits)));
}

__attribute__((target("avx2,fma"))) float RowMaxAvx2(const float* in,
                                                     size_t n) {
  const size_t full = n & ~size_t{7};
  // Four chains hide the max latency; the max is exact in any order.
  __m256 m0 = _mm256_set1_ps(-kInf), m1 = m0, m2 = m0, m3 = m0;
  size_t i = 0;
  for (; i + 32 <= full; i += 32) {
    m0 = _mm256_max_ps(m0, _mm256_loadu_ps(in + i));
    m1 = _mm256_max_ps(m1, _mm256_loadu_ps(in + i + 8));
    m2 = _mm256_max_ps(m2, _mm256_loadu_ps(in + i + 16));
    m3 = _mm256_max_ps(m3, _mm256_loadu_ps(in + i + 24));
  }
  for (; i < full; i += 8) m0 = _mm256_max_ps(m0, _mm256_loadu_ps(in + i));
  if (full < n) m1 = _mm256_max_ps(m1, LoadPartial(in + full, n - full, -kInf));
  const __m256 m = _mm256_max_ps(_mm256_max_ps(m0, m1), _mm256_max_ps(m2, m3));
  __m128 h =
      _mm_max_ps(_mm256_castps256_ps128(m), _mm256_extractf128_ps(m, 1));
  h = _mm_max_ps(h, _mm_movehl_ps(h, h));
  h = _mm_max_ss(h, _mm_shuffle_ps(h, h, 0x55));
  return _mm_cvtss_f32(h);
}

__attribute__((target("avx2,fma"))) void AccumulateLanes(__m256 e,
                                                         __m256d* lo,
                                                         __m256d* hi) {
  *lo = _mm256_add_pd(*lo, _mm256_cvtps_pd(_mm256_castps256_ps128(e)));
  *hi = _mm256_add_pd(*hi, _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1)));
}

// (l0 + l4) + (l2 + l6), then + ((l1 + l5) + (l3 + l7)).
__attribute__((target("avx2,fma"))) double SumLanes(__m256d lo, __m256d hi) {
  const __m256d s = _mm256_add_pd(lo, hi);
  const __m128d t = _mm_add_pd(_mm256_castpd256_pd128(s),
                               _mm256_extractf128_pd(s, 1));
  return _mm_cvtsd_f64(_mm_add_sd(t, _mm_unpackhi_pd(t, t)));
}

// Writes exp(in[i] - mx) to out (when non-null) and returns their sum.
__attribute__((target("avx2,fma"))) double ExpShiftedSumAvx2(const float* in,
                                                             float* out,
                                                             size_t n,
                                                             float mx) {
  const size_t full = n & ~size_t{7};
  const __m256 vmx = _mm256_set1_ps(mx);
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  for (size_t i = 0; i < full; i += 8) {
    const __m256 e = ExpAvx2(_mm256_sub_ps(_mm256_loadu_ps(in + i), vmx));
    if (out != nullptr) _mm256_storeu_ps(out + i, e);
    AccumulateLanes(e, &lo, &hi);
  }
  if (full < n) {
    // Fill lanes hold -inf, whose exp is exactly +0.
    const __m256 e =
        ExpAvx2(_mm256_sub_ps(LoadPartial(in + full, n - full, -kInf), vmx));
    if (out != nullptr) StorePartial(out + full, n - full, e);
    AccumulateLanes(e, &lo, &hi);
  }
  return SumLanes(lo, hi);
}

__attribute__((target("avx2,fma"))) void SoftmaxRowAvx2(const float* in,
                                                        float* out,
                                                        size_t n) {
  const double sum = ExpShiftedSumAvx2(in, out, n, RowMaxAvx2(in, n));
  const float inv = static_cast<float>(1.0 / sum);
  const size_t full = n & ~size_t{7};
  const __m256 vinv = _mm256_set1_ps(inv);
  for (size_t i = 0; i < full; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(out + i), vinv));
  }
  for (size_t i = full; i < n; ++i) out[i] *= inv;
}

__attribute__((target("avx2,fma"))) double LogSumExpAvx2(const float* row,
                                                        size_t n) {
  const float mx = RowMaxAvx2(row, n);
  return static_cast<double>(mx) +
         std::log(ExpShiftedSumAvx2(row, nullptr, n, mx));
}

#endif  // NARU_OPS_X86

struct RowKernels {
  void (*softmax)(const float* in, float* out, size_t n);
  double (*log_sum_exp)(const float* row, size_t n);
};

RowKernels SelectRowKernels(KernelKind kernel) {
#if defined(NARU_OPS_X86)
  if (kernel == KernelKind::kSimd &&
      DetectedSimdLevel() == SimdLevel::kAvx2) {
    return {SoftmaxRowAvx2, LogSumExpAvx2};
  }
#endif
  (void)kernel;
  return {SoftmaxRowScalar, LogSumExpScalar};
}

}  // namespace

void SoftmaxRows(const Matrix& logits, Matrix* probs, KernelKind kernel) {
  if (probs != &logits) probs->Resize(logits.rows(), logits.cols());
  const auto softmax = SelectRowKernels(kernel).softmax;
  for (size_t r = 0; r < logits.rows(); ++r) {
    softmax(logits.Row(r), probs->Row(r), logits.cols());
  }
}

double LogSumExpSlice(const float* row, size_t begin, size_t end,
                      KernelKind kernel) {
  NARU_CHECK(begin < end);
  return SelectRowKernels(kernel).log_sum_exp(row + begin, end - begin);
}

void Axpy(const Matrix& a, float scale, Matrix* c) {
  NARU_CHECK(a.rows() == c->rows() && a.cols() == c->cols());
  const float* src = a.data();
  float* dst = c->data();
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) dst[i] += scale * src[i];
}

double L2Norm(const Matrix& m) { return std::sqrt(m.SumSquares()); }

}  // namespace naru
