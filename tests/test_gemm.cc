// Conformance suite for the kernel layer (gemm_simd.cc, kernel.cc):
//   - SIMD (native dispatch AND the forced portable fallback) vs the scalar
//     reference across odd shapes, accumulate on/off, and both transpose
//     variants, within a tight epsilon (FMA contraction means cross-kernel
//     equality is not bitwise).
//   - WITHIN a fixed kernel: bitwise determinism across row partitions
//     (the thread-count contract) — evaluating a row subset reproduces the
//     full-batch rows exactly, including across the MR=4/MR=1 seam.
//   - The one-hot InputHint is exact: hinted and dense runs are bitwise
//     identical per kernel.
//   - Indexed A columns: GemmNN over an ascending column list equals GemmNN
//     on the gathered columns bitwise per kernel, and equals the full GEMM
//     when the other B rows are zero.
//   - Kernel names: every KernelKindName parses back (case-insensitively)
//     and retired or unknown names are rejected.
//   - Matrix storage: 64-byte row alignment, padded stride, the
//     zero-padding invariant, and the Resize preservation contract.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/kernel.h"
#include "tensor/matrix.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace naru {
namespace {

// Forces a dispatch level for the enclosing scope (restores probing on
// destruction), so the portable fallback is exercised on AVX2 hosts too.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) {
    SetSimdLevelOverrideForTest(level);
  }
  ~ScopedSimdLevel() { ClearSimdLevelOverrideForTest(); }
};

Matrix RandomMatrix(size_t r, size_t c, Rng* rng) {
  Matrix m(r, c);
  for (size_t i = 0; i < r; ++i) {
    float* row = m.Row(i);
    for (size_t j = 0; j < c; ++j) {
      row[j] = static_cast<float>(rng->Gaussian());
    }
  }
  return m;
}

// One nonzero per 16-wide group of columns — the shape of a one-hot
// encoded input row.
Matrix OneHotishMatrix(size_t r, size_t c, Rng* rng) {
  Matrix m(r, c);
  for (size_t i = 0; i < r; ++i) {
    for (size_t g = 0; g < c; g += 16) {
      const size_t span = std::min<size_t>(16, c - g);
      const size_t hot = g + static_cast<size_t>(rng->UniformInt(span));
      m.At(i, hot) = 1.0f;
    }
  }
  return m;
}

// Double-accumulator references.
void NaiveNN(const Matrix& a, const Matrix& b, Matrix* c) {
  c->Resize(a.rows(), b.cols());
  c->Zero();
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = 0;
      for (size_t k = 0; k < a.cols(); ++k) acc += a.At(i, k) * b.At(k, j);
      c->At(i, j) = static_cast<float>(acc);
    }
  }
}

void NaiveNT(const Matrix& a, const Matrix& bt, Matrix* c) {
  c->Resize(a.rows(), bt.rows());
  c->Zero();
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < bt.rows(); ++j) {
      double acc = 0;
      for (size_t k = 0; k < a.cols(); ++k) acc += a.At(i, k) * bt.At(j, k);
      c->At(i, j) = static_cast<float>(acc);
    }
  }
}

void ExpectNear(const Matrix& want, const Matrix& got, double tol) {
  ASSERT_EQ(want.rows(), got.rows());
  ASSERT_EQ(want.cols(), got.cols());
  for (size_t i = 0; i < want.rows(); ++i) {
    for (size_t j = 0; j < want.cols(); ++j) {
      EXPECT_NEAR(want.At(i, j), got.At(i, j), tol)
          << "at (" << i << ", " << j << ")";
    }
  }
}

void ExpectBitIdentical(const Matrix& want, const Matrix& got) {
  ASSERT_EQ(want.rows(), got.rows());
  ASSERT_EQ(want.cols(), got.cols());
  for (size_t i = 0; i < want.rows(); ++i) {
    ASSERT_EQ(0, std::memcmp(want.Row(i), got.Row(i),
                             want.cols() * sizeof(float)))
        << "row " << i;
  }
}

struct Shape {
  size_t m, k, n;
};

// Odd shapes, sub-stride shapes, exact multiples, and MADE-sized cases.
const Shape kShapes[] = {
    {1, 1, 1},    {1, 17, 1},   {3, 5, 7},     {4, 16, 16},
    {5, 100, 1},  {8, 16, 24},  {13, 31, 33},  {2, 8, 256},
    {33, 64, 100}, {64, 128, 128},
};

void CheckNNConformance(double tol) {
  Rng rng(11);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, &rng);
    const Matrix b = RandomMatrix(s.k, s.n, &rng);
    Matrix ref;
    NaiveNN(a, b, &ref);
    for (const bool accumulate : {false, true}) {
      Matrix base = RandomMatrix(s.m, s.n, &rng);
      Matrix scalar_out = base;
      Matrix simd_out = base;
      if (!accumulate) {
        // Non-accumulate ignores prior contents entirely.
        scalar_out = Matrix();
        simd_out = Matrix();
      }
      GemmNN(a, b, &scalar_out, accumulate, KernelKind::kScalar);
      GemmNN(a, b, &simd_out, accumulate, KernelKind::kSimd);
      ExpectNear(scalar_out, simd_out, tol);
      if (!accumulate) ExpectNear(ref, simd_out, tol);
    }
  }
}

void CheckNTConformance(double tol) {
  Rng rng(13);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, &rng);
    const Matrix bt = RandomMatrix(s.n, s.k, &rng);
    Matrix ref;
    NaiveNT(a, bt, &ref);
    for (const bool accumulate : {false, true}) {
      Matrix base = RandomMatrix(s.m, s.n, &rng);
      Matrix scalar_out = base;
      Matrix simd_out = base;
      if (!accumulate) {
        scalar_out = Matrix();
        simd_out = Matrix();
      }
      GemmNT(a, bt, &scalar_out, accumulate, KernelKind::kScalar);
      GemmNT(a, bt, &simd_out, accumulate, KernelKind::kSimd);
      ExpectNear(scalar_out, simd_out, tol);
      if (!accumulate) ExpectNear(ref, simd_out, tol);
    }
  }
}

TEST(GemmConformance, SimdNNMatchesScalar) { CheckNNConformance(1e-3); }

TEST(GemmConformance, SimdNTMatchesScalar) { CheckNTConformance(1e-3); }

TEST(GemmConformance, PortableFallbackMatchesScalar) {
  ScopedSimdLevel force(SimdLevel::kNone);
  CheckNNConformance(1e-3);
  CheckNTConformance(1e-3);
}

#if defined(__x86_64__)
TEST(GemmConformance, DispatchProbeFindsAvx2OnX86WithAvx2) {
  // On the CI/dev hosts this suite targets, x86 implies AVX2; the probe
  // must not silently land on the fallback there.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    EXPECT_EQ(DetectedSimdLevel(), SimdLevel::kAvx2);
  } else {
    EXPECT_EQ(DetectedSimdLevel(), SimdLevel::kNone);
  }
}
#endif

// The thread-count determinism contract: C rows depend only on A's row and
// B, never on how rows are partitioned. Evaluating a leading subset of A's
// rows must reproduce the full run bitwise — this crosses the MR=4/MR=1
// register-blocking seam in the SIMD kernels (rows 4..6 of a 7-row run sit
// in an MR=4 block; in a 5-row run row 4 is an MR=1 remainder).
void CheckRowPartitionDeterminism(KernelKind kernel) {
  Rng rng(17);
  const size_t m = 23, k = 61, n = 37;
  const Matrix a = RandomMatrix(m, k, &rng);
  const Matrix b = RandomMatrix(k, n, &rng);
  Matrix full;
  GemmNN(a, b, &full, false, kernel);
  for (const size_t sub : {1ul, 4ul, 5ul, 7ul, 22ul}) {
    Matrix asub(sub, k);
    for (size_t i = 0; i < sub; ++i) {
      std::memcpy(asub.Row(i), a.Row(i), k * sizeof(float));
    }
    Matrix csub;
    GemmNN(asub, b, &csub, false, kernel);
    for (size_t i = 0; i < sub; ++i) {
      ASSERT_EQ(0,
                std::memcmp(full.Row(i), csub.Row(i), n * sizeof(float)))
          << "kernel " << KernelKindName(kernel) << " sub " << sub
          << " row " << i;
    }
  }
  // And inline (serial-region) execution equals pooled execution.
  Matrix serial;
  {
    ScopedSerialRegion sr;
    GemmNN(a, b, &serial, false, kernel);
  }
  ExpectBitIdentical(full, serial);
}

TEST(GemmDeterminism, ScalarRowPartitions) {
  CheckRowPartitionDeterminism(KernelKind::kScalar);
}

TEST(GemmDeterminism, SimdRowPartitions) {
  CheckRowPartitionDeterminism(KernelKind::kSimd);
}

TEST(GemmDeterminism, PortableRowPartitions) {
  ScopedSimdLevel force(SimdLevel::kNone);
  CheckRowPartitionDeterminism(KernelKind::kSimd);
}

TEST(GemmDeterminism, OneHotHintIsExact) {
  Rng rng(19);
  const Matrix a = OneHotishMatrix(21, 93, &rng);
  const Matrix b = RandomMatrix(93, 40, &rng);
  for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
    Matrix dense, hinted;
    GemmNN(a, b, &dense, false, kernel, InputHint::kDense);
    GemmNN(a, b, &hinted, false, kernel, InputHint::kOneHot);
    ExpectBitIdentical(dense, hinted);
  }
}

// A[:, cols] as its own matrix: the copy the indexed kernels avoid.
Matrix GatherColumns(const Matrix& a, const std::vector<size_t>& cols) {
  Matrix out(a.rows(), cols.size());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t kk = 0; kk < cols.size(); ++kk) {
      out.At(i, kk) = a.At(i, cols[kk]);
    }
  }
  return out;
}

// Indexed A columns are the gathered GEMM, bit for bit: every kernel body
// reads a[r][cols[kk]] on the same ascending chain. Row counts 1, 3, 5 and
// 13 cross the MR=4/MR=1 seam; the lists cover empty, identity (the prefix
// fast path), a shorter prefix, MADE's cyclic degree pattern and a sparse
// pick; both A shapes run under both hints, plain and accumulating.
void CheckIndexedMatchesGathered(KernelKind kernel, const std::string& label) {
  Rng rng(29);
  const size_t k = 40;
  std::vector<std::vector<size_t>> lists(5);
  for (size_t i = 0; i < k; ++i) lists[1].push_back(i);
  for (size_t i = 0; i < 13; ++i) lists[2].push_back(i);
  for (size_t i = 0; i < k; ++i) {
    if (i % 10 <= 3) lists[3].push_back(i);
  }
  lists[4] = {1, 7, 8, 30, 39};
  for (const size_t rows : {1ul, 3ul, 5ul, 13ul}) {
    const Matrix dense_a = RandomMatrix(rows, k, &rng);
    const Matrix onehot_a = OneHotishMatrix(rows, k, &rng);
    for (const size_t n : {1ul, 13ul, 16ul, 17ul, 63ul}) {
      for (size_t li = 0; li < lists.size(); ++li) {
        const std::vector<size_t>& cols = lists[li];
        const Matrix b = RandomMatrix(cols.size(), n, &rng);
        const Matrix c0 = RandomMatrix(rows, n, &rng);
        for (const Matrix* a : {&dense_a, &onehot_a}) {
          const Matrix gathered = GatherColumns(*a, cols);
          for (const InputHint hint : {InputHint::kDense, InputHint::kOneHot}) {
            SCOPED_TRACE(label + " rows " + std::to_string(rows) + " n " +
                         std::to_string(n) + " list " + std::to_string(li) +
                         (a == &onehot_a ? " onehot A" : " dense A") +
                         (hint == InputHint::kOneHot ? " onehot hint" : ""));
            Matrix want, got;
            GemmNN(gathered, b, &want, false, kernel, hint);
            GemmNN(*a, b, &got, false, kernel, hint, &cols);
            ExpectBitIdentical(want, got);
            want = c0;
            got = c0;
            GemmNN(gathered, b, &want, true, kernel, hint);
            GemmNN(*a, b, &got, true, kernel, hint, &cols);
            ExpectBitIdentical(want, got);
          }
        }
      }
    }
  }
}

TEST(GemmIndexed, ScalarMatchesGathered) {
  CheckIndexedMatchesGathered(KernelKind::kScalar, "scalar");
}

TEST(GemmIndexed, SimdMatchesGathered) {
  CheckIndexedMatchesGathered(KernelKind::kSimd, "simd");
}

TEST(GemmIndexed, PortableMatchesGathered) {
  ScopedSimdLevel force(SimdLevel::kNone);
  CheckIndexedMatchesGathered(KernelKind::kSimd, "portable");
}

// The MADE use: B rows outside the list are masked to zero, so the full
// GEMM only adds exact zeros on top of the indexed one.
TEST(GemmIndexed, MatchesFullGemmOverMaskedRows) {
  Rng rng(31);
  const size_t m = 13, k = 50, n = 17;
  const Matrix a = RandomMatrix(m, k, &rng);
  std::vector<size_t> cols;
  for (size_t i = 0; i < k; ++i) {
    if (i % 10 <= 6) cols.push_back(i);
  }
  const Matrix packed = RandomMatrix(cols.size(), n, &rng);
  Matrix masked(k, n);
  for (size_t kk = 0; kk < cols.size(); ++kk) {
    std::memcpy(masked.Row(cols[kk]), packed.Row(kk), n * sizeof(float));
  }
  for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
    Matrix full, indexed;
    GemmNN(a, masked, &full, false, kernel);
    GemmNN(a, packed, &indexed, false, kernel, InputHint::kDense, &cols);
    ExpectBitIdentical(full, indexed);
  }
}

TEST(KernelKindNames, EveryNameRoundTripsCaseInsensitively) {
  for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
    const std::string name = KernelKindName(kernel);
    std::string upper = name;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    for (const std::string& spelling : {name, upper}) {
      KernelKind parsed = kernel == KernelKind::kScalar ? KernelKind::kSimd
                                                        : KernelKind::kScalar;
      ASSERT_TRUE(ParseKernelKind(spelling, &parsed)) << spelling;
      EXPECT_EQ(parsed, kernel) << spelling;
    }
  }
  EXPECT_EQ(KernelKindNames(), "scalar | simd");
}

TEST(KernelKindNames, RejectsUnknownNamesAndLeavesOutputUntouched) {
  for (const char* bad : {"simd_int8", "int8", "", "simd ", "avx2"}) {
    KernelKind out = KernelKind::kSimd;
    EXPECT_FALSE(ParseKernelKind(bad, &out)) << "'" << bad << "'";
    EXPECT_EQ(out, KernelKind::kSimd) << "'" << bad << "'";
  }
}

TEST(MatrixStorage, AlignmentAndPaddedStride) {
  Matrix m(5, 17);
  EXPECT_EQ(m.stride(), 32u);  // 17 -> next multiple of 16
  EXPECT_EQ(m.stride() % kMatrixRowAlignFloats, 0u);
  for (size_t r = 0; r < m.rows(); ++r) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(r)) % kMatrixRowAlignBytes,
              0u);
  }
  EXPECT_EQ(m.size(), m.rows() * m.stride());
}

TEST(MatrixStorage, PaddingStaysZero) {
  Matrix m(4, 20);
  m.Fill(3.5f);
  for (size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.Row(r);
    for (size_t j = m.cols(); j < m.stride(); ++j) {
      EXPECT_EQ(row[j], 0.0f) << "padding at (" << r << ", " << j << ")";
    }
  }
  // GEMM outputs keep padding zero because B's padding is zero.
  Rng rng(37);
  const Matrix a = RandomMatrix(6, 9, &rng);
  const Matrix b = RandomMatrix(9, 20, &rng);
  for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
    Matrix c;
    GemmNN(a, b, &c, false, kernel);
    for (size_t r = 0; r < c.rows(); ++r) {
      const float* row = c.Row(r);
      for (size_t j = c.cols(); j < c.stride(); ++j) {
        EXPECT_EQ(row[j], 0.0f);
      }
    }
  }
  // Shrinking cols within one stride class must clear the old tail.
  Matrix s(2, 20);
  s.Fill(1.0f);
  s.Resize(2, 17);  // same 32-float stride
  for (size_t r = 0; r < s.rows(); ++r) {
    const float* row = s.Row(r);
    for (size_t j = s.cols(); j < s.stride(); ++j) EXPECT_EQ(row[j], 0.0f);
  }
}

TEST(MatrixStorage, ResizePreservesLeadingRowsWhenColsUnchanged) {
  Matrix m(3, 10);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 10; ++c) {
      m.At(r, c) = static_cast<float>(r * 100 + c);
    }
  }
  m.Resize(5, 10);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 10; ++c) {
      EXPECT_EQ(m.At(r, c), static_cast<float>(r * 100 + c));
    }
  }
  m.Resize(2, 10);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 10; ++c) {
      EXPECT_EQ(m.At(r, c), static_cast<float>(r * 100 + c));
    }
  }
}

}  // namespace
}  // namespace naru
