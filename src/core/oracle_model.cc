#include "core/oracle_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace naru {

namespace {

// Fills one probs row with the smoothed conditional from a count histogram.
void WriteSmoothedRow(const std::vector<int64_t>& counts, int64_t total,
                      double lambda, float* row, size_t domain) {
  const double uniform = lambda / static_cast<double>(domain);
  if (total <= 0) {
    // No supporting rows for this prefix: the data conditional is taken as
    // uniform, so the smoothed conditional is uniform too.
    const float u = 1.0f / static_cast<float>(domain);
    for (size_t v = 0; v < domain; ++v) row[v] = u;
    return;
  }
  const double scale = (1.0 - lambda) / static_cast<double>(total);
  for (size_t v = 0; v < domain; ++v) {
    row[v] =
        static_cast<float>(static_cast<double>(counts[v]) * scale + uniform);
  }
}

constexpr size_t kNoGroup = ~size_t{0};

uint64_t HashPrefix(const int32_t* codes, size_t len) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h = (h ^ static_cast<uint32_t>(codes[i])) * 0x100000001b3ULL;
  }
  return h ^ (h >> 32);
}

// The distinct sampled prefixes seen at one column. Group g stands for
// every path whose codes for columns < col equal Key(g): rows[g] lists the
// table rows matching that prefix and Dist(g) holds the smoothed
// P'(X_col | prefix) over them. Distinct prefixes match disjoint row sets,
// so one column's groups hold at most every table row once.
struct PrefixGroups {
  size_t col = kNoGroup;
  size_t domain = 0;
  std::vector<int32_t> keys;    // group g's prefix: [g * col, (g+1) * col)
  std::vector<uint64_t> hashes;
  std::vector<std::vector<uint32_t>> rows;
  std::vector<float> dists;     // group g's row: [g * domain, ...)
  std::vector<size_t> index;    // open addressing: group + 1, 0 = empty

  void Reset(size_t c, size_t d) {
    col = c;
    domain = d;
    keys.clear();
    hashes.clear();
    rows.clear();
    dists.clear();
    index.clear();
  }

  size_t size() const { return hashes.size(); }
  const int32_t* Key(size_t g) const { return keys.data() + g * col; }
  float* Dist(size_t g) { return dists.data() + g * domain; }

  size_t Find(const int32_t* prefix, uint64_t hash) const {
    if (index.empty()) return kNoGroup;
    const size_t mask = index.size() - 1;
    for (size_t s = hash & mask;; s = (s + 1) & mask) {
      if (index[s] == 0) return kNoGroup;
      const size_t g = index[s] - 1;
      if (hashes[g] == hash && std::equal(prefix, prefix + col, Key(g))) {
        return g;
      }
    }
  }

  // Appends a group with no rows yet.
  size_t Add(const int32_t* prefix, uint64_t hash) {
    const size_t g = size();
    keys.insert(keys.end(), prefix, prefix + col);
    hashes.push_back(hash);
    rows.emplace_back();
    if (index.size() < 2 * size()) {
      index.assign(std::max<size_t>(16, 2 * index.size()), 0);
      for (size_t k = 0; k < size(); ++k) Place(k);
    } else {
      Place(g);
    }
    return g;
  }

 private:
  void Place(size_t g) {
    const size_t mask = index.size() - 1;
    size_t s = hashes[g] & mask;
    while (index[s] != 0) s = (s + 1) & mask;
    index[s] = g + 1;
  }
};

// A pure sampling cursor: Dist's output for a path is the smoothed
// conditional of the rows matching that path's prefix, whatever came
// before. Each path's group is found by its prefix codes and checked
// against them; a new group's rows are its parent group's (the previous
// column's cache) filtered on column col-1, or a table scan when the
// parent is not cached. Only the previous and the current column's groups
// are kept.
class OracleSession : public SamplingSession {
 public:
  OracleSession(const Table* table, double lambda)
      : table_(table), lambda_(lambda) {}

  void Dist(const IntMatrix& samples, size_t col, Matrix* probs) override {
    NARU_CHECK(col < table_->num_columns() && col <= samples.cols());
    SelectColumn(col);
    const size_t batch = samples.rows();
    const size_t first_new = cur_.size();
    group_of_.resize(batch);
    for (size_t r = 0; r < batch; ++r) {
      const int32_t* prefix = samples.Row(r);
      const uint64_t hash = HashPrefix(prefix, col);
      size_t g = cur_.Find(prefix, hash);
      if (g == kNoGroup) g = cur_.Add(prefix, hash);
      group_of_[r] = g;
    }
    if (cur_.size() > first_new) FillGroups(first_new);

    const size_t domain = cur_.domain;
    probs->Resize(batch, domain);
    for (size_t r = 0; r < batch; ++r) {
      std::memcpy(probs->Row(r), cur_.Dist(group_of_[r]),
                  domain * sizeof(float));
    }
  }

 private:
  // Makes cur_ hold column `col`: a step forward turns the current groups
  // into parents, a step back to the cached previous column swaps the two,
  // and any other column starts empty. prev_ serves as the parent cache
  // only while it holds column col-1.
  void SelectColumn(size_t col) {
    if (cur_.col == col) return;
    if (prev_.col == col || (cur_.col != kNoGroup && cur_.col + 1 == col)) {
      std::swap(prev_, cur_);
    }
    if (cur_.col != col) {
      cur_.Reset(col, table_->column(col).DomainSize());
    }
  }

  // Fills the row lists and smoothed rows of groups [first, size).
  void FillGroups(size_t first) {
    const size_t col = cur_.col;
    if (col == 0) {
      // The empty prefix: one group matching every row.
      std::vector<uint32_t>& rows = cur_.rows[first];
      rows.resize(table_->num_rows());
      for (size_t r = 0; r < rows.size(); ++r) {
        rows[r] = static_cast<uint32_t>(r);
      }
    } else {
      FilterFromParents(first);
    }

    const Column& column = table_->column(col);
    const size_t domain = cur_.domain;
    cur_.dists.resize(cur_.size() * domain);
    counts_.resize(domain);
    for (size_t g = first; g < cur_.size(); ++g) {
      std::fill(counts_.begin(), counts_.end(), 0);
      for (uint32_t r : cur_.rows[g]) {
        ++counts_[static_cast<size_t>(column.code(r))];
      }
      WriteSmoothedRow(counts_, static_cast<int64_t>(cur_.rows[g].size()),
                       lambda_, cur_.Dist(g), domain);
    }
  }

  // Each new group at col >= 1 filters its parent's rows on column col-1;
  // siblings share one pass over their parent's rows.
  void FilterFromParents(size_t first) {
    const size_t col = cur_.col;
    const Column& split = table_->column(col - 1);
    const bool parents_cached = prev_.col == col - 1;
    children_.clear();
    for (size_t g = first; g < cur_.size(); ++g) {
      const int32_t* key = cur_.Key(g);
      const int32_t v = key[col - 1];
      if (v < 0 || static_cast<size_t>(v) >= split.DomainSize()) {
        continue;  // no table row carries this code
      }
      const size_t parent =
          parents_cached ? prev_.Find(key, HashPrefix(key, col - 1))
                         : kNoGroup;
      if (parent == kNoGroup) {
        ScanRows(key, col, &cur_.rows[g]);
      } else {
        children_.emplace_back(parent, g);
      }
    }
    std::sort(children_.begin(), children_.end());
    slot_.assign(split.DomainSize(), kNoGroup);
    for (size_t lo = 0; lo < children_.size();) {
      const size_t parent = children_[lo].first;
      size_t hi = lo;
      for (; hi < children_.size() && children_[hi].first == parent; ++hi) {
        const size_t g = children_[hi].second;
        slot_[static_cast<size_t>(cur_.Key(g)[col - 1])] = g;
      }
      for (uint32_t r : prev_.rows[parent]) {
        const size_t g = slot_[static_cast<size_t>(split.code(r))];
        if (g != kNoGroup) cur_.rows[g].push_back(r);
      }
      for (size_t k = lo; k < hi; ++k) {
        slot_[static_cast<size_t>(cur_.Key(children_[k].second)[col - 1])] =
            kNoGroup;
      }
      lo = hi;
    }
  }

  // Every table row whose codes for columns < col equal `prefix`.
  void ScanRows(const int32_t* prefix, size_t col,
                std::vector<uint32_t>* rows) const {
    for (size_t r = 0; r < table_->num_rows(); ++r) {
      bool match = true;
      for (size_t c = 0; c < col && match; ++c) {
        match = table_->column(c).code(r) == prefix[c];
      }
      if (match) rows->push_back(static_cast<uint32_t>(r));
    }
  }

  const Table* table_;
  double lambda_;
  PrefixGroups prev_;  // column cur_.col - 1 when cached
  PrefixGroups cur_;
  std::vector<size_t> group_of_;                     // per sample row
  std::vector<std::pair<size_t, size_t>> children_;  // (parent, new group)
  std::vector<size_t> slot_;  // code at col-1 -> new group of one parent
  std::vector<int64_t> counts_;
};

}  // namespace

OracleModel::OracleModel(const Table* table, double smoothing_lambda)
    : table_(table), lambda_(smoothing_lambda) {
  NARU_CHECK(table_ != nullptr);
  NARU_CHECK(lambda_ >= 0.0 && lambda_ <= 1.0);
}

void OracleModel::ConditionalDist(const IntMatrix& samples, size_t col,
                                  Matrix* probs) {
  const size_t batch = samples.rows();
  const size_t domain = DomainSize(col);
  probs->Resize(batch, domain);
  std::vector<int64_t> counts(domain);
  const Column& column = table_->column(col);
  for (size_t s = 0; s < batch; ++s) {
    std::fill(counts.begin(), counts.end(), 0);
    int64_t total = 0;
    for (size_t r = 0; r < table_->num_rows(); ++r) {
      bool match = true;
      for (size_t c = 0; c < col; ++c) {
        if (table_->column(c).code(r) != samples.At(s, c)) {
          match = false;
          break;
        }
      }
      if (match) {
        ++counts[static_cast<size_t>(column.code(r))];
        ++total;
      }
    }
    WriteSmoothedRow(counts, total, lambda_, probs->Row(s), domain);
  }
}

std::unique_ptr<SamplingSession> OracleModel::StartSession(
    size_t /*batch*/) {
  return std::make_unique<OracleSession>(table_, lambda_);
}

double OracleModel::CrossEntropyBits() const {
  // Walk columns left to right keeping groups of rows that share a prefix;
  // each row's -log2 P'(v | prefix) accumulates from its group's histogram.
  const size_t n = table_->num_rows();
  if (n == 0) return 0;
  std::vector<std::vector<uint32_t>> groups(1);
  groups[0].resize(n);
  for (size_t r = 0; r < n; ++r) groups[0][r] = static_cast<uint32_t>(r);

  double ce = 0;
  for (size_t col = 0; col < table_->num_columns(); ++col) {
    const Column& column = table_->column(col);
    const size_t domain = column.DomainSize();
    const double uniform = lambda_ / static_cast<double>(domain);
    std::vector<std::vector<uint32_t>> next;
    std::vector<int64_t> counts(domain);
    for (const auto& g : groups) {
      std::fill(counts.begin(), counts.end(), 0);
      for (uint32_t r : g) ++counts[static_cast<size_t>(column.code(r))];
      const double scale = (1.0 - lambda_) / static_cast<double>(g.size());
      // Accumulate each row's log-prob and split the group by value.
      std::unordered_map<int32_t, std::vector<uint32_t>> split;
      for (uint32_t r : g) {
        const int32_t v = column.code(r);
        const double p =
            static_cast<double>(counts[static_cast<size_t>(v)]) * scale +
            uniform;
        ce -= std::log2(std::max(p, 1e-300));
        split[v].push_back(r);
      }
      for (auto& [v, rows] : split) next.push_back(std::move(rows));
    }
    groups = std::move(next);
  }
  return ce / static_cast<double>(n);
}

double OracleModel::FindLambdaForGapBits(double target_gap_bits,
                                         double tol) const {
  NARU_CHECK(target_gap_bits >= 0);
  OracleModel probe(table_, 0.0);
  const double h_data = probe.CrossEntropyBits();  // λ=0 -> exact H(P)
  if (target_gap_bits <= tol) return 0.0;
  probe.set_smoothing_lambda(1.0);
  const double max_gap = probe.CrossEntropyBits() - h_data;
  if (target_gap_bits >= max_gap) return 1.0;
  double lo = 0.0;
  double hi = 1.0;
  for (int iter = 0; iter < 50; ++iter) {
    const double mid = 0.5 * (lo + hi);
    probe.set_smoothing_lambda(mid);
    const double gap = probe.CrossEntropyBits() - h_data;
    if (std::fabs(gap - target_gap_bits) <= tol) return mid;
    if (gap < target_gap_bits) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace naru
