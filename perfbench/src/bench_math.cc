#include "bench_math.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

double PercentileWithFailures(std::vector<double> ok, size_t failed, double q) {
  const size_t n = ok.size() + failed;
  if (n == 0) return std::nan("");
  q = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (rank > ok.size()) return kInf;
  std::nth_element(ok.begin(), ok.begin() + static_cast<long>(rank - 1), ok.end());
  return ok[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double QuietSliceRate(const std::vector<Slice>& slices, double slice_s) {
  // Negated, so the rank counts from the fastest slice.
  std::vector<double> negated;
  for (const Slice& s : slices) negated.push_back(-s.columns / slice_s);
  return -PercentileWithFailures(std::move(negated), 0, kQuietShare);
}

double QuietSlicePercentile(const std::vector<Slice>& slices, double q) {
  std::vector<double> values;
  for (const Slice& s : slices) {
    values.push_back(PercentileWithFailures(s.latency_us, s.failed, q));
  }
  return PercentileWithFailures(std::move(values), 0, kQuietShare);
}

double PrecisionAtK(const std::vector<EvalColumn>& columns) {
  size_t k = 0;
  std::vector<size_t> ranked;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].injected_row >= 0) ++k;
    if (columns[i].has_top) ranked.push_back(i);
  }
  if (k == 0) return std::nan("");
  std::stable_sort(ranked.begin(), ranked.end(), [&](size_t a, size_t b) {
    return columns[a].confidence > columns[b].confidence;
  });
  size_t hits = 0;
  for (size_t r = 0; r < std::min(k, ranked.size()); ++r) {
    const EvalColumn& c = columns[ranked[r]];
    if (c.injected_row >= 0 && static_cast<int64_t>(c.top_row) == c.injected_row) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

autodetect::HistogramSnapshot HistogramDelta(
    const autodetect::HistogramSnapshot& before,
    const autodetect::HistogramSnapshot& after) {
  std::map<uint64_t, uint64_t> earlier(before.buckets.begin(), before.buckets.end());
  autodetect::HistogramSnapshot delta;
  delta.count = after.count - before.count;
  delta.sum = after.sum - before.sum;
  delta.min = after.min;
  delta.max = after.max;
  for (const auto& [lower, count] : after.buckets) {
    auto it = earlier.find(lower);
    const uint64_t prior = it == earlier.end() ? 0 : it->second;
    if (count > prior) delta.buckets.emplace_back(lower, count - prior);
  }
  return delta;
}

}  // namespace perfbench
