#pragma once

/// \file bench_math.h
/// The benchmark's own arithmetic, kept apart from the timing code so the
/// unit tests in perfbench/tests can check it against hand-computed
/// fixtures: percentiles with failures, precision at K, per-column ratios
/// and deltas of the program's metric histograms.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile (q in [0, 1]) over `ok` successful latencies plus
/// `failed` requests that count as +inf: a failed, refused or non-kOk
/// request misses every latency limit. Returns +inf when the rank falls
/// among the failures and NaN when there are no samples at all.
double PercentileWithFailures(std::vector<double> ok, size_t failed, double q);

/// Median of `values` (mean of the middle two for even counts); NaN if empty.
double Median(std::vector<double> values);

/// What completed inside one equal slice of a timed window.
struct Slice {
  double columns = 0;              ///< columns of requests that completed in it
  std::vector<double> latency_us;  ///< latencies of those requests
  size_t failed = 0;               ///< failed requests, counted as +inf
};

/// Share of the slices a slice figure is read at, counted from the best:
/// the quiet quartile. The host of a shared VM steals whole seconds at a
/// time and slows a phase of a run 2-5x; a figure that a quarter of the
/// slices reach is set by the program, not by how much of the run such a
/// phase covered. A change to the program moves every slice, so it moves
/// this figure as well.
inline constexpr double kQuietShare = 0.25;

/// Columns per second reached by the quiet quartile of `slices`: the
/// nearest-rank kQuietShare-quantile counted from the fastest slice.
double QuietSliceRate(const std::vector<Slice>& slices, double slice_s);

/// Each slice's q-percentile latency (failures +inf), read at the quiet
/// quartile: the nearest-rank kQuietShare-quantile counted from the lowest.
double QuietSlicePercentile(const std::vector<Slice>& slices, double q);

/// One evaluated column for precision at K.
struct EvalColumn {
  bool has_top = false;      ///< the report has at least one cell finding
  double confidence = 0.0;   ///< confidence of the top cell finding
  uint32_t top_row = 0;      ///< CellFinding::row of the top cell finding
  /// First row holding the injected value, or -1 for a clean column.
  /// CellFinding::row names the first row of a value, so this is the row a
  /// correct top finding reports.
  int64_t injected_row = -1;
};

/// Precision at K: rank every column's top cell finding by confidence
/// (descending; ties broken by column position), take the first K where K
/// is the number of injected errors, and count a hit when the top finding
/// sits on the injected row. Fewer than K findings leave the remaining
/// slots as misses. Returns NaN when nothing was injected.
double PrecisionAtK(const std::vector<EvalColumn>& columns);

/// Unordered pairs of n items, self-pairs included: n(n+1)/2. The detector
/// scores every sampled distinct value against itself and every other.
inline uint64_t PairsWithSelf(uint64_t n) { return n * (n + 1) / 2; }

/// num / den, or 0 when den is 0.
inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// What a histogram recorded between two snapshots of it. Bucket counts,
/// count and sum are differences; min and max are those of `after`, which
/// only clamp quantiles the way HistogramSnapshot::ValueAtQuantile does.
autodetect::HistogramSnapshot HistogramDelta(
    const autodetect::HistogramSnapshot& before,
    const autodetect::HistogramSnapshot& after);

}  // namespace perfbench
