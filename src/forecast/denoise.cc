#include "forecast/denoise.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace abase {
namespace forecast {

namespace {

/// Robust location and spread of the window around one point.
struct LocalStats {
  double median = 0;
  double mad = 0;  ///< Median absolute deviation scaled to sigma.
};

/// Median absolute deviation of a sorted, non-empty window: the m-th
/// smallest (0-based) of |sorted[j] - med|, with m = size/2 and
/// med = sorted[m]. The deviations form two ascending runs,
/// med - sorted[m-1], med - sorted[m-2], ... and sorted[m] - med,
/// sorted[m+1] - med, ...; merging their first m+1 values selects it.
double SortedMad(const std::vector<double>& sorted) {
  const size_t m = sorted.size() / 2;
  const double med = sorted[m];
  size_t below = m, above = m;  // Next unmerged index of each run.
  double dev = 0;
  for (size_t r = 0; r <= m; r++) {
    if (below > 0 && (above == sorted.size() ||
                      med - sorted[below - 1] <= sorted[above] - med)) {
      dev = med - sorted[--below];
    } else {
      dev = sorted[above++] - med;
    }
  }
  return dev;
}

/// Median and MAD of the window [lo, hi) = [i - window/2, lo + window),
/// clamped to the series, for every i. A sorted copy of the window
/// slides with i, so each step inserts and erases one value instead of
/// re-selecting the whole window. Any exact k-th order statistic has one
/// value, and |a - b| equals whichever of a - b, b - a is non-negative
/// exactly, so the results match per-point nth_element selection bit
/// for bit.
std::vector<LocalStats> SlidingLocalStats(const std::vector<double>& v,
                                          size_t window) {
  std::vector<LocalStats> stats(v.size());
  std::vector<double> sorted;
  sorted.reserve(std::min(window, v.size()));
  size_t in_lo = 0, in_hi = 0;  // The window `sorted` currently holds.
  for (size_t i = 0; i < v.size(); i++) {
    const size_t lo = i >= window / 2 ? i - window / 2 : 0;
    const size_t hi = std::min(v.size(), lo + window);
    for (; in_hi < hi; in_hi++) {
      sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), v[in_hi]),
                    v[in_hi]);
    }
    for (; in_lo < lo; in_lo++) {
      sorted.erase(std::lower_bound(sorted.begin(), sorted.end(), v[in_lo]));
    }
    if (sorted.empty()) continue;
    stats[i].median = sorted[sorted.size() / 2];
    stats[i].mad = SortedMad(sorted) * 1.4826;  // MAD -> sigma.
  }
  return stats;
}

/// Marks indices whose value exceeds local median + sigma * MAD.
std::vector<bool> SpikeMask(const std::vector<double>& v,
                            const std::vector<LocalStats>& stats,
                            const DenoiseOptions& options) {
  std::vector<bool> mask(v.size(), false);
  for (size_t i = 0; i < v.size(); i++) {
    const double med = stats[i].median;
    double mad = stats[i].mad;
    if (mad <= 0) mad = std::max(1e-9, 0.05 * std::fabs(med));
    if (v[i] > med + options.spike_sigma * mad) mask[i] = true;
  }
  return mask;
}

}  // namespace

TimeSeries RemoveSimultaneousSpikes(const TimeSeries& usage,
                                    const TimeSeries& quota,
                                    const DenoiseOptions& options) {
  TimeSeries out = usage;
  if (usage.size() != quota.size() || usage.empty()) return out;
  const auto usage_stats =
      SlidingLocalStats(usage.values(), options.local_window);
  auto usage_spikes = SpikeMask(usage.values(), usage_stats, options);
  auto quota_spikes =
      SpikeMask(quota.values(),
                SlidingLocalStats(quota.values(), options.local_window),
                options);
  for (size_t i = 0; i < usage.size(); i++) {
    if (usage_spikes[i] && quota_spikes[i]) {
      // Both metrics spiking together is (per the paper) practically
      // impossible — treat as a recording artifact and replace with the
      // local median.
      out[i] = usage_stats[i].median;
    }
  }
  return out;
}

TimeSeries RemoveSporadicPeaks(const TimeSeries& usage,
                               const DenoiseOptions& options) {
  TimeSeries out = usage;
  if (usage.empty()) return out;
  const auto& v = usage.values();
  const auto stats = SlidingLocalStats(v, options.local_window);
  auto spikes = SpikeMask(v, stats, options);
  for (size_t i = 0; i < v.size(); i++) {
    if (!spikes[i]) continue;
    // Recurring peaks (another spike of comparable height within the
    // recurrence window) are genuine workload behaviour; keep them.
    bool recurring = false;
    size_t lo = i >= options.recurrence_window ? i - options.recurrence_window
                                               : 0;
    size_t hi = std::min(v.size(), i + options.recurrence_window + 1);
    for (size_t j = lo; j < hi && !recurring; j++) {
      if (j == i || !spikes[j]) continue;
      // "Comparable height" and not immediately adjacent (a single
      // multi-sample burst still counts as one event).
      if (j + 3 < i || j > i + 3) {
        if (v[j] > 0.5 * v[i]) recurring = true;
      }
    }
    if (!recurring) {
      out[i] = stats[i].median +
               options.spike_sigma * std::max(stats[i].mad, 0.0);
    }
  }
  return out;
}

TimeSeries Denoise(const TimeSeries& usage, const TimeSeries& quota,
                   const DenoiseOptions& options) {
  return RemoveSporadicPeaks(
      RemoveSimultaneousSpikes(usage, quota, options), options);
}

}  // namespace forecast
}  // namespace abase
