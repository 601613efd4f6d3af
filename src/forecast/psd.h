// Period detection via power spectral density (paper Section 5.2: "we
// initially use PSD analysis to determine the time series' periodicity").
#pragma once

#include <cstddef>
#include <vector>

#include "common/time_series.h"

namespace abase {
namespace forecast {

/// One detected periodic component.
struct PeriodComponent {
  double period_samples = 0;  ///< Period length in sample steps.
  double power = 0;           ///< Spectral power (relative).
};

/// Computes the periodogram of `series` (mean removed) and returns
/// candidate periods sorted by descending power. Periods shorter than 2
/// samples or longer than size/2 are excluded.
///
/// The DFT is still O(n^2) multiply-adds, but cos(w*t) and sin(w*t) come
/// from a per-length twiddle table instead of two libm calls per term.
/// The table is built with the direct DFT's own expressions
/// (w = 2*pi*k/n, then w*t) and the sum runs in the same order with the
/// same operations, so the output is bit-identical to the direct DFT.
/// A table takes about 8*n^2 bytes (4.1 MB at the 30-day window,
/// n = 720), so series are expected to stay near that size. Tables live
/// in a process-wide cache of the 4 most recently used lengths, guarded
/// by a mutex and shared as immutable `shared_ptr<const ...>`: concurrent
/// callers are safe, and an evicted table stays alive until its last
/// reader drops it.
std::vector<PeriodComponent> Periodogram(const TimeSeries& series);

/// Dominant period in samples, or 0 when no component carries at least
/// `min_power_ratio` of the strongest-component power relative to total
/// variance (aperiodic series).
double DetectDominantPeriod(const TimeSeries& series,
                            double min_power_ratio = 0.04);

/// True when the series has a meaningful periodic structure.
bool HasPeriodicity(const TimeSeries& series);

}  // namespace forecast
}  // namespace abase
