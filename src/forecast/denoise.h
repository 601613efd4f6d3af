// Preprocessing / denoising for workload forecasting (paper Section 5.2):
//  * multi-metric collaboration: spikes appearing in Usage AND Quota at
//    the same instant are recording artifacts (quota does not spike with
//    traffic in reality) and are removed;
//  * sporadic-peak removal: isolated peaks that appear only once in the
//    recent window (ad-hoc events, migration artifacts) are clipped.
#pragma once

#include <cstddef>

#include "common/time_series.h"

namespace abase {
namespace forecast {

/// Denoising knobs.
struct DenoiseOptions {
  /// A point is a spike when it exceeds `spike_sigma` standard deviations
  /// above the local median.
  double spike_sigma = 4.0;
  /// Window (in samples) used for the local median/deviation. A sorted
  /// copy of the window slides along the series (one insert and one
  /// erase per point), so a pass costs O(n * window) moves with no
  /// per-point allocation, and its median and MAD equal per-point
  /// selection exactly.
  size_t local_window = 24;
  /// A spike is "sporadic" if no other spike of similar height occurs
  /// within `recurrence_window` samples on either side (10 days hourly =
  /// 240).
  size_t recurrence_window = 240;
};

/// Removes simultaneous Usage+Quota spikes (metric noise). Returns the
/// cleaned usage series; `quota` is only consulted, never modified.
TimeSeries RemoveSimultaneousSpikes(const TimeSeries& usage,
                                    const TimeSeries& quota,
                                    const DenoiseOptions& options = {});

/// Clips sporadic (non-recurring) peaks to the local median + sigma bound.
TimeSeries RemoveSporadicPeaks(const TimeSeries& usage,
                               const DenoiseOptions& options = {});

/// Full preprocessing pipeline: simultaneous-spike filter, then sporadic
/// peak clipping.
TimeSeries Denoise(const TimeSeries& usage, const TimeSeries& quota,
                   const DenoiseOptions& options = {});

}  // namespace forecast
}  // namespace abase
