// Tests for the forecasting stack (Section 5.2): PSD, change points,
// denoising, ProphetLite, historical average, and the ensemble.
//
// The periodogram (twiddle table) and the denoise window (sliding sorted
// copy) are checked bit for bit against the direct O(n^2) DFT and the
// per-point nth_element selection they replaced; those references live
// only here.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "forecast/changepoint.h"
#include "forecast/denoise.h"
#include "forecast/ensemble.h"
#include "forecast/historical_average.h"
#include "forecast/prophet_lite.h"
#include "forecast/psd.h"
#include "sim/workload.h"

namespace abase {
namespace forecast {
namespace {

TimeSeries DailySeries(size_t hours, double base = 100, double amp = 30,
                       double noise = 0, uint64_t seed = 1) {
  sim::SeriesSpec spec;
  spec.hours = hours;
  spec.base = base;
  spec.seasons.push_back({24, amp});
  spec.noise_sigma = noise;
  Rng rng(seed);
  return sim::GenerateSeries(spec, rng);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(const std::vector<PeriodComponent>& a,
              const std::vector<PeriodComponent>& b) {
  static_assert(sizeof(PeriodComponent) == 2 * sizeof(double),
                "PeriodComponent must be two packed doubles");
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(PeriodComponent)) == 0);
}

bool SameForecast(const ForecastResult& a, const ForecastResult& b) {
  return SameBits(a.prediction.values(), b.prediction.values()) &&
         SameBits({a.predicted_max, a.prophet_weight, a.historical_weight,
                   a.detected_period},
                  {b.predicted_max, b.prophet_weight, b.historical_weight,
                   b.detected_period}) &&
         a.burst_fallback == b.burst_fallback &&
         a.truncated_at == b.truncated_at;
}

/// Random series in the shapes the fast kernels must reproduce exactly:
/// 0 = noisy diurnal with sporadic spikes, 1 = four levels (ties and
/// repeated values everywhere), 2 = constant, 3 = all zero.
std::vector<double> RandomSeries(Rng& rng, size_t n, int shape) {
  std::vector<double> v(n, 0.0);
  for (size_t i = 0; i < n; i++) {
    switch (shape) {
      case 0:
        v[i] = 100 + 30 * std::sin(2 * M_PI * static_cast<double>(i) / 24) +
               rng.NextGaussian(0, 8);
        if (rng.NextDouble() < 0.03) v[i] += 500 + 900 * rng.NextDouble();
        break;
      case 1:
        v[i] = static_cast<double>(rng.NextUint64(4));
        break;
      case 2:
        v[i] = 42.5;
        break;
      default:
        break;
    }
  }
  return v;
}

// The replaced kernels, kept verbatim as oracles.
namespace reference {

std::vector<PeriodComponent> Periodogram(const TimeSeries& series) {
  std::vector<PeriodComponent> out;
  const size_t n = series.size();
  if (n < 8) return out;
  const double mean = series.Mean();
  for (size_t k = 2; k <= n / 2; k++) {
    double re = 0, im = 0;
    const double w = 2.0 * M_PI * static_cast<double>(k) /
                     static_cast<double>(n);
    for (size_t t = 0; t < n; t++) {
      double v = series[t] - mean;
      re += v * std::cos(w * static_cast<double>(t));
      im -= v * std::sin(w * static_cast<double>(t));
    }
    double power = (re * re + im * im) / static_cast<double>(n);
    out.push_back(PeriodComponent{
        static_cast<double>(n) / static_cast<double>(k), power});
  }
  std::sort(out.begin(), out.end(),
            [](const PeriodComponent& a, const PeriodComponent& b) {
              return a.power > b.power;
            });
  return out;
}

double LocalMedian(const std::vector<double>& v, size_t i, size_t window) {
  size_t lo = i >= window / 2 ? i - window / 2 : 0;
  size_t hi = std::min(v.size(), lo + window);
  if (hi - lo == 0) return 0;
  std::vector<double> w(v.begin() + static_cast<ptrdiff_t>(lo),
                        v.begin() + static_cast<ptrdiff_t>(hi));
  std::nth_element(w.begin(), w.begin() + static_cast<ptrdiff_t>(w.size() / 2),
                   w.end());
  return w[w.size() / 2];
}

double LocalMad(const std::vector<double>& v, size_t i, size_t window,
                double median) {
  size_t lo = i >= window / 2 ? i - window / 2 : 0;
  size_t hi = std::min(v.size(), lo + window);
  std::vector<double> dev;
  for (size_t j = lo; j < hi; j++) dev.push_back(std::fabs(v[j] - median));
  if (dev.empty()) return 0;
  std::nth_element(dev.begin(),
                   dev.begin() + static_cast<ptrdiff_t>(dev.size() / 2),
                   dev.end());
  return dev[dev.size() / 2] * 1.4826;
}

std::vector<bool> SpikeMask(const std::vector<double>& v,
                            const DenoiseOptions& options) {
  std::vector<bool> mask(v.size(), false);
  for (size_t i = 0; i < v.size(); i++) {
    double med = LocalMedian(v, i, options.local_window);
    double mad = LocalMad(v, i, options.local_window, med);
    if (mad <= 0) mad = std::max(1e-9, 0.05 * std::fabs(med));
    if (v[i] > med + options.spike_sigma * mad) mask[i] = true;
  }
  return mask;
}

TimeSeries RemoveSimultaneousSpikes(const TimeSeries& usage,
                                    const TimeSeries& quota,
                                    const DenoiseOptions& options) {
  TimeSeries out = usage;
  if (usage.size() != quota.size() || usage.empty()) return out;
  auto usage_spikes = SpikeMask(usage.values(), options);
  auto quota_spikes = SpikeMask(quota.values(), options);
  for (size_t i = 0; i < usage.size(); i++) {
    if (usage_spikes[i] && quota_spikes[i]) {
      out[i] = LocalMedian(usage.values(), i, options.local_window);
    }
  }
  return out;
}

TimeSeries RemoveSporadicPeaks(const TimeSeries& usage,
                               const DenoiseOptions& options) {
  TimeSeries out = usage;
  if (usage.empty()) return out;
  const auto& v = usage.values();
  auto spikes = SpikeMask(v, options);
  for (size_t i = 0; i < v.size(); i++) {
    if (!spikes[i]) continue;
    bool recurring = false;
    size_t lo = i >= options.recurrence_window ? i - options.recurrence_window
                                               : 0;
    size_t hi = std::min(v.size(), i + options.recurrence_window + 1);
    for (size_t j = lo; j < hi && !recurring; j++) {
      if (j == i || !spikes[j]) continue;
      if (j + 3 < i || j > i + 3) {
        if (v[j] > 0.5 * v[i]) recurring = true;
      }
    }
    if (!recurring) {
      double med = LocalMedian(v, i, options.local_window);
      double mad = LocalMad(v, i, options.local_window, med);
      out[i] = med + options.spike_sigma * std::max(mad, 0.0);
    }
  }
  return out;
}

TimeSeries Denoise(const TimeSeries& usage, const TimeSeries& quota,
                   const DenoiseOptions& options) {
  return reference::RemoveSporadicPeaks(
      reference::RemoveSimultaneousSpikes(usage, quota, options), options);
}

}  // namespace reference

/// Lengths that hit the edges: below the periodogram's minimum of 8,
/// odd, shorter than the default denoise window, and the 30-day window.
const std::vector<size_t> kEdgeLengths = {0,  1,  2,  3,  5,   7,   8,
                                          9,  11, 13, 23, 24,  25,  47,
                                          100, 167, 333, 719, 720};

// -------------------------------------------------------------------- PSD --

TEST(PsdTest, DetectsDailyPeriod) {
  TimeSeries ts = DailySeries(14 * 24);
  double period = DetectDominantPeriod(ts);
  EXPECT_NEAR(period, 24.0, 1.5);
}

class PsdPeriodTest : public ::testing::TestWithParam<double> {};

TEST_P(PsdPeriodTest, DetectsArbitraryPeriods) {
  const double period_hours = GetParam();
  sim::SeriesSpec spec;
  spec.hours = 30 * 24;
  spec.base = 100;
  spec.seasons.push_back({period_hours, 40});
  Rng rng(2);
  TimeSeries ts = sim::GenerateSeries(spec, rng);
  double detected = DetectDominantPeriod(ts);
  // DFT frequency resolution limits precision; allow ~10%.
  EXPECT_NEAR(detected, period_hours, period_hours * 0.1);
}

// Includes the paper's odd 3.5-day (84h) TTL-induced period.
INSTANTIATE_TEST_SUITE_P(Periods, PsdPeriodTest,
                         ::testing::Values(12.0, 24.0, 84.0, 168.0));

TEST(PsdTest, AperiodicSeriesDetectsNothing) {
  Rng rng(3);
  std::vector<double> v;
  for (int i = 0; i < 300; i++) v.push_back(rng.NextGaussian(100, 5));
  EXPECT_DOUBLE_EQ(DetectDominantPeriod(TimeSeries(v)), 0.0);
  EXPECT_FALSE(HasPeriodicity(TimeSeries(v)));
}

TEST(PsdTest, ShortSeriesReturnsEmpty) {
  EXPECT_TRUE(Periodogram(TimeSeries({1, 2, 3})).empty());
}

TEST(PsdTest, TwiddleTableMatchesDirectDftBitForBit) {
  Rng rng(404);
  for (size_t n : kEdgeLengths) {
    for (int shape = 0; shape < 4; shape++) {
      TimeSeries ts(RandomSeries(rng, n, shape));
      EXPECT_TRUE(SameBits(Periodogram(ts), reference::Periodogram(ts)))
          << "n=" << n << " shape=" << shape;
    }
  }
  for (int i = 0; i < 120; i++) {
    const size_t n = 8 + rng.NextUint64(800);
    TimeSeries ts(RandomSeries(rng, n, static_cast<int>(rng.NextUint64(2))));
    EXPECT_TRUE(SameBits(Periodogram(ts), reference::Periodogram(ts)))
        << "n=" << n;
  }
}

// ------------------------------------------------------------ ChangePoint --

TEST(ChangePointTest, DetectsMeanShift) {
  std::vector<double> v(200, 100.0);
  for (size_t i = 100; i < 200; i++) v[i] = 300.0;
  auto points = DetectChangePoints(TimeSeries(v));
  ASSERT_FALSE(points.empty());
  EXPECT_NEAR(static_cast<double>(points[0]), 100.0, 3.0);
}

TEST(ChangePointTest, StableSeriesHasNone) {
  Rng rng(4);
  std::vector<double> v;
  for (int i = 0; i < 200; i++) v.push_back(rng.NextGaussian(100, 2));
  EXPECT_TRUE(DetectChangePoints(TimeSeries(v)).empty());
  EXPECT_EQ(LastChangePoint(TimeSeries(v)), 0u);
}

TEST(ChangePointTest, MultipleShiftsFound) {
  std::vector<double> v(300);
  for (size_t i = 0; i < 100; i++) v[i] = 50;
  for (size_t i = 100; i < 200; i++) v[i] = 150;
  for (size_t i = 200; i < 300; i++) v[i] = 400;
  auto points = DetectChangePoints(TimeSeries(v));
  EXPECT_GE(points.size(), 2u);
  EXPECT_EQ(LastChangePoint(TimeSeries(v)), points.back());
}

// ---------------------------------------------------------------- Denoise --

TEST(DenoiseTest, SimultaneousSpikesRemoved) {
  std::vector<double> usage(200, 100.0), quota(200, 1000.0);
  usage[50] = 900.0;  // Usage + quota spike together: recording artifact.
  quota[50] = 9000.0;
  TimeSeries cleaned = RemoveSimultaneousSpikes(TimeSeries(usage),
                                                TimeSeries(quota));
  EXPECT_LT(cleaned[50], 200.0);
}

TEST(DenoiseTest, UsageOnlySpikeKept) {
  std::vector<double> usage(200, 100.0), quota(200, 1000.0);
  usage[50] = 900.0;  // Genuine traffic spike: quota stays flat.
  TimeSeries cleaned = RemoveSimultaneousSpikes(TimeSeries(usage),
                                                TimeSeries(quota));
  EXPECT_DOUBLE_EQ(cleaned[50], 900.0);
}

TEST(DenoiseTest, SporadicPeakClipped) {
  std::vector<double> usage(500, 100.0);
  usage[250] = 2000.0;  // One isolated ad-hoc event.
  TimeSeries cleaned = RemoveSporadicPeaks(TimeSeries(usage));
  EXPECT_LT(cleaned[250], 500.0);
}

TEST(DenoiseTest, RecurringPeaksPreserved) {
  std::vector<double> usage(500, 100.0);
  // Daily peak at hour 10 of each day — recurring, must survive.
  for (size_t day = 0; day < 20; day++) {
    size_t at = day * 24 + 10;
    if (at < usage.size()) usage[at] = 1000.0;
  }
  TimeSeries cleaned = RemoveSporadicPeaks(TimeSeries(usage));
  EXPECT_DOUBLE_EQ(cleaned[10 + 24 * 5], 1000.0);
}

TEST(DenoiseTest, SlidingWindowMatchesPerPointSelectionBitForBit) {
  // Windows of 0 and 1, odd and even, and wider than every series, so
  // both clamp edges (lo at 0, hi at n) are crossed at every length. A
  // half-sigma threshold with no recurrence check clips about half of
  // all points to median + sigma * MAD, so every point's window
  // statistics reach the output.
  std::vector<DenoiseOptions> variants;
  for (size_t window : {0, 1, 2, 7, 24, 25, 1000}) {
    for (double sigma : {4.0, 0.5}) {
      DenoiseOptions options;
      options.local_window = window;
      options.spike_sigma = sigma;
      options.recurrence_window = sigma < 1 ? 0 : 5 + window;
      variants.push_back(options);
    }
  }
  Rng rng(505);
  size_t changed = 0;
  for (const DenoiseOptions& options : variants) {
    for (size_t n : kEdgeLengths) {
      for (int shape = 0; shape < 4; shape++) {
        std::vector<double> u = RandomSeries(rng, n, shape);
        std::vector<double> q = RandomSeries(rng, n, shape);
        for (size_t i = 0; i < n; i++) {
          // Co-spikes: most usage spikes are recorded in quota too.
          if (shape == 0 && u[i] > 400 && rng.NextDouble() < 0.7) q[i] += 9e3;
        }
        const TimeSeries usage(u), quota(q);
        const TimeSeries want = reference::Denoise(usage, quota, options);
        const std::string where =
            "window=" + std::to_string(options.local_window) +
            " sigma=" + std::to_string(options.spike_sigma) +
            " n=" + std::to_string(n) + " shape=" + std::to_string(shape);
        EXPECT_TRUE(
            SameBits(Denoise(usage, quota, options).values(), want.values()))
            << where;
        EXPECT_TRUE(SameBits(
            RemoveSporadicPeaks(usage, options).values(),
            reference::RemoveSporadicPeaks(usage, options).values()))
            << where;
        if (!SameBits(want.values(), u)) changed++;
      }
    }
  }
  // The references did replace points, so the match is not vacuous.
  EXPECT_GT(changed, 200u);
}

TEST(DenoiseTest, RandomLengthsMatchPerPointSelectionBitForBit) {
  Rng rng(606);
  const DenoiseOptions options;
  for (int i = 0; i < 200; i++) {
    const size_t n = rng.NextUint64(800);
    const int shape = static_cast<int>(rng.NextUint64(2));
    const TimeSeries usage(RandomSeries(rng, n, shape));
    const TimeSeries quota(RandomSeries(rng, n, shape));
    EXPECT_TRUE(SameBits(Denoise(usage, quota, options).values(),
                         reference::Denoise(usage, quota, options).values()))
        << "n=" << n << " shape=" << shape;
  }
}

// ------------------------------------------------------------ ProphetLite --

TEST(ProphetLiteTest, FitsTrendPlusSeason) {
  sim::SeriesSpec spec;
  spec.hours = 21 * 24;
  spec.base = 500;
  spec.trend_per_day = 10;
  spec.seasons.push_back({24, 100});
  spec.noise_sigma = 5;
  Rng rng(5);
  TimeSeries history = sim::GenerateSeries(spec, rng);

  auto fit = ProphetLite::Fit(history);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().period_samples(), 24.0, 2.0);

  TimeSeries pred = fit.value().Forecast(48);
  // The forecast must continue the trend: mean of next 2 days close to
  // base + trend*22 days.
  double expected = 500 + 10 * 21.5;
  EXPECT_NEAR(pred.Mean(), expected, expected * 0.1);
  // And preserve the diurnal swing.
  EXPECT_GT(pred.Max() - pred.Min(), 100);
}

TEST(ProphetLiteTest, ShortHistoryRejected) {
  EXPECT_FALSE(ProphetLite::Fit(TimeSeries({1, 2, 3})).ok());
}

TEST(ProphetLiteTest, InSampleFitIsTight) {
  TimeSeries history = DailySeries(14 * 24, 200, 50, 2);
  auto fit = ProphetLite::Fit(history);
  ASSERT_TRUE(fit.ok());
  TimeSeries fitted = fit.value().FittedValues();
  double mae = 0;
  for (size_t i = 0; i < history.size(); i++) {
    mae += std::fabs(fitted[i] - history[i]);
  }
  mae /= static_cast<double>(history.size());
  EXPECT_LT(mae, 15.0);
}

TEST(ProphetLiteTest, AdaptsToTrendChangeViaChangepoints) {
  // Flat then rising: the piecewise trend must bend upward.
  std::vector<double> v;
  for (int i = 0; i < 300; i++) v.push_back(100);
  for (int i = 0; i < 200; i++) v.push_back(100 + i * 2.0);
  auto fit = ProphetLite::Fit(TimeSeries(v));
  ASSERT_TRUE(fit.ok());
  TimeSeries pred = fit.value().Forecast(50);
  EXPECT_GT(pred.Mean(), 400.0);  // Continues the late trend, not the flat.
}

// ------------------------------------------------------ HistoricalAverage --

TEST(HistoricalAverageTest, ReproducesSeasonalShape) {
  TimeSeries history = DailySeries(14 * 24, 100, 40, 0);
  HistoricalAverage model(history, 24);
  TimeSeries pred = model.Forecast(24);
  // The prediction's daily profile matches the history's final day.
  TimeSeries last_day = history.Tail(24);
  for (size_t h = 0; h < 24; h++) {
    EXPECT_NEAR(pred[h], last_day[h], 5.0) << "hour " << h;
  }
}

TEST(HistoricalAverageTest, AperiodicFallsBackToMean) {
  TimeSeries history(std::vector<double>(100, 42.0));
  HistoricalAverage model(history, 0);
  TimeSeries pred = model.Forecast(10);
  for (size_t i = 0; i < pred.size(); i++) EXPECT_NEAR(pred[i], 42.0, 1e-9);
}

// ----------------------------------------------------------------- Ensemble --

TEST(EnsembleTest, ForecastsPeriodicSeries) {
  TimeSeries usage = DailySeries(30 * 24, 1000, 300, 20, 7);
  auto fc = EnsembleForecast(usage, TimeSeries(), 7 * 24);
  ASSERT_TRUE(fc.ok());
  const ForecastResult& r = fc.value();
  EXPECT_NEAR(r.detected_period, 24.0, 2.0);
  // Max of the next week close to historical max.
  EXPECT_NEAR(r.predicted_max, usage.Max(), usage.Max() * 0.15);
  EXPECT_NEAR(r.prophet_weight + r.historical_weight, 1.0, 1e-9);
}

TEST(EnsembleTest, ShortHistoryRejected) {
  EXPECT_FALSE(EnsembleForecast(TimeSeries({1, 2}), TimeSeries(), 10).ok());
}

TEST(EnsembleTest, BurstFallbackTriggersOnNonPeriodicPeaks) {
  // Issue 3: daily peaks at varying hours with high amplitude relative to
  // the base — models underpredict, so the recent-history fallback kicks
  // in and keeps predicted_max near the observed peaks.
  sim::SeriesSpec spec;
  spec.hours = 30 * 24;
  spec.base = 100;
  spec.noise_sigma = 5;
  Rng rng(8);
  for (size_t day = 0; day < 30; day++) {
    spec.bursts.push_back(
        {day * 24 + 6 + rng.NextUint64(12), 2, 900.0});
  }
  Rng rng2(9);
  TimeSeries usage = sim::GenerateSeries(spec, rng2);
  auto fc = EnsembleForecast(usage, TimeSeries(), 7 * 24);
  ASSERT_TRUE(fc.ok());
  EXPECT_GE(fc.value().predicted_max, 700.0);
}

TEST(EnsembleTest, TrendShiftTruncatesHistory) {
  sim::SeriesSpec spec;
  spec.hours = 30 * 24;
  spec.base = 100;
  spec.seasons.push_back({24, 20});
  spec.level_shift_at_hour = 20 * 24;
  spec.level_shift_factor = 4.0;  // Business change: 4x traffic.
  Rng rng(10);
  TimeSeries usage = sim::GenerateSeries(spec, rng);
  auto fc = EnsembleForecast(usage, TimeSeries(), 7 * 24);
  ASSERT_TRUE(fc.ok());
  EXPECT_GT(fc.value().truncated_at, 0u);
  // Forecast reflects the post-shift level, not the 30-day blend.
  EXPECT_GT(fc.value().prediction.Mean(), 250.0);
}

TEST(EnsembleTest, DenoisesSimultaneousSpikesBeforeForecasting) {
  TimeSeries usage = DailySeries(30 * 24, 100, 20, 2, 11);
  std::vector<double> quota(usage.size(), 1000.0);
  // Inject a recording artifact into both series.
  usage[400] = 5000;
  quota[400] = 50000;
  auto fc = EnsembleForecast(usage, TimeSeries(quota), 7 * 24);
  ASSERT_TRUE(fc.ok());
  // The artifact must not inflate the forecast max.
  EXPECT_LT(fc.value().predicted_max, 500.0);
}

TEST(EnsembleTest, ConcurrentForecastsMatchSerialResults) {
  // Two forecast lengths from four threads at once, interleaved with
  // periodograms over more lengths than the table cache keeps, so tables
  // are built and evicted while other threads are reading theirs.
  const std::vector<TimeSeries> histories = {
      DailySeries(30 * 24, 100, 30, 5, 21),
      DailySeries(25 * 24, 80, 20, 4, 22)};
  Rng rng(23);
  std::vector<TimeSeries> others;
  for (size_t n : {96, 181, 250, 333, 401, 512}) {
    others.emplace_back(RandomSeries(rng, n, 0));
  }
  std::vector<ForecastResult> serial_fc;
  for (const TimeSeries& h : histories) {
    auto fc = EnsembleForecast(h, TimeSeries(), 7 * 24);
    ASSERT_TRUE(fc.ok());
    serial_fc.push_back(fc.value());
  }
  std::vector<std::vector<PeriodComponent>> serial_psd;
  for (const TimeSeries& s : others) serial_psd.push_back(Periodogram(s));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < 4; w++) {
    threads.emplace_back([&, w] {
      for (size_t round = 0; round < 2; round++) {
        for (size_t j = 0; j < histories.size(); j++) {
          const size_t h = (j + w) % histories.size();
          auto fc = EnsembleForecast(histories[h], TimeSeries(), 7 * 24);
          if (!fc.ok() || !SameForecast(fc.value(), serial_fc[h])) {
            mismatches++;
          }
          const size_t o = (j + w + round) % others.size();
          if (!SameBits(Periodogram(others[o]), serial_psd[o])) mismatches++;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace forecast
}  // namespace abase
