// Tests for src/common: Status/Result, clocks, RNG distributions,
// histograms, moving averages, time series, linear algebra, hashing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <map>

#include "common/clock.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/math_util.h"
#include "common/moving_average.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/time_series.h"
#include "common/types.h"

namespace abase {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, ThrottledPredicates) {
  EXPECT_TRUE(Status::Throttled().IsThrottled());
  EXPECT_FALSE(Status::Throttled().IsNotFound());
  EXPECT_TRUE(Status::ResourceExhausted().IsResourceExhausted());
  EXPECT_TRUE(Status::Unavailable().IsUnavailable());
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound() == Status::Throttled());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kNotFound, StatusCode::kInvalidArgument,
        StatusCode::kThrottled, StatusCode::kResourceExhausted,
        StatusCode::kUnavailable, StatusCode::kCorruption,
        StatusCode::kNotSupported, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("x"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

// ----------------------------------------------------------------- Clock --

TEST(SimClockTest, StartsAtZeroAndAdvances) {
  SimClock clock;
  EXPECT_EQ(clock.NowMicros(), 0);
  clock.Advance(kMicrosPerSecond);
  EXPECT_EQ(clock.NowMicros(), kMicrosPerSecond);
  clock.AdvanceSeconds(0.5);
  EXPECT_EQ(clock.NowMicros(), kMicrosPerSecond + kMicrosPerSecond / 2);
}

TEST(SimClockTest, NegativeAdvanceIgnored) {
  SimClock clock(100);
  clock.Advance(-50);
  EXPECT_EQ(clock.NowMicros(), 100);
}

TEST(SimClockTest, SetTimeOnlyMovesForward) {
  SimClock clock(1000);
  clock.SetTime(500);
  EXPECT_EQ(clock.NowMicros(), 1000);
  clock.SetTime(2000);
  EXPECT_EQ(clock.NowMicros(), 2000);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; i++) {
    EXPECT_DOUBLE_EQ(a.NextDouble(), b.NextDouble());
  }
}

TEST(RngTest, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; i++) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    uint64_t u = rng.NextUint64(10);
    EXPECT_LT(u, 10u);
    int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(2);
  RunningStats stats;
  for (int i = 0; i < 20000; i++) stats.Add(rng.NextGaussian(10, 3));
  EXPECT_NEAR(stats.mean(), 10.0, 0.15);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.15);
}

TEST(RngTest, PoissonMean) {
  Rng rng(3);
  RunningStats stats;
  for (int i = 0; i < 20000; i++) {
    stats.Add(static_cast<double>(rng.NextPoisson(25)));
  }
  EXPECT_NEAR(stats.mean(), 25.0, 0.5);
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(4);
  EXPECT_EQ(rng.NextPoisson(0), 0);
  EXPECT_EQ(rng.NextPoisson(-1), 0);
}

class ZipfSkewTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSkewTest, HotKeysDominate) {
  const double theta = GetParam();
  ZipfianGenerator zipf(10000, theta);
  Rng rng(5);
  std::map<uint64_t, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; i++) counts[zipf.Next(rng)]++;
  // The top-10 ranks must dominate far beyond their uniform share
  // (10/10000 = 0.1%), increasingly so with skew.
  int top10 = 0;
  for (uint64_t k = 0; k < 10; k++) top10 += counts.count(k) ? counts[k] : 0;
  double share = static_cast<double>(top10) / n;
  EXPECT_GT(share, theta >= 0.9 ? 0.15 : 0.01);
  // Rank 0 is the hottest key.
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_EQ(counts[0], max_count);
  // All samples in range.
  for (const auto& [k, c] : counts) EXPECT_LT(k, 10000u);
}

INSTANTIATE_TEST_SUITE_P(SkewSweep, ZipfSkewTest,
                         ::testing::Values(0.5, 0.7, 0.9, 0.99));

TEST(DiscreteSamplerTest, RespectsWeights) {
  DiscreteSampler sampler({1.0, 0.0, 3.0});
  Rng rng(6);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; i++) counts[sampler.Next(rng)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

// -------------------------------------------------------------- Histogram --

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(123);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 123);
  EXPECT_DOUBLE_EQ(h.max(), 123);
  EXPECT_NEAR(h.Percentile(50), 123, 123 * 0.31);
}

class HistogramPercentileTest : public ::testing::TestWithParam<double> {};

TEST_P(HistogramPercentileTest, PercentileWithinBucketError) {
  const double p = GetParam();
  Histogram h;
  for (int i = 1; i <= 10000; i++) h.Add(i);
  double expected = p / 100.0 * 10000;
  // Geometric buckets with growth 1.3 bound relative error to ~30%.
  EXPECT_NEAR(h.Percentile(p), expected, expected * 0.31 + 1);
}

INSTANTIATE_TEST_SUITE_P(Percentiles, HistogramPercentileTest,
                         ::testing::Values(10.0, 50.0, 90.0, 99.0));

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 100; i++) a.Add(10);
  for (int i = 0; i < 100; i++) b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_DOUBLE_EQ(a.min(), 10);
  EXPECT_DOUBLE_EQ(a.max(), 1000);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Add(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0);
}

TEST(RunningStatsTest, WelfordMatchesDirect) {
  RunningStats s;
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  for (double x : xs) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // Sample stddev.
  EXPECT_DOUBLE_EQ(s.min(), 2);
  EXPECT_DOUBLE_EQ(s.max(), 9);
}

TEST(ExactPercentileTest, InterpolatesAndClamps) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(ExactPercentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(ExactPercentile(v, 100), 5);
  EXPECT_DOUBLE_EQ(ExactPercentile(v, 50), 3);
  EXPECT_DOUBLE_EQ(ExactPercentile(v, 25), 2);
  EXPECT_DOUBLE_EQ(ExactPercentile({}, 50), 0);
}

// --------------------------------------------------------- MovingAverage --

TEST(MovingAverageTest, InitialValueBeforeSamples) {
  MovingAverage ma(4, 7.5);
  EXPECT_DOUBLE_EQ(ma.Value(), 7.5);
  ma.Add(1);
  EXPECT_DOUBLE_EQ(ma.Value(), 1.0);
}

TEST(MovingAverageTest, WindowSlides) {
  MovingAverage ma(3);
  ma.Add(1);
  ma.Add(2);
  ma.Add(3);
  EXPECT_DOUBLE_EQ(ma.Value(), 2.0);
  ma.Add(6);  // Evicts 1 -> window {2,3,6}.
  EXPECT_NEAR(ma.Value(), 11.0 / 3, 1e-9);
  EXPECT_EQ(ma.count(), 3u);
}

TEST(MovingAverageTest, ResetRestoresInitial) {
  MovingAverage ma(3, 9.0);
  ma.Add(1);
  ma.Reset();
  EXPECT_DOUBLE_EQ(ma.Value(), 9.0);
}

/// The pre-ring MovingAverage, kept as the differential reference: a
/// deque window whose sum adds the new sample before dropping the oldest.
class DequeMovingAverage {
 public:
  DequeMovingAverage(size_t window, double initial)
      : window_(window == 0 ? 1 : window), initial_(initial) {}
  void Add(double x) {
    samples_.push_back(x);
    sum_ += x;
    if (samples_.size() > window_) {
      sum_ -= samples_.front();
      samples_.pop_front();
    }
  }
  double Value() const {
    if (samples_.empty()) return initial_;
    return sum_ / static_cast<double>(samples_.size());
  }
  size_t count() const { return samples_.size(); }
  void Reset() {
    samples_.clear();
    sum_ = 0;
  }

 private:
  size_t window_;
  double initial_;
  std::deque<double> samples_;
  double sum_ = 0;
};

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// The ring must round exactly like the deque window it replaced: the RU
// estimates (and through them every golden digest) are built from
// Value(). Samples span many magnitudes so any reordering of the sum's
// additions and subtractions shows up in the low bits.
TEST(MovingAverageTest, RingIsBitEqualToDequeWindow) {
  for (size_t window : {size_t{1}, size_t{2}, size_t{7}, size_t{128}}) {
    Rng rng(1000 + window);
    MovingAverage ma(window, 3.25);
    DequeMovingAverage ref(window, 3.25);
    ASSERT_EQ(Bits(ma.Value()), Bits(ref.Value()));
    constexpr int kSamples = 5000;
    for (int i = 0; i < kSamples; i++) {
      if (i == kSamples / 2) {
        ma.Reset();
        ref.Reset();
        ASSERT_EQ(Bits(ma.Value()), Bits(ref.Value())) << window;
      }
      const double x =
          rng.NextDouble() * std::pow(10.0, rng.NextInt(-6, 9)) -
          (rng.NextBool(0.2) ? 1e5 : 0.0);
      ma.Add(x);
      ref.Add(x);
      ASSERT_EQ(ma.count(), ref.count()) << window << " @" << i;
      ASSERT_EQ(Bits(ma.Value()), Bits(ref.Value())) << window << " @" << i;
    }
    // A copy carries the ring and its position with it.
    MovingAverage copy = ma;
    for (int i = 0; i < 300; i++) {
      const double x = rng.NextDouble() * 1e3;
      copy.Add(x);
      ref.Add(x);
      ASSERT_EQ(Bits(copy.Value()), Bits(ref.Value())) << window << " @" << i;
    }
  }
}

TEST(EwmaTest, SeedsOnFirstSample) {
  Ewma e(0.5);
  EXPECT_FALSE(e.seeded());
  e.Add(10);
  EXPECT_DOUBLE_EQ(e.Value(), 10);
  e.Add(20);
  EXPECT_DOUBLE_EQ(e.Value(), 15);
}

// ------------------------------------------------------------ TimeSeries --

TEST(TimeSeriesTest, BasicStats) {
  TimeSeries ts({1, 2, 3, 4, 5});
  EXPECT_EQ(ts.size(), 5u);
  EXPECT_DOUBLE_EQ(ts.Max(), 5);
  EXPECT_DOUBLE_EQ(ts.Min(), 1);
  EXPECT_DOUBLE_EQ(ts.Mean(), 3);
  EXPECT_NEAR(ts.Stddev(), std::sqrt(2.5), 1e-9);
}

TEST(TimeSeriesTest, TailReturnsSuffix) {
  TimeSeries ts({1, 2, 3, 4, 5});
  TimeSeries t = ts.Tail(2);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t[0], 4);
  EXPECT_DOUBLE_EQ(t[1], 5);
  EXPECT_EQ(ts.Tail(99).size(), 5u);
}

TEST(TimeSeriesTest, DownsampleMaxAndMean) {
  TimeSeries ts({1, 5, 2, 8, 3});
  TimeSeries mx = ts.DownsampleMax(2);
  ASSERT_EQ(mx.size(), 3u);
  EXPECT_DOUBLE_EQ(mx[0], 5);
  EXPECT_DOUBLE_EQ(mx[1], 8);
  EXPECT_DOUBLE_EQ(mx[2], 3);
  EXPECT_DOUBLE_EQ(mx.step_hours(), 2.0);
  TimeSeries mn = ts.DownsampleMean(2);
  EXPECT_DOUBLE_EQ(mn[0], 3);
}

TEST(TimeSeriesTest, MinusChecksShape) {
  TimeSeries a({3, 4}), b({1, 1}), c({1});
  auto d = a.Minus(b);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d.value()[0], 2);
  EXPECT_FALSE(a.Minus(c).ok());
}

TEST(LoadVectorTest, MaxAndArithmetic) {
  LoadVector a = LoadVector::Constant(2);
  LoadVector b = LoadVector::Constant(3);
  EXPECT_DOUBLE_EQ((a + b).MaxLoad(), 5);
  a += b;
  a -= b;
  EXPECT_DOUBLE_EQ(a.MaxLoad(), 2);
}

TEST(LoadVectorTest, FromHourlySeriesTakesMaxPerSlot) {
  std::vector<double> v(48, 1.0);
  v[3] = 10;       // Day 1, hour 3.
  v[24 + 3] = 7;   // Day 2, hour 3 (smaller).
  LoadVector lv = LoadVector::FromHourlySeries(TimeSeries(v));
  EXPECT_DOUBLE_EQ(lv.v[3], 10);
  EXPECT_DOUBLE_EQ(lv.v[4], 1);
}

// -------------------------------------------------------------- MathUtil --

TEST(MathUtilTest, SolvesLinearSystem) {
  Matrix a(2, 2);
  a.at(0, 0) = 2;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 3;
  auto x = SolveLinearSystem(a, {5, 10});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 1.0, 1e-9);
  EXPECT_NEAR(x.value()[1], 3.0, 1e-9);
}

TEST(MathUtilTest, SingularMatrixFails) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 4;
  EXPECT_FALSE(SolveLinearSystem(a, {1, 2}).ok());
}

TEST(MathUtilTest, RidgeRecoversLinearModel) {
  // y = 3 + 2x, 50 points; near-zero ridge recovers coefficients.
  Matrix x(50, 2);
  std::vector<double> y(50);
  for (int i = 0; i < 50; i++) {
    x.at(i, 0) = 1.0;
    x.at(i, 1) = i;
    y[i] = 3.0 + 2.0 * i;
  }
  auto w = RidgeRegression(x, y, 1e-9);
  ASSERT_TRUE(w.ok());
  EXPECT_NEAR(w.value()[0], 3.0, 1e-6);
  EXPECT_NEAR(w.value()[1], 2.0, 1e-6);
}

TEST(MathUtilTest, RidgeShrinksWeights) {
  Matrix x(10, 1);
  std::vector<double> y(10);
  for (int i = 0; i < 10; i++) {
    x.at(i, 0) = 1.0;
    y[i] = 10.0;
  }
  auto small_l = RidgeRegression(x, y, 0.001);
  auto big_l = RidgeRegression(x, y, 100.0);
  ASSERT_TRUE(small_l.ok());
  ASSERT_TRUE(big_l.ok());
  EXPECT_GT(small_l.value()[0], big_l.value()[0]);
}

TEST(MathUtilTest, PearsonCorrelation) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {2, 4, 6, 8};
  std::vector<double> c = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-9);
  EXPECT_NEAR(PearsonCorrelation(a, c), -1.0, 1e-9);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(a, {1, 1, 1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(a, {1, 2}), 0.0);
}

// ------------------------------------------------------------------ Hash --

TEST(HashTest, Fnv1aStableAndSeeded) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64("abc", 1), Fnv1a64("abc", 2));
}

TEST(HashTest, Mix64Decorrelates) {
  // Sequential inputs should map to well-spread outputs.
  std::map<uint64_t, int> buckets;
  for (uint64_t i = 0; i < 1000; i++) buckets[Mix64(i) % 10]++;
  for (const auto& [b, c] : buckets) {
    EXPECT_GT(c, 50);
    EXPECT_LT(c, 200);
  }
}

// ----------------------------------------------------------------- Types --

TEST(TypesTest, ReadOpClassification) {
  EXPECT_TRUE(IsReadOp(OpType::kGet));
  EXPECT_TRUE(IsReadOp(OpType::kHGetAll));
  EXPECT_TRUE(IsReadOp(OpType::kHLen));
  EXPECT_FALSE(IsReadOp(OpType::kSet));
  EXPECT_FALSE(IsReadOp(OpType::kExpire));
}

TEST(TypesTest, RequestClassBoundary) {
  EXPECT_EQ(ClassifyRequest(true, 100), RequestClass::kSmallRead);
  EXPECT_EQ(ClassifyRequest(true, kLargeRequestBytes),
            RequestClass::kLargeRead);
  EXPECT_EQ(ClassifyRequest(false, 100), RequestClass::kSmallWrite);
  EXPECT_EQ(ClassifyRequest(false, 1 << 20), RequestClass::kLargeWrite);
}

TEST(TypesTest, NamesAreStable) {
  EXPECT_STREQ(OpTypeName(OpType::kHGetAll), "HGETALL");
  EXPECT_STREQ(RequestClassName(RequestClass::kLargeWrite), "LargeWrite");
}

}  // namespace
}  // namespace abase
