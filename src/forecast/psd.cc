#include "forecast/psd.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>

namespace abase {
namespace forecast {

namespace {

/// Frequencies k = 2 .. n/2 (k=1 is the whole-window trend, excluded;
/// k > n/2 aliases). Row k-2 holds the (cos, sin) pair of w*t for every
/// sample t, computed with the expressions a direct DFT evaluates inline.
class TwiddleTable {
 public:
  explicit TwiddleTable(size_t n) : n_(n), pairs_(2 * n * (n / 2 - 1)) {
    double* out = pairs_.data();
    for (size_t k = 2; k <= n / 2; k++) {
      const double w = 2.0 * M_PI * static_cast<double>(k) /
                       static_cast<double>(n);
      for (size_t t = 0; t < n; t++) {
        *out++ = std::cos(w * static_cast<double>(t));
        *out++ = std::sin(w * static_cast<double>(t));
      }
    }
  }

  size_t n() const { return n_; }
  /// 2n interleaved doubles: cos(w*t), sin(w*t) for t = 0 .. n-1.
  const double* Row(size_t k) const { return pairs_.data() + 2 * n_ * (k - 2); }

 private:
  size_t n_;
  std::vector<double> pairs_;
};

/// Series lengths whose tables stay cached; the least recently used one
/// is evicted beyond that.
constexpr size_t kCachedLengths = 4;

/// The process-wide table for length n (n >= 8), built on first use.
/// Tables are immutable once built, so callers read them without the lock.
std::shared_ptr<const TwiddleTable> TwiddlesFor(size_t n) {
  static std::mutex mu;
  static std::vector<std::shared_ptr<const TwiddleTable>> cache;  // LRU last.
  std::lock_guard<std::mutex> lock(mu);
  auto it = std::find_if(cache.begin(), cache.end(),
                         [n](const auto& t) { return t->n() == n; });
  std::shared_ptr<const TwiddleTable> table;
  if (it != cache.end()) {
    table = *it;
    cache.erase(it);
  } else {
    table = std::make_shared<const TwiddleTable>(n);
    if (cache.size() == kCachedLengths) cache.erase(cache.begin());
  }
  cache.push_back(table);
  return table;
}

}  // namespace

std::vector<PeriodComponent> Periodogram(const TimeSeries& series) {
  std::vector<PeriodComponent> out;
  const size_t n = series.size();
  if (n < 8) return out;
  const double mean = series.Mean();
  std::vector<double> v(n);
  for (size_t t = 0; t < n; t++) v[t] = series[t] - mean;
  const std::shared_ptr<const TwiddleTable> table = TwiddlesFor(n);

  out.reserve(n / 2 - 1);
  for (size_t k = 2; k <= n / 2; k++) {
    const double* tw = table->Row(k);
    double re = 0, im = 0;
    for (size_t t = 0; t < n; t++) {
      re += v[t] * tw[2 * t];
      im -= v[t] * tw[2 * t + 1];
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

double DetectDominantPeriod(const TimeSeries& series,
                            double min_power_ratio) {
  auto spectrum = Periodogram(series);
  if (spectrum.empty()) return 0;
  double total_var = series.Stddev();
  total_var = total_var * total_var * static_cast<double>(series.size());
  if (total_var <= 0) return 0;
  const PeriodComponent& top = spectrum.front();
  if (top.power / total_var < min_power_ratio) return 0;
  return top.period_samples;
}

bool HasPeriodicity(const TimeSeries& series) {
  return DetectDominantPeriod(series) > 0;
}

}  // namespace forecast
}  // namespace abase
