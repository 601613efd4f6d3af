// Sliding-window estimators used by the RU model (Section 4.1 of the paper):
// E[S_read] and E[R_hit] are moving averages over the last k requests.
#pragma once

#include <cstddef>
#include <vector>

namespace abase {

/// Mean of the last `window` samples. O(1) update.
///
/// The samples live in a ring of `window` doubles that is allocated on
/// the first Add: an estimator that never sees a sample (most of an idle
/// tenant's) holds no heap at all, and a full window allocates nothing.
class MovingAverage {
 public:
  explicit MovingAverage(size_t window, double initial = 0.0)
      : window_(window == 0 ? 1 : window), initial_(initial) {}

  void Add(double x) {
    if (ring_.empty()) ring_.resize(window_);
    // The sum adds the new sample before it drops the oldest one, so
    // Value() rounds exactly as a push-back/pop-front window does.
    sum_ += x;
    if (count_ < window_) {
      ring_[count_++] = x;  // Filling: head_ stays 0 until the ring is full.
    } else {
      sum_ -= ring_[head_];
      ring_[head_] = x;
      head_ = head_ + 1 == window_ ? 0 : head_ + 1;
    }
  }

  /// Returns the configured initial value until the first sample arrives.
  double Value() const {
    if (count_ == 0) return initial_;
    return sum_ / static_cast<double>(count_);
  }

  size_t count() const { return count_; }
  size_t window() const { return window_; }

  void Reset() {
    count_ = 0;
    head_ = 0;
    sum_ = 0;
  }

 private:
  size_t window_;
  double initial_;
  /// `window_` slots once sampled; when full, the oldest is at head_.
  std::vector<double> ring_;
  size_t head_ = 0;
  size_t count_ = 0;
  double sum_ = 0;
};

/// Exponentially-weighted moving average; used where a fixed window is too
/// coarse (e.g., per-queue service-rate tracking).
class Ewma {
 public:
  /// `alpha` in (0, 1]: weight of the newest sample.
  explicit Ewma(double alpha, double initial = 0.0)
      : alpha_(alpha), value_(initial) {}

  void Add(double x) {
    if (!seeded_) {
      value_ = x;
      seeded_ = true;
    } else {
      value_ = alpha_ * x + (1 - alpha_) * value_;
    }
  }

  double Value() const { return value_; }
  bool seeded() const { return seeded_; }

 private:
  double alpha_;
  double value_;
  bool seeded_ = false;
};

}  // namespace abase
