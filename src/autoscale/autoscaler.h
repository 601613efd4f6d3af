// Predictive autoscaler — paper Section 5.1, Algorithm 1.
//
// Forecasts the next 7 days of resource usage from a 30-day hourly
// history and scales the tenant quota so that predicted usage stays
// between the 0.65 and 0.85 utilization thresholds:
//   Umax > 0.85 * QT             → scale up to QT' = Umax / 0.65
//                                   (split partitions if QP > UP)
//   Umax < 0.65 * QT (7d cooldown) → scale down to QT' = Umax / 0.65
//                                   (partition quota floored at LOWER)
// A reactive baseline (threshold-on-current-usage) is provided for the
// Figure 8b oncall ablation.
#pragma once

#include <cstdint>

#include "common/clock.h"
#include "common/time_series.h"
#include "common/types.h"
#include "forecast/ensemble.h"

namespace abase {
namespace autoscale {

/// Algorithm 1 thresholds.
struct ScalingPolicy {
  double upper_threshold = 0.85;
  double lower_threshold = 0.65;
  double target_utilization = 0.65;  ///< QT' = Umax / target.
  Micros scale_down_cooldown = 7ll * kMicrosPerDay;
  size_t forecast_horizon_hours = 7 * 24;
  size_t history_hours = 30 * 24;
};

/// What the policy decided for one tenant+resource.
struct ScalingDecision {
  enum class Action { kNone, kScaleUp, kScaleDown };
  Action action = Action::kNone;
  double old_quota = 0;
  double new_quota = 0;
  double forecast_max = 0;
  bool partition_split = false;  ///< QP exceeded UP after scale-up.
  forecast::ForecastResult forecast;
};

/// Stateless Algorithm 1 evaluator; the caller owns quota application
/// (ClusterSim::SetTenantQuota applies the quota and stages the online
/// split).
class Autoscaler {
 public:
  Autoscaler(ScalingPolicy policy, forecast::EnsembleOptions forecast_options)
      : policy_(policy), forecast_options_(forecast_options) {}
  explicit Autoscaler(ScalingPolicy policy = {})
      : Autoscaler(policy, forecast::EnsembleOptions{}) {}

  /// Runs the policy for one tenant resource dimension.
  ///  `usage`: hourly usage history (RU/s or bytes);
  ///  `quota_series`: matching hourly quota records (for denoising; may be
  ///   empty);
  ///  `current_quota`, `num_partitions`, `partition_quota_upper/lower`:
  ///   Algorithm 1 inputs;
  ///  `last_scale_down`: clock time of the previous down-scale (-1 =
  ///   never) for the 7-day cooldown;
  ///  `now`: current time.
  Result<ScalingDecision> Decide(const TimeSeries& usage,
                                 const TimeSeries& quota_series,
                                 double current_quota, uint32_t num_partitions,
                                 double partition_quota_upper,
                                 double partition_quota_lower,
                                 Micros last_scale_down, Micros now) const;

  const ScalingPolicy& policy() const { return policy_; }

 private:
  ScalingPolicy policy_;
  forecast::EnsembleOptions forecast_options_;
};

/// Reactive baseline for the Figure 8b ablation: scales up only after
/// current usage crosses the threshold (i.e., after users already felt
/// pressure), never proactively.
struct ReactiveScaler {
  double upper_threshold = 0.9;
  double target_utilization = 0.65;

  ScalingDecision Decide(double current_usage, double current_quota) const {
    ScalingDecision d;
    d.old_quota = current_quota;
    d.new_quota = current_quota;
    if (current_usage > upper_threshold * current_quota) {
      d.action = ScalingDecision::Action::kScaleUp;
      d.new_quota = current_usage / target_utilization;
    }
    return d;
  }
};

}  // namespace autoscale
}  // namespace abase
