// Synthetic tenant workload generation — the repo's stand-in for
// ByteDance's production traffic (paper Section 2). A WorkloadProfile
// captures the statistical shape of one business line (throughput,
// read ratio, KV size, key skew, TTL, traffic dynamics); the generator
// turns it into a deterministic per-tick stream of client requests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/time_series.h"
#include "common/types.h"
#include "node/request.h"

namespace abase {
namespace sim {

/// Key-popularity distribution.
enum class KeyDist {
  kUniform,
  kZipfian,  ///< YCSB-style skew.
  kHotSpot,  ///< A small hot set takes a fixed share (hot-key events).
};

/// Statistical description of one tenant's workload.
struct WorkloadProfile {
  // Traffic volume.
  double base_qps = 100;
  /// Sinusoidal diurnal swing as a fraction of base (0 = flat).
  double diurnal_amplitude = 0;
  double diurnal_period_hours = 24;
  /// Multiplicative traffic growth per simulated day (0 = none).
  double trend_per_day = 0;
  /// Scripted burst windows (absolute sim time).
  struct Burst {
    Micros start = 0;
    Micros end = 0;
    double multiplier = 1.0;
  };
  std::vector<Burst> bursts;

  /// Time-varying rate schedule: when non-empty, the schedule point for
  /// the current sim time REPLACES base_qps as the base traffic rate
  /// (trend, diurnal factor, and bursts still multiply on top). One
  /// point covers `rate_schedule_step` micros of sim time; the schedule
  /// wraps at the end, so a 24-point hourly series is a repeating
  /// diurnal day. Build one from a SeriesSpec via GenerateSeries — the
  /// same generator that fabricates the autoscaler's usage histories —
  /// so the control loop has real load swings to chase.
  TimeSeries rate_schedule;
  Micros rate_schedule_step = kMicrosPerHour;

  // Operation mix.
  double read_ratio = 1.0;      ///< Fraction of ops that read.
  /// Fraction of reads issued with Consistency::kEventual (replica
  /// reads, possibly stale by the replication lag). 0 keeps every read
  /// on the primary — and draws nothing from the RNG, so enabling this
  /// on one tenant never perturbs another tenant's stream.
  double eventual_read_fraction = 0;
  double hash_op_fraction = 0;  ///< Fraction of ops on hash tables.
  uint32_t hash_fields = 8;     ///< Fields per hash key.

  // Key space.
  uint64_t num_keys = 10000;
  KeyDist key_dist = KeyDist::kZipfian;
  double zipf_theta = 0.9;
  double hot_fraction = 0.001;  ///< kHotSpot: fraction of keys that are hot.
  double hot_share = 0.9;       ///< kHotSpot: traffic share of the hot set.

  // Range scans (the scan data path).
  /// Fraction of non-hash READ ops issued as prefix scans. 0 = none —
  /// and no extra RNG draws, so every pre-scan stream (and its golden
  /// digest) is bit-identical.
  double scan_fraction = 0;
  /// Entry cap each generated scan carries (0 = unlimited).
  uint32_t scan_limit = 100;
  /// Scan locality: when > 0, keys gain a group segment
  /// ("t<T>:g<G>:k<I>" with G = I mod groups) and each scan targets one
  /// group's prefix — the group is derived from a normally-sampled key
  /// index, so scan popularity follows the key-distribution skew. 0
  /// keeps the seed key shape ("t<T>:k<I>", matching PreloadKeys) and
  /// scans the whole tenant prefix instead.
  uint32_t scan_prefix_groups = 0;

  // Values.
  uint64_t value_bytes = 1024;
  double value_sigma = 0.3;  ///< Log-normal spread around value_bytes.
  Micros ttl = 0;            ///< 0 = no TTL.
};

/// Deterministic request stream for one tenant.
class WorkloadGenerator {
 public:
  WorkloadGenerator(TenantId tenant, WorkloadProfile profile, uint64_t seed);

  /// Requests for one tick of length `tick_len` at sim time `now`.
  std::vector<ClientRequest> Tick(Micros now, Micros tick_len);

  /// In-place variant: overwrites `out` with this tick's requests,
  /// recycling its slots (and the key/value string capacity inside
  /// them) so steady-state generation allocates nothing. The produced
  /// stream — including the RNG draw order — is identical to the
  /// returning overload.
  void Tick(Micros now, Micros tick_len, std::vector<ClientRequest>& out);

  /// Expected (pre-noise) QPS at time `now` given the traffic shape.
  double ExpectedQps(Micros now) const;

  /// Mutable profile for scenario scripting (e.g., Figure 5 schedules
  /// flip skew or traffic mid-run).
  WorkloadProfile& profile() { return profile_; }
  const WorkloadProfile& profile() const { return profile_; }

  uint64_t requests_generated() const { return next_req_id_; }

 private:
  void KeyInto(uint64_t index, std::string& out) const;
  /// Scan target for the group owning `index`: "t<T>:g<G>:" when
  /// scan_prefix_groups > 0, else the tenant-wide prefix "t<T>:".
  void ScanPrefixInto(uint64_t index, std::string& out) const;
  uint64_t SampleKeyIndex();
  void MakeValueInto(std::string& out);

  TenantId tenant_;
  WorkloadProfile profile_;
  /// Built from seed_ on the first Tick: nothing draws before it, so the
  /// stream is unchanged, and a generator that is never ticked (a
  /// flat-zero profile parks first) keeps no 2.5 KB engine resident.
  uint64_t seed_;
  std::unique_ptr<Rng> rng_;
  /// Built on the first Zipfian draw, so a generator that never draws
  /// (a parked tenant) never pays its O(num_keys) Zeta sum.
  std::unique_ptr<ZipfianGenerator> zipf_;
  uint64_t next_req_id_ = 1;
};

/// Specification of a synthetic hourly metric series (usage history for
/// the forecasting / autoscaling experiments).
struct SeriesSpec {
  size_t hours = 30 * 24;
  double base = 1000;
  double trend_per_day = 0;  ///< Additive slope per day.
  struct Season {
    double period_hours = 24;
    double amplitude = 0;  ///< Absolute amplitude.
  };
  std::vector<Season> seasons;
  double noise_sigma = 0;  ///< Gaussian noise, absolute.
  struct SeriesBurst {
    size_t at_hour = 0;
    size_t duration_hours = 1;
    double add = 0;
  };
  std::vector<SeriesBurst> bursts;
  /// Optional level shift (trend change): multiply everything after it.
  size_t level_shift_at_hour = 0;  ///< 0 = none.
  double level_shift_factor = 1.0;
};

/// Generates the series described by `spec` (deterministic given rng).
TimeSeries GenerateSeries(const SeriesSpec& spec, Rng& rng);

}  // namespace sim
}  // namespace abase
