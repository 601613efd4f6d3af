#include "sim/workload.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>

#include "common/hash.h"
#include "common/keyspace.h"

namespace abase {
namespace sim {

WorkloadGenerator::WorkloadGenerator(TenantId tenant, WorkloadProfile profile,
                                     uint64_t seed)
    : tenant_(tenant), profile_(profile), seed_(seed) {}

double WorkloadGenerator::ExpectedQps(Micros now) const {
  double qps = profile_.base_qps;
  if (!profile_.rate_schedule.empty() && profile_.rate_schedule_step > 0) {
    const size_t idx = static_cast<size_t>(
        (now / profile_.rate_schedule_step) %
        static_cast<Micros>(profile_.rate_schedule.size()));
    qps = profile_.rate_schedule[idx];
  }
  double days = static_cast<double>(now) / static_cast<double>(kMicrosPerDay);
  if (profile_.trend_per_day != 0) {
    qps *= std::pow(1.0 + profile_.trend_per_day, days);
  }
  if (profile_.diurnal_amplitude > 0) {
    double hours = static_cast<double>(now) /
                   static_cast<double>(kMicrosPerHour);
    qps *= 1.0 + profile_.diurnal_amplitude *
                     std::sin(2.0 * M_PI * hours /
                              profile_.diurnal_period_hours);
  }
  for (const auto& burst : profile_.bursts) {
    if (now >= burst.start && now < burst.end) qps *= burst.multiplier;
  }
  return std::max(0.0, qps);
}

void WorkloadGenerator::KeyInto(uint64_t index, std::string& out) const {
  // Stable key naming ("t<tenant>:k<index>"); hash-scrambled so adjacent
  // ranks do not share partition routing. Built into the recycled slot
  // string so steady-state keys never allocate.
  // 72 bytes: 't' + <=20 digits + optional ":g" + <=20 digits + ":k" +
  // <=20 digits, with the to_chars ranges bounded so the compiler can
  // see the separator writes fit.
  char buf[72];
  char* p = buf;
  *p++ = 't';
  p = std::to_chars(p, buf + 24, tenant_).ptr;
  *p++ = ':';
  if (profile_.scan_prefix_groups > 0) {
    // Group segment: scans target one group's prefix, so the keyspace
    // must cluster by group before the per-key rank.
    *p++ = 'g';
    p = std::to_chars(p, p + 20, index % profile_.scan_prefix_groups).ptr;
    *p++ = ':';
  }
  *p++ = 'k';
  p = std::to_chars(p, p + 20, index).ptr;
  out.assign(buf, static_cast<size_t>(p - buf));
}

void WorkloadGenerator::ScanPrefixInto(uint64_t index, std::string& out) const {
  char buf[72];
  char* p = buf;
  *p++ = 't';
  p = std::to_chars(p, buf + 24, tenant_).ptr;
  *p++ = ':';
  if (profile_.scan_prefix_groups > 0) {
    *p++ = 'g';
    p = std::to_chars(p, p + 20, index % profile_.scan_prefix_groups).ptr;
    *p++ = ':';
  }
  out.assign(buf, static_cast<size_t>(p - buf));
}

uint64_t WorkloadGenerator::SampleKeyIndex() {
  switch (profile_.key_dist) {
    case KeyDist::kUniform:
      return stream_->rng.NextUint64(std::max<uint64_t>(1, profile_.num_keys));
    case KeyDist::kZipfian:
      // Scenario scripts mutate the profile mid-run (Figure 5): rebuild
      // the sampler lazily whenever its parameters drift.
      if (profile_.num_keys > 1 &&
          (zipf_ == nullptr || zipf_->n() != profile_.num_keys ||
           zipf_->theta() != profile_.zipf_theta)) {
        zipf_ = std::make_unique<ZipfianGenerator>(profile_.num_keys,
                                                   profile_.zipf_theta);
      }
      return zipf_ != nullptr ? zipf_->Next(stream_->rng) : 0;
    case KeyDist::kHotSpot: {
      uint64_t hot_keys = std::max<uint64_t>(
          1, static_cast<uint64_t>(static_cast<double>(profile_.num_keys) *
                                   profile_.hot_fraction));
      if (stream_->rng.NextBool(profile_.hot_share)) {
        return stream_->rng.NextUint64(hot_keys);
      }
      uint64_t cold = profile_.num_keys > hot_keys
                          ? profile_.num_keys - hot_keys
                          : 1;
      return hot_keys + stream_->rng.NextUint64(cold);
    }
  }
  return 0;
}

void WorkloadGenerator::MakeValueInto(SharedValue& out) {
  double bytes = profile_.value_bytes > 0
                     ? stream_->rng.NextLogNormal(
                           std::log(static_cast<double>(profile_.value_bytes)),
                           profile_.value_sigma)
                     : 0;
  size_t n = static_cast<size_t>(std::clamp(bytes, 1.0, 8.0 * 1024 * 1024));
  SharedValue& block = stream_->value_block;
  if (n > block.size()) {
    // Doubling bounds the block allocations by log2 of the largest size.
    const size_t len = std::max(n, 2 * block.size());
    block =
        MakeSharedValue(len, [len](char* dst) { std::memset(dst, 'v', len); });
  }
  out = block.prefix(n);
}

std::vector<ClientRequest> WorkloadGenerator::Tick(Micros now,
                                                   Micros tick_len) {
  std::vector<ClientRequest> out;
  Tick(now, tick_len, out);
  return out;
}

void WorkloadGenerator::Tick(Micros now, Micros tick_len,
                             std::vector<ClientRequest>& out) {
  double expected = ExpectedQps(now) * static_cast<double>(tick_len) /
                    static_cast<double>(kMicrosPerSecond);
  if (stream_ == nullptr) stream_ = std::make_unique<Stream>(seed_);
  int64_t count = stream_->rng.NextPoisson(expected);

  // Recycle the caller's slots: surviving entries keep their key/field
  // string capacity, so every field below must be written (or reset)
  // explicitly — a stale field from the previous tick would corrupt the
  // stream.
  out.resize(static_cast<size_t>(std::max<int64_t>(0, count)));
  for (ClientRequest& req : out) {
    req.req_id = (static_cast<uint64_t>(tenant_) << 40) | next_req_id_++;
    req.tenant = tenant_;
    req.issued_at = now;
    req.field.clear();
    req.value = nullptr;
    req.ttl = 0;
    req.scan_limit = 0;
    req.consistency = Consistency::kPrimary;
    req.track_outcome = false;
    uint64_t key_index = SampleKeyIndex();
    KeyInto(key_index, req.key);
    req.key_hash = Fnv1a64(req.key);

    bool is_hash = stream_->rng.NextBool(profile_.hash_op_fraction);
    bool is_read = stream_->rng.NextBool(profile_.read_ratio);
    if (is_read && profile_.eventual_read_fraction > 0 &&
        stream_->rng.NextBool(profile_.eventual_read_fraction)) {
      req.consistency = Consistency::kEventual;
    }
    if (is_read && !is_hash && profile_.scan_fraction > 0 &&
        stream_->rng.NextBool(profile_.scan_fraction)) {
      // Prefix scan over the sampled key's locality group. Cross-
      // partition merges of mixed-staleness replicas are not a
      // consistent range view, so scans always pin to the primaries.
      req.op = OpType::kScan;
      req.consistency = Consistency::kPrimary;
      ScanPrefixInto(key_index, req.key);
      req.key_hash = Fnv1a64(req.key);
      req.field = PrefixUpperBound(req.key);
      req.scan_limit = profile_.scan_limit;
      continue;
    }
    if (is_hash) {
      char fbuf[24];
      fbuf[0] = 'f';
      char* fp = std::to_chars(fbuf + 1, fbuf + sizeof(fbuf),
                               stream_->rng.NextUint64(profile_.hash_fields))
                     .ptr;
      req.field.assign(fbuf, static_cast<size_t>(fp - fbuf));
      if (is_read) {
        // Mix of field reads and whole-hash scans / length queries.
        double pick = stream_->rng.NextDouble();
        req.op = pick < 0.6 ? OpType::kHGet
                            : (pick < 0.85 ? OpType::kHGetAll : OpType::kHLen);
      } else {
        req.op = OpType::kHSet;
        MakeValueInto(req.value);
      }
    } else if (is_read) {
      req.op = OpType::kGet;
    } else {
      req.op = OpType::kSet;
      MakeValueInto(req.value);
      req.ttl = profile_.ttl;
    }
  }
}

TimeSeries GenerateSeries(const SeriesSpec& spec, Rng& rng) {
  std::vector<double> v(spec.hours, spec.base);
  for (size_t h = 0; h < spec.hours; h++) {
    double t_days = static_cast<double>(h) / 24.0;
    v[h] += spec.trend_per_day * t_days;
    for (const auto& s : spec.seasons) {
      v[h] += s.amplitude *
              std::sin(2.0 * M_PI * static_cast<double>(h) / s.period_hours);
    }
    if (spec.noise_sigma > 0) v[h] += rng.NextGaussian(0, spec.noise_sigma);
  }
  for (const auto& b : spec.bursts) {
    for (size_t h = b.at_hour;
         h < std::min(spec.hours, b.at_hour + b.duration_hours); h++) {
      v[h] += b.add;
    }
  }
  if (spec.level_shift_at_hour > 0) {
    for (size_t h = spec.level_shift_at_hour; h < spec.hours; h++) {
      v[h] *= spec.level_shift_factor;
    }
  }
  for (double& x : v) x = std::max(0.0, x);
  return TimeSeries(std::move(v));
}

}  // namespace sim
}  // namespace abase
