// Value representation for the storage engine: Redis-style string and hash
// values with optional TTL and tombstones. ValueEntry is the owning form
// a caller builds, ingests or exports; the engine stores each version as
// an immutable ReplRecord block (record.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace abase {
namespace storage {

/// kHash payload: (field, value) pairs kept sorted by field. A flat
/// sorted vector instead of std::map — iteration order is identical,
/// but the container is contiguous (no per-field node allocations). A
/// record encodes the fields in this order.
using HashFields = std::vector<std::pair<std::string, std::string>>;

/// Inserts or overwrites `field`, keeping the vector sorted.
inline void SetField(HashFields& h, std::string_view field,
                     std::string_view value) {
  auto it = std::lower_bound(
      h.begin(), h.end(), field,
      [](const std::pair<std::string, std::string>& p, std::string_view f) {
        return p.first < f;
      });
  if (it != h.end() && it->first == field) {
    it->second.assign(value);
  } else {
    h.emplace(it, std::string(field), std::string(value));
  }
}

/// Value kind stored under a key.
enum class ValueType : uint8_t {
  kString = 0,
  kHash = 1,
  kTombstone = 2,  ///< Deletion marker; removed at bottom-level compaction.
};

/// A versioned value, owned. `seq` orders versions of the same key across
/// runs; higher sequence wins. `expire_at` of 0 means "no TTL".
struct ValueEntry {
  ValueType type = ValueType::kString;
  uint64_t seq = 0;
  Micros expire_at = 0;
  std::string str;   ///< kString payload.
  HashFields hash;   ///< kHash payload, sorted by field.

  static ValueEntry String(std::string value, uint64_t seq,
                           Micros expire_at = 0) {
    ValueEntry e;
    e.type = ValueType::kString;
    e.seq = seq;
    e.expire_at = expire_at;
    e.str = std::move(value);
    return e;
  }

  static ValueEntry Tombstone(uint64_t seq) {
    ValueEntry e;
    e.type = ValueType::kTombstone;
    e.seq = seq;
    return e;
  }
};

}  // namespace storage
}  // namespace abase
