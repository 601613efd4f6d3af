// One write version as one immutable heap block: a 32-byte header, then
// the key bytes, then the payload bytes. Built once per write version
// (MakeReplRecord) and shared, never copied, by every replication log,
// memtable and SSTable run that holds it, through the 8-byte
// ReplRecordPtr (common/shared_value.h).
//
// Payload encodings:
//   kString     the value bytes as-is (str() views them, so a GET or a
//               SET write-through aliases them with a SharedValue);
//   kTombstone  empty;
//   kHash       a u32 field count, then per field (in field order) a u32
//               field length, a u32 value length, the field bytes and
//               the value bytes (host byte order; the block never
//               leaves the process). HGET views a value in place.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/shared_value.h"
#include "storage/value.h"

namespace abase {
namespace storage {

class ReplRecord;

/// Records are immutable, so one materialized copy per write version
/// serves every holder across the placement: the primary's replication
/// log and memtable, every replica's log and memtable, and every
/// SSTable run on every node that flushes or compacts it. Handing a
/// record to another holder is a refcount bump, never a key/value copy;
/// the record dies when its last holder (typically a compaction that
/// drops the shadowed version) releases it. Nodes running on different
/// workers share records through atomic refcounts only — nothing ever
/// writes through a record after it is built.
using ReplRecordPtr = RefPtr<const ReplRecord>;

/// One write version: the key and full value as the primary applied it.
/// `seq()` is the record's position in the replication stream.
class ReplRecord : public SharedBlock {
 public:
  std::string_view key() const { return {tail(), key_len_}; }
  ValueType type() const { return type_; }
  uint64_t seq() const { return seq_; }
  Micros expire_at() const { return expire_at_; }

  bool IsTombstone() const { return type_ == ValueType::kTombstone; }
  /// True if this version has a TTL that has elapsed at time `now`.
  bool IsExpiredAt(Micros now) const {
    return expire_at_ != 0 && now >= expire_at_;
  }

  /// The kString payload (empty for a tombstone).
  std::string_view str() const { return payload(); }

  /// ValueEntry::PayloadBytes of this version: the string's length, or
  /// the sum of a hash's field and value lengths (encoding excluded).
  uint64_t PayloadBytes() const {
    if (type_ != ValueType::kHash) return payload_len_;
    return payload_len_ - 4 - 8ull * hash_size();
  }

  /// kHash: the number of fields.
  uint32_t hash_size() const { return U32At(payload().data()); }

  /// kHash: visits each (field, value) in field order.
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
    const char* p = payload().data();
    const uint32_t n = U32At(p);
    p += 4;
    for (uint32_t i = 0; i < n; i++) {
      const uint32_t flen = U32At(p);
      const uint32_t vlen = U32At(p + 4);
      p += 8;
      fn(std::string_view(p, flen), std::string_view(p + flen, vlen));
      p += flen + vlen;
    }
  }

  /// kHash: the value of `field`, viewing this record; false if absent.
  bool FindField(std::string_view field, std::string_view* value) const {
    bool found = false;
    ForEachField([&](std::string_view f, std::string_view v) {
      if (!found && f == field) {
        *value = v;
        found = true;
      }
    });
    return found;
  }

  /// kHash: an owning copy of the fields.
  HashFields DecodeHash() const {
    HashFields out;
    out.reserve(hash_size());
    ForEachField([&out](std::string_view f, std::string_view v) {
      out.emplace_back(std::string(f), std::string(v));
    });
    return out;
  }

  /// An owning copy of this version (exports, ingests, read-modify-write).
  ValueEntry ToEntry() const {
    ValueEntry e;
    e.type = type_;
    e.seq = seq_;
    e.expire_at = expire_at_;
    if (type_ == ValueType::kString) e.str = std::string(str());
    if (type_ == ValueType::kHash) e.hash = DecodeHash();
    return e;
  }

 private:
  friend class SharedBlock;
  friend ReplRecordPtr MakeReplRecord(std::string_view key, ValueType type,
                                      uint64_t seq, Micros expire_at,
                                      std::string_view str);
  friend ReplRecordPtr MakeReplRecord(std::string_view key,
                                      const ValueEntry& entry);
  friend ReplRecordPtr RestampReplRecord(const ReplRecord& src,
                                         uint64_t seq);

  ReplRecord(ValueType type, uint32_t key_len, uint32_t payload_len,
             uint64_t seq, Micros expire_at)
      : type_(type),
        key_len_(key_len),
        payload_len_(payload_len),
        seq_(seq),
        expire_at_(expire_at) {}

  /// Allocates the block and copies `key` in; the caller writes the
  /// `payload_len` payload bytes at payload_dst().
  static ReplRecord* Build(std::string_view key, ValueType type,
                           uint64_t seq, Micros expire_at,
                           size_t payload_len) {
    ReplRecord* r = SharedBlock::New<ReplRecord>(
        sizeof(ReplRecord) + key.size() + payload_len, type,
        static_cast<uint32_t>(key.size()), static_cast<uint32_t>(payload_len),
        seq, expire_at);
    if (!key.empty()) std::memcpy(r->tail(), key.data(), key.size());
    return r;
  }

  static uint32_t U32At(const char* p) {
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static char* PutU32(char* p, uint32_t v) {
    std::memcpy(p, &v, sizeof(v));
    return p + sizeof(v);
  }

  const char* tail() const {
    return reinterpret_cast<const char*>(this) + sizeof(ReplRecord);
  }
  char* tail() { return reinterpret_cast<char*>(this) + sizeof(ReplRecord); }
  char* payload_dst() { return tail() + key_len_; }
  std::string_view payload() const {
    return {tail() + key_len_, payload_len_};
  }

  // The refcount (4 bytes, SharedBlock) comes first.
  ValueType type_;
  uint32_t key_len_;
  uint32_t payload_len_;
  uint64_t seq_;
  Micros expire_at_;
};

static_assert(sizeof(ReplRecord) == 32, "a record header is 32 bytes");
static_assert(sizeof(ReplRecordPtr) == 8, "a record handle is 8 bytes");

/// Builds a kString or kTombstone version: the one allocation the write
/// path performs for it.
inline ReplRecordPtr MakeReplRecord(std::string_view key, ValueType type,
                                    uint64_t seq, Micros expire_at,
                                    std::string_view str) {
  ReplRecord* r = ReplRecord::Build(key, type, seq, expire_at, str.size());
  if (!str.empty()) std::memcpy(r->payload_dst(), str.data(), str.size());
  return ReplRecordPtr::Adopt(r);
}

/// Builds the version `entry` describes (its seq included).
inline ReplRecordPtr MakeReplRecord(std::string_view key,
                                    const ValueEntry& entry) {
  if (entry.type != ValueType::kHash) {
    return MakeReplRecord(key, entry.type, entry.seq, entry.expire_at,
                          entry.str);
  }
  size_t len = 4;
  for (const auto& [f, v] : entry.hash) len += 8 + f.size() + v.size();
  ReplRecord* r =
      ReplRecord::Build(key, entry.type, entry.seq, entry.expire_at, len);
  char* p = ReplRecord::PutU32(r->payload_dst(),
                               static_cast<uint32_t>(entry.hash.size()));
  for (const auto& [f, v] : entry.hash) {
    p = ReplRecord::PutU32(p, static_cast<uint32_t>(f.size()));
    p = ReplRecord::PutU32(p, static_cast<uint32_t>(v.size()));
    std::memcpy(p, f.data(), f.size());
    p += f.size();
    std::memcpy(p, v.data(), v.size());
    p += v.size();
  }
  return ReplRecordPtr::Adopt(r);
}

/// A copy of `src` stamped with stream sequence `seq`: same key, type,
/// TTL deadline and payload bytes (split ingest moves a version into a
/// child engine under the child's own sequence). One allocation.
inline ReplRecordPtr RestampReplRecord(const ReplRecord& src, uint64_t seq) {
  ReplRecord* r = ReplRecord::Build(src.key(), src.type_, seq, src.expire_at_,
                                    src.payload_len_);
  const std::string_view payload = src.payload();
  if (!payload.empty()) {
    std::memcpy(r->payload_dst(), payload.data(), payload.size());
  }
  return ReplRecordPtr::Adopt(r);
}

}  // namespace storage
}  // namespace abase
