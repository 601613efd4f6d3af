// Key handles: a KeyRef is a non-owning (pointer, length) view of a key
// plus its precomputed FNV-1a 64 hash, built once where the key enters a
// subsystem and threaded through every later hop so no stage re-hashes
// the bytes.
//
// Lifetime rules (see DESIGN.md "Per-request cost model"):
//   - A KeyRef (KeyRef::From) views foreign storage and is valid only
//     while that storage is; it never outlives the request/slot that
//     owns the string.
//   - Strings materialize only at client-visible boundaries (tracked
//     outcomes, cache fills, log records); everything in between moves
//     (pointer, length, hash) triples.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/hash.h"

namespace abase {

/// A non-owning key handle: view + precomputed FNV-1a 64 hash. The hash
/// always equals Fnv1a64(view()) — every constructor enforces it — so a
/// consumer (bloom probe, hash index, router) can trust it blindly.
struct KeyRef {
  const char* data = nullptr;
  uint32_t len = 0;
  uint64_t hash = 0;

  KeyRef() = default;

  /// Wraps foreign storage, hashing once. The caller's storage must
  /// outlive the ref.
  static KeyRef From(std::string_view key) {
    KeyRef r;
    r.data = key.data();
    r.len = static_cast<uint32_t>(key.size());
    r.hash = Fnv1a64(key);
    return r;
  }

  std::string_view view() const { return std::string_view(data, len); }
  bool empty() const { return len == 0; }

  /// Byte equality (hash is compared first as a cheap reject).
  friend bool operator==(const KeyRef& a, const KeyRef& b) {
    return a.hash == b.hash && a.len == b.len &&
           (a.len == 0 || std::memcmp(a.data, b.data, a.len) == 0);
  }
  friend bool operator!=(const KeyRef& a, const KeyRef& b) {
    return !(a == b);
  }
};

}  // namespace abase
