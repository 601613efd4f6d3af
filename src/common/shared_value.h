// The point-read path's one payload representation: an immutable string
// shared by every layer that holds it, from the storage engine to the
// client-facing settle.
//
// A string value read from the engine — and a SET's write-through
// value, taken from the record LsmEngine::Put just built — aliases the
// shared write record itself (the aliasing constructor,
// `SharedValue(rec, &rec->entry.str)`): the handle keeps the record
// alive and costs no allocation. Payloads the engine does not store
// as-is — an HGETALL serialization, an HLEN count, a framed scan — are
// built once (MakeSharedValue). Either way the node cache, the
// NodeResponse and the proxy content store then share that one buffer
// by refcount instead of each keeping a copy.
//
// Lifetime rule: the bytes are immutable and live as long as any handle
// does. A holder that outlives an overwrite, flush or compaction keeps
// reading the old bytes — exactly the staleness a cache entry already
// has until its invalidation lands — and never dangles. Refcounts are
// atomic, so handles may cross data-plane workers.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace abase {

/// Immutable shared payload. Null means "no payload" (a write's or a
/// rejection's response).
using SharedValue = std::shared_ptr<const std::string>;

/// The one allocation of a derived payload.
inline SharedValue MakeSharedValue(std::string bytes) {
  return std::make_shared<const std::string>(std::move(bytes));
}

/// The payload's bytes; empty for a null handle.
inline std::string_view ValueView(const SharedValue& v) {
  return v ? std::string_view(*v) : std::string_view();
}

}  // namespace abase
