// Request/response structs exchanged between the proxy plane and the data
// plane (in production: the Redis-protocol payload; here: in-process
// structs carrying the same routing and cost information).
#pragma once

#include <cstdint>
#include <string>

#include "common/clock.h"
#include "common/shared_value.h"
#include "common/status.h"
#include "common/types.h"

namespace abase {

/// A client operation as issued by a tenant application.
struct ClientRequest {
  uint64_t req_id = 0;
  TenantId tenant = 0;
  OpType op = OpType::kGet;
  std::string key;
  /// FNV-1a 64 of `key` (== Fnv1a64(key)), computed once when the request
  /// is generated or injected. Every downstream consumer that hashes the
  /// key — partition routing, limited fan-out proxy choice, the write
  /// invalidation broadcast — reuses this instead of re-walking the
  /// bytes. 0 only for hand-built requests that never enter the sim.
  uint64_t key_hash = 0;
  std::string field;  ///< Hash commands: the field. Scans: exclusive end key.
  std::string value;  ///< Writes only.
  Micros ttl = 0;     ///< SET/EXPIRE.
  /// Scans only: maximum entries returned across the whole range.
  uint32_t scan_limit = 0;
  Micros issued_at = 0;
  /// Read routing preference: kPrimary pins the read to the partition's
  /// primary; kEventual lets the Route stage balance it across alive
  /// replicas (possibly stale by the replication lag). Ignored for
  /// writes, which always go to the primary.
  Consistency consistency = Consistency::kPrimary;
  /// When true, the simulator records this request's final outcome so a
  /// synchronous caller (abase::Client) can retrieve it.
  bool track_outcome = false;
};

/// A request forwarded by a proxy to a DataNode.
struct NodeRequest {
  uint64_t req_id = 0;
  TenantId tenant = 0;
  PartitionId partition = 0;
  OpType op = OpType::kGet;
  std::string key;
  std::string field;  ///< Hash commands: the field. Scans: exclusive end key.
  std::string value;
  Micros ttl = 0;
  /// Scans only: per-partition entry cap. The Route stage fans a scan
  /// out to every partition; each sub-request carries the client's full
  /// limit (any partition might hold the whole answer) and the Settle
  /// merge re-applies it globally.
  uint32_t scan_limit = 0;
  Micros issued_at = 0;
  double estimated_ru = 1.0;       ///< Proxy-side cache-aware estimate.
  uint64_t value_size_hint = 0;    ///< For WFQ small/large classification.
  bool background_refresh = false; ///< AU-LRU active-update re-fetch.
  int replicas = 3;                ///< Tenant replication (write RU fan-out).
  Consistency consistency = Consistency::kPrimary;  ///< Read routing.
};

/// Where a completed request was ultimately served.
enum class ServedBy {
  kProxyCache,
  kNodeCache,
  kNodeCpu,   ///< Write absorbed by memtable / metadata op.
  kDisk,
  kRejected,  ///< Throttled at some admission point.
};

/// A DataNode's reply to a forwarded request.
struct NodeResponse {
  uint64_t req_id = 0;
  TenantId tenant = 0;
  PartitionId partition = 0;
  OpType op = OpType::kGet;
  Status status;
  std::string key;
  /// Read payload (value, HGET field, HLEN count, serialized hash, or
  /// framed scan); null when the reply carries none. Shared, not owned:
  /// a GET's payload is the engine record's own bytes, and the node
  /// cache and proxy content store hold the same handle
  /// (common/shared_value.h).
  SharedValue value;
  uint64_t value_bytes = 0;   ///< Actual bytes returned/written.
  uint64_t scan_entries = 0;  ///< Scans: entries in the framed payload.
  double actual_ru = 0;       ///< Charge computed by the node.
  Micros latency = 0;         ///< Data-plane service latency.
  ServedBy served_by = ServedBy::kNodeCpu;
  bool background_refresh = false;
  /// Remaining engine TTL of a read value (0 = none/unknown). Caps how
  /// long the proxy may cache it.
  Micros ttl_remaining = 0;
  /// Whether the serving replica held the primary role (false for an
  /// eventual-consistency replica read).
  bool from_primary = true;
  /// The serving engine's replication apply sequence at execution time;
  /// the Settle stage compares it against the primary's to surface the
  /// staleness of replica reads in TenantTickMetrics.
  uint64_t replica_applied_seq = 0;
};

}  // namespace abase
