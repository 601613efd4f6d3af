// Wire framing of a scan result payload.
//
// A scan reply carries many (key, value) entries in one response value.
// Values are arbitrary bytes (serialized hashes contain '=' and '\n'),
// so the framing is length-prefixed binary rather than a separator
// format: per entry a 32-bit key length, a 32-bit value length (both
// little-endian), then the raw key and value bytes. Entries appear in
// ascending key order. The codec is shared by the DataNode (encode), the
// Settle stage's fan-out merge (decode + re-encode), the proxy content
// store (opaque payload), and the client (decode).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

namespace abase {

/// One decoded scan entry, viewing into the framed payload.
struct ScanEntryView {
  std::string_view key;
  std::string_view value;
};

/// Writes one framed (key, value) entry at `dst` (8 + key + value
/// bytes) and returns the position just past it.
inline char* WriteScanEntry(char* dst, std::string_view key,
                            std::string_view value) {
  const uint32_t klen = static_cast<uint32_t>(key.size());
  const uint32_t vlen = static_cast<uint32_t>(value.size());
  dst[0] = static_cast<char>(klen & 0xff);
  dst[1] = static_cast<char>((klen >> 8) & 0xff);
  dst[2] = static_cast<char>((klen >> 16) & 0xff);
  dst[3] = static_cast<char>((klen >> 24) & 0xff);
  dst[4] = static_cast<char>(vlen & 0xff);
  dst[5] = static_cast<char>((vlen >> 8) & 0xff);
  dst[6] = static_cast<char>((vlen >> 16) & 0xff);
  dst[7] = static_cast<char>((vlen >> 24) & 0xff);
  dst = std::copy(key.begin(), key.end(), dst + 8);
  return std::copy(value.begin(), value.end(), dst);
}

/// Appends one framed (key, value) entry to `buf`.
inline void AppendScanEntry(std::string& buf, std::string_view key,
                            std::string_view value) {
  const size_t at = buf.size();
  buf.resize(at + 8 + key.size() + value.size());
  WriteScanEntry(&buf[at], key, value);
}

/// Decodes the next entry at the front of `payload`, advancing it past
/// the consumed bytes. Returns false (leaving `payload` unchanged) at
/// the end of the stream or on a truncated frame.
inline bool NextScanEntry(std::string_view& payload, ScanEntryView& out) {
  if (payload.size() < 8) return false;
  auto u32_at = [&](size_t off) {
    const auto* p =
        reinterpret_cast<const unsigned char*>(payload.data()) + off;
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
  };
  const uint32_t klen = u32_at(0);
  const uint32_t vlen = u32_at(4);
  const uint64_t need =
      8ull + static_cast<uint64_t>(klen) + static_cast<uint64_t>(vlen);
  if (payload.size() < need) return false;
  out.key = payload.substr(8, klen);
  out.value = payload.substr(8ull + klen, vlen);
  payload.remove_prefix(static_cast<size_t>(need));
  return true;
}

/// Number of well-formed entries in a framed payload.
inline size_t CountScanEntries(std::string_view payload) {
  size_t n = 0;
  ScanEntryView e;
  while (NextScanEntry(payload, e)) n++;
  return n;
}

}  // namespace abase
