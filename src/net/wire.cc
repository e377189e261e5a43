#include "src/net/wire.h"

#include <cstring>

#include "src/io/serializer.h"

namespace tsunami {
namespace net {

namespace {

/// Upper bound on filters one query frame may carry. Far above anything
/// the planner produces; a count beyond it is corruption, and rejecting it
/// here keeps a malformed length prefix from driving a huge allocation.
constexpr uint64_t kMaxQueryFilters = 4096;
constexpr uint64_t kMaxErrorMessage = 4096;

void PutLe16(uint16_t v, char* out) {
  out[0] = static_cast<char>(v & 0xFF);
  out[1] = static_cast<char>((v >> 8) & 0xFF);
}

void PutLe32(uint32_t v, char* out) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

void PutLe64(uint64_t v, char* out) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

uint16_t GetLe16(const char* p) {
  return static_cast<uint16_t>(static_cast<uint8_t>(p[0]) |
                               (static_cast<uint16_t>(static_cast<uint8_t>(p[1]))
                                << 8));
}

uint32_t GetLe32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetLe64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

const char* ToString(WireError error) {
  switch (error) {
    case WireError::kNone:
      return "none";
    case WireError::kMalformedFrame:
      return "malformed-frame";
    case WireError::kOversizedFrame:
      return "oversized-frame";
    case WireError::kBadVersion:
      return "bad-version";
    case WireError::kBadType:
      return "bad-type";
    case WireError::kQueueFull:
      return "queue-full";
    case WireError::kDeadlineInfeasible:
      return "deadline-infeasible";
    case WireError::kClientBusy:
      return "client-busy";
    case WireError::kDraining:
      return "draining";
    case WireError::kReadOnly:
      return "read-only";
    case WireError::kDurabilityFailed:
      return "durability-failed";
    case WireError::kResourceExhausted:
      return "resource-exhausted";
  }
  return "unknown-wire-error";
}

bool IsRetryable(WireError error) {
  switch (error) {
    case WireError::kQueueFull:
    case WireError::kClientBusy:
    case WireError::kDraining:
    // Refused before admission: nothing was applied or logged, so a retry
    // cannot duplicate work; the store re-arms itself as pressure clears.
    case WireError::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

void AppendFrame(const FrameHeader& header, std::string_view payload,
                 std::string* out) {
  char h[kFrameHeaderSize];
  PutLe32(kFrameMagic, h);
  PutLe16(header.version, h + 4);
  h[6] = static_cast<char>(header.type);
  h[7] = static_cast<char>(header.flags);
  PutLe64(header.request_id, h + 8);
  PutLe32(static_cast<uint32_t>(payload.size()), h + 16);
  PutLe32(static_cast<uint32_t>(header.priority), h + 20);
  PutLe64(header.deadline_micros, h + 24);
  out->append(h, kFrameHeaderSize);
  out->append(payload.data(), payload.size());
}

HeaderParse ParseFrameHeader(std::string_view buffer, FrameHeader* out) {
  if (buffer.size() < kFrameHeaderSize) return HeaderParse::kNeedMore;
  const char* p = buffer.data();
  if (GetLe32(p) != kFrameMagic) return HeaderParse::kBadMagic;
  out->version = GetLe16(p + 4);
  if (out->version != kWireVersion) return HeaderParse::kBadVersion;
  out->type = static_cast<FrameType>(static_cast<uint8_t>(p[6]));
  out->flags = static_cast<uint8_t>(p[7]);
  out->request_id = GetLe64(p + 8);
  out->payload_len = GetLe32(p + 16);
  out->priority = static_cast<int32_t>(GetLe32(p + 20));
  out->deadline_micros = GetLe64(p + 24);
  return HeaderParse::kOk;
}

std::string EncodeQueryPayload(const Query& query) {
  BinaryWriter w;
  w.PutVarU64(query.filters.size());
  for (const Predicate& p : query.filters) {
    w.PutVarI64(p.dim);
    w.PutVarI64(p.lo);
    w.PutVarI64(p.hi);
  }
  w.PutVarU64(static_cast<uint64_t>(query.num_aggs()));
  for (int i = 0; i < query.num_aggs(); ++i) {
    const AggregateSpec spec = query.agg_spec(i);
    w.PutU8(static_cast<uint8_t>(spec.op));
    w.PutVarI64(spec.column);
  }
  w.PutVarI64(query.type);
  return w.Release();
}

bool DecodeQueryPayload(std::string_view payload, Query* out) {
  BinaryReader r(payload);
  Query q;
  const uint64_t num_filters = r.GetVarU64();
  if (!r.ok() || num_filters > kMaxQueryFilters) return false;
  q.filters.reserve(num_filters);
  for (uint64_t i = 0; i < num_filters && r.ok(); ++i) {
    Predicate p;
    p.dim = static_cast<int>(r.GetVarI64());
    p.lo = r.GetVarI64();
    p.hi = r.GetVarI64();
    if (p.dim < 0) return false;
    q.filters.push_back(p);
  }
  // Checked against the cap before any Query holds the list, so an
  // over-long list is a malformed frame, not an exception.
  const uint64_t num_aggs = r.GetVarU64();
  if (!r.ok() || num_aggs == 0 ||
      num_aggs > static_cast<uint64_t>(kMaxQueryAggs)) {
    return false;
  }
  AggregateSpec specs[kMaxQueryAggs];
  for (uint64_t i = 0; i < num_aggs && r.ok(); ++i) {
    const uint8_t op = r.GetU8();
    if (op > static_cast<uint8_t>(AggKind::kAvg)) return false;
    specs[i].op = static_cast<AggKind>(op);
    specs[i].column = static_cast<int>(r.GetVarI64());
    if (specs[i].column < 0) return false;
  }
  q.type = static_cast<int>(r.GetVarI64());
  if (!r.ok() || !r.AtEnd()) return false;
  q.SetAggregates(std::span<const AggregateSpec>(specs, num_aggs));
  *out = q;
  return true;
}

std::string EncodeResultPayload(const ResultPayload& payload) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(payload.outcome));
  w.PutDouble(payload.server_latency_seconds);
  const QueryResult& r = payload.result;
  w.PutVarI64(r.agg);
  w.PutVarI64(r.scanned);
  w.PutVarI64(r.matched);
  w.PutVarI64(r.cell_ranges);
  w.PutBool(r.degraded);
  w.PutVarI64(r.quarantined_blocks);
  w.PutVarU64(r.extra.size());
  for (int64_t v : r.extra) w.PutVarI64(v);
  return w.Release();
}

bool DecodeResultPayload(std::string_view payload, ResultPayload* out) {
  BinaryReader r(payload);
  ResultPayload p;
  const uint8_t outcome = r.GetU8();
  if (outcome > static_cast<uint8_t>(QueryOutcome::kAlreadyConsumed)) {
    return false;
  }
  p.outcome = static_cast<QueryOutcome>(outcome);
  p.server_latency_seconds = r.GetDouble();
  p.result.agg = r.GetVarI64();
  p.result.scanned = r.GetVarI64();
  p.result.matched = r.GetVarI64();
  p.result.cell_ranges = r.GetVarI64();
  p.result.degraded = r.GetBool();
  p.result.quarantined_blocks = r.GetVarI64();
  // One accumulator per aggregate: `agg` plus at most kMaxQueryAggs - 1.
  const uint64_t num_extra = r.GetVarU64();
  if (!r.ok() || num_extra >= static_cast<uint64_t>(kMaxQueryAggs)) {
    return false;
  }
  p.result.extra.reserve(num_extra);
  for (uint64_t i = 0; i < num_extra && r.ok(); ++i) {
    p.result.extra.push_back(r.GetVarI64());
  }
  if (!r.ok() || !r.AtEnd()) return false;
  *out = std::move(p);
  return true;
}

std::string EncodeErrorPayload(WireError error, std::string_view message) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(error));
  w.PutString(message.substr(0, kMaxErrorMessage));
  return w.Release();
}

bool DecodeErrorPayload(std::string_view payload, WireError* error,
                        std::string* message) {
  BinaryReader r(payload);
  const uint8_t code = r.GetU8();
  if (code > static_cast<uint8_t>(WireError::kResourceExhausted)) return false;
  std::string text = r.GetString();
  if (!r.ok() || !r.AtEnd()) return false;
  *error = static_cast<WireError>(code);
  if (message != nullptr) *message = std::move(text);
  return true;
}

std::string EncodeInsertPayload(const std::vector<std::vector<Value>>& rows) {
  BinaryWriter w;
  w.PutVarU64(rows.size());
  const uint64_t dims = rows.empty() ? 0 : rows[0].size();
  w.PutVarU64(dims);
  for (const std::vector<Value>& row : rows) {
    for (Value v : row) w.PutVarI64(v);
  }
  return w.Release();
}

bool DecodeInsertPayload(std::string_view payload,
                         std::vector<std::vector<Value>>* out) {
  BinaryReader r(payload);
  const uint64_t num_rows = r.GetVarU64();
  const uint64_t dims = r.GetVarU64();
  if (!r.ok() || num_rows > static_cast<uint64_t>(kMaxInsertRows) ||
      dims > static_cast<uint64_t>(kMaxInsertDims)) {
    return false;
  }
  // An empty batch is legal (a client-side flush with nothing buffered); a
  // row with zero columns is not.
  if (num_rows > 0 && dims == 0) return false;
  std::vector<std::vector<Value>> rows;
  rows.reserve(num_rows);
  for (uint64_t i = 0; i < num_rows && r.ok(); ++i) {
    std::vector<Value> row(dims);
    for (uint64_t d = 0; d < dims; ++d) row[d] = r.GetVarI64();
    rows.push_back(std::move(row));
  }
  if (!r.ok() || !r.AtEnd()) return false;
  *out = std::move(rows);
  return true;
}

std::string EncodeInsertAckPayload(const InsertAckPayload& payload) {
  BinaryWriter w;
  w.PutVarI64(payload.accepted);
  w.PutVarU64(payload.store_version);
  return w.Release();
}

bool DecodeInsertAckPayload(std::string_view payload, InsertAckPayload* out) {
  BinaryReader r(payload);
  InsertAckPayload p;
  p.accepted = r.GetVarI64();
  p.store_version = r.GetVarU64();
  if (!r.ok() || !r.AtEnd() || p.accepted < 0) return false;
  *out = p;
  return true;
}

}  // namespace net
}  // namespace tsunami
