#include "src/storage/encoded_column.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "src/common/fault_injection.h"

namespace tsunami {

bool EncodingEnabledByDefault() {
#if defined(TSUNAMI_DISABLE_ENCODING)
  return false;
#else
  static const bool enabled = [] {
    const char* disable = std::getenv("TSUNAMI_DISABLE_ENCODING");
    return disable == nullptr || disable[0] == '\0' || disable[0] == '0';
  }();
  return enabled;
#endif
}

namespace {

template <typename T>
void AppendCodes(std::vector<T>* out, const Value* values, int64_t n,
                 Value ref) {
  const size_t base = out->size();
  out->resize(base + static_cast<size_t>(n));
  T* codes = out->data() + base;
  for (int64_t i = 0; i < n; ++i) {
    codes[i] = static_cast<T>(static_cast<uint64_t>(values[i]) -
                              static_cast<uint64_t>(ref));
  }
}

template <typename T>
void DecodeCodes(const T* codes, int64_t n, Value ref, Value* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<Value>(static_cast<uint64_t>(ref) +
                                static_cast<uint64_t>(codes[i]));
  }
}

template <typename T>
void PutCodeArray(BinaryWriter* writer, const std::vector<T>& codes) {
  // Raw little-endian payload (the writer's documented byte order); codes
  // are already the compact representation, so no further transform.
  writer->PutString(std::string_view(
      reinterpret_cast<const char*>(codes.data()), codes.size() * sizeof(T)));
}

template <typename T>
bool GetCodeArray(BinaryReader* reader, uint64_t expected_elems,
                  std::vector<T>* out) {
  std::string bytes = reader->GetString();
  if (!reader->ok() || bytes.size() != expected_elems * sizeof(T)) {
    reader->MarkCorrupt();
    return false;
  }
  out->resize(expected_elems);
  if (expected_elems > 0) {
    std::memcpy(out->data(), bytes.data(), bytes.size());
  }
  return true;
}

}  // namespace

void EncodedColumn::Encode(const std::vector<Value>& values, bool narrow) {
#if defined(TSUNAMI_DISABLE_ENCODING)
  narrow = false;  // Build-level kill switch: raw blocks only.
#endif
  rows_ = static_cast<int64_t>(values.size());
  widths_.clear();
  refs_.clear();
  offsets_.clear();
  codes8_.clear();
  codes16_.clear();
  codes32_.clear();
  raw_.clear();
  const int64_t num_blocks = (rows_ + kScanBlockRows - 1) / kScanBlockRows;
  widths_.reserve(num_blocks);
  refs_.reserve(num_blocks);
  offsets_.reserve(num_blocks);
  // Pass 1 picks every block's codec; pass 2 writes the codes into
  // payloads reserved at their exact final sizes, so encoding leaves no
  // outgrown buffers behind and no slack capacity in the column.
  int64_t payload_rows[4] = {0, 0, 0, 0};  // Widths 1, 2, 4, 8.
  for (int64_t b = 0; b < num_blocks; ++b) {
    const int64_t lo = b * kScanBlockRows;
    const int64_t n = std::min(rows_, lo + kScanBlockRows) - lo;
    const Value* block = values.data() + lo;
    Value mn = block[0], mx = block[0];
    for (int64_t i = 1; i < n; ++i) {
      mn = block[i] < mn ? block[i] : mn;
      mx = block[i] > mx ? block[i] : mx;
    }
    // uint64 difference is the exact non-negative spread even when the
    // block straddles the int64 range.
    const uint64_t range =
        static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
    int width = 8;
    if (narrow) {
      width = range <= CodeDomainMax(1)   ? 1
              : range <= CodeDomainMax(2) ? 2
              : range <= CodeDomainMax(4) ? 4
                                          : 8;
    }
    widths_.push_back(static_cast<uint8_t>(width));
    refs_.push_back(width == 8 ? 0 : mn);
    payload_rows[width == 1 ? 0 : width == 2 ? 1 : width == 4 ? 2 : 3] += n;
  }
  codes8_.reserve(payload_rows[0]);
  codes16_.reserve(payload_rows[1]);
  codes32_.reserve(payload_rows[2]);
  raw_.reserve(payload_rows[3]);
  for (int64_t b = 0; b < num_blocks; ++b) {
    const int64_t lo = b * kScanBlockRows;
    const int64_t n = std::min(rows_, lo + kScanBlockRows) - lo;
    const Value* block = values.data() + lo;
    switch (widths_[b]) {
      case 1:
        offsets_.push_back(codes8_.size());
        AppendCodes(&codes8_, block, n, refs_[b]);
        break;
      case 2:
        offsets_.push_back(codes16_.size());
        AppendCodes(&codes16_, block, n, refs_[b]);
        break;
      case 4:
        offsets_.push_back(codes32_.size());
        AppendCodes(&codes32_, block, n, refs_[b]);
        break;
      default:
        offsets_.push_back(raw_.size());
        raw_.insert(raw_.end(), block, block + n);
        break;
    }
  }
  checksums_.resize(num_blocks);
  for (int64_t b = 0; b < num_blocks; ++b) {
    checksums_[b] = ComputeBlockChecksum(b);
  }
  // Freshly encoded blocks are trivially verified: the checksum was just
  // computed from the bytes it covers.
  ResetIntegrity(kIntegrityVerified);
}

uint64_t EncodedColumn::ComputeBlockChecksum(int64_t b) const {
  const BlockView v = block(b);
  const size_t bytes =
      static_cast<size_t>(BlockRowCount(b)) * static_cast<size_t>(v.width);
  // Seed folds the codec (width + frame of reference) into the hash, so a
  // corrupted codec byte is as detectable as a corrupted code.
  const uint64_t seed =
      static_cast<uint64_t>(v.width) * 0x9E3779B97F4A7C15ull ^
      static_cast<uint64_t>(v.ref);
  return XxHash64(
      std::string_view(static_cast<const char*>(v.codes), bytes), seed);
}

void EncodedColumn::ResetIntegrity(uint8_t state) {
  integrity_.assign(static_cast<size_t>(num_blocks()), AtomicState(state));
  unverified_left_.v.store(
      state == kIntegrityUnverified ? num_blocks() : 0,
      std::memory_order_relaxed);
  quarantined_.v.store(0, std::memory_order_relaxed);
}

bool EncodedColumn::EnsureReadableSlow(int64_t b) const {
  uint8_t state = integrity_[b].v.load(std::memory_order_acquire);
  if (state == kIntegrityVerified) return true;
  if (state == kIntegrityQuarantined) return false;
  uint64_t computed = ComputeBlockChecksum(b);
  // Fault site: pretend block b's bytes hash wrong, driving the quarantine
  // path deterministically without actually corrupting memory.
  if (TSUNAMI_FAULT_FIRES("storage.checksum", b)) computed ^= 1;
  const uint8_t next = computed == checksums_[b] ? kIntegrityVerified
                                                 : kIntegrityQuarantined;
  uint8_t expected = kIntegrityUnverified;
  if (integrity_[b].v.compare_exchange_strong(expected, next,
                                              std::memory_order_acq_rel)) {
    unverified_left_.v.fetch_sub(1, std::memory_order_relaxed);
    if (next == kIntegrityQuarantined) {
      quarantined_.v.fetch_add(1, std::memory_order_relaxed);
    }
    return next == kIntegrityVerified;
  }
  // Another thread settled the block first; its verdict stands.
  return expected == kIntegrityVerified;
}

bool EncodedColumn::VerifyAll() const {
  for (int64_t b = 0; b < num_blocks(); ++b) EnsureReadableSlow(b);
  return quarantined_blocks() == 0;
}

bool EncodedColumn::ScrubBlock(int64_t b) const {
  const uint8_t state = integrity_[b].v.load(std::memory_order_acquire);
  if (state == kIntegrityQuarantined) return false;
  uint64_t computed = ComputeBlockChecksum(b);
  // Fault site: the scrubber observes a rotted bit in block b without
  // actually corrupting memory (deterministic soak/test hook).
  if (TSUNAMI_FAULT_FIRES("scrub.corrupt_block", b)) computed ^= 1;
  if (computed != checksums_[b]) {
    Quarantine(b);
    return false;
  }
  if (state == kIntegrityUnverified) {
    uint8_t expected = kIntegrityUnverified;
    if (integrity_[b].v.compare_exchange_strong(expected, kIntegrityVerified,
                                                std::memory_order_acq_rel)) {
      unverified_left_.v.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  return true;
}

void EncodedColumn::Quarantine(int64_t b) const {
  const uint8_t prev =
      integrity_[b].v.exchange(kIntegrityQuarantined,
                               std::memory_order_acq_rel);
  if (prev == kIntegrityQuarantined) return;
  if (prev == kIntegrityUnverified) {
    unverified_left_.v.fetch_sub(1, std::memory_order_relaxed);
  }
  quarantined_.v.fetch_add(1, std::memory_order_relaxed);
}

void EncodedColumn::MarkAllUnverified() const {
  int64_t unverified = 0;
  for (int64_t b = 0; b < num_blocks(); ++b) {
    if (integrity_[b].v.load(std::memory_order_relaxed) ==
        kIntegrityQuarantined) {
      continue;  // Quarantine sticks until an explicit repair.
    }
    integrity_[b].v.store(kIntegrityUnverified, std::memory_order_relaxed);
    ++unverified;
  }
  unverified_left_.v.store(unverified, std::memory_order_release);
}

bool EncodedColumn::RepairBlock(int64_t b, const Value* values, int64_t n) {
  if (b < 0 || b >= num_blocks() || n != BlockRowCount(b)) return false;
  Value mn = values[0], mx = values[0];
  for (int64_t i = 1; i < n; ++i) {
    mn = values[i] < mn ? values[i] : mn;
    mx = values[i] > mx ? values[i] : mx;
  }
  const uint64_t range =
      static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
  const int width = widths_[b];
  if (width < 8 && range > CodeDomainMax(width)) {
    return false;  // In-place repair cannot widen the block's code array.
  }
  const uint64_t off = offsets_[b];
  switch (width) {
    case 1:
      refs_[b] = mn;
      for (int64_t i = 0; i < n; ++i) {
        codes8_[off + i] = static_cast<uint8_t>(
            static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(mn));
      }
      break;
    case 2:
      refs_[b] = mn;
      for (int64_t i = 0; i < n; ++i) {
        codes16_[off + i] = static_cast<uint16_t>(
            static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(mn));
      }
      break;
    case 4:
      refs_[b] = mn;
      for (int64_t i = 0; i < n; ++i) {
        codes32_[off + i] = static_cast<uint32_t>(
            static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(mn));
      }
      break;
    default:
      std::copy_n(values, n, raw_.data() + off);
      break;
  }
  checksums_[b] = ComputeBlockChecksum(b);
  const uint8_t prev =
      integrity_[b].v.exchange(kIntegrityVerified, std::memory_order_acq_rel);
  if (prev == kIntegrityQuarantined) {
    quarantined_.v.fetch_sub(1, std::memory_order_relaxed);
  } else if (prev == kIntegrityUnverified) {
    unverified_left_.v.fetch_sub(1, std::memory_order_relaxed);
  }
  return true;
}

void EncodedColumn::Decode(int64_t begin, int64_t end, Value* out) const {
  while (begin < end) {
    const int64_t b = begin / kScanBlockRows;
    const int64_t block_end = std::min(end, (b + 1) * kScanBlockRows);
    const int64_t n = block_end - begin;
    const uint64_t i =
        offsets_[b] + static_cast<uint64_t>(begin % kScanBlockRows);
    switch (widths_[b]) {
      case 1:
        DecodeCodes(codes8_.data() + i, n, refs_[b], out);
        break;
      case 2:
        DecodeCodes(codes16_.data() + i, n, refs_[b], out);
        break;
      case 4:
        DecodeCodes(codes32_.data() + i, n, refs_[b], out);
        break;
      default:
        std::copy_n(raw_.data() + i, n, out);
        break;
    }
    out += n;
    begin = block_end;
  }
}

std::vector<Value> EncodedColumn::DecodeAll() const {
  std::vector<Value> out(rows_);
  if (rows_ > 0) Decode(0, rows_, out.data());
  return out;
}

int64_t EncodedColumn::SizeBytes() const {
  const int64_t payload = static_cast<int64_t>(
      codes8_.size() * sizeof(uint8_t) + codes16_.size() * sizeof(uint16_t) +
      codes32_.size() * sizeof(uint32_t) + raw_.size() * sizeof(Value));
  const int64_t metadata =
      num_blocks() * static_cast<int64_t>(sizeof(uint8_t) + sizeof(Value) +
                                          sizeof(uint64_t));
  return payload + metadata;
}

void EncodedColumn::WidthHistogram(int64_t counts[4]) const {
  for (uint8_t w : widths_) {
    switch (w) {
      case 1:
        ++counts[0];
        break;
      case 2:
        ++counts[1];
        break;
      case 4:
        ++counts[2];
        break;
      default:
        ++counts[3];
        break;
    }
  }
}

void EncodedColumn::Serialize(BinaryWriter* writer) const {
  writer->PutVarI64(rows_);
  for (size_t b = 0; b < widths_.size(); ++b) {
    writer->PutU8(widths_[b]);
    writer->PutVarI64(refs_[b]);
  }
  PutCodeArray(writer, codes8_);
  PutCodeArray(writer, codes16_);
  PutCodeArray(writer, codes32_);
  // Raw fallback blocks delta-varint encode (clustered columns are locally
  // smooth, so deltas stay in the one- or two-byte range) — this keeps the
  // narrowing-disabled configuration's snapshots compact too.
  writer->PutVarU64(raw_.size());
  Value prev = 0;
  for (Value v : raw_) {
    // Deltas wrap modulo 2^64 (raw blocks hold values spanning the int64
    // range); Deserialize's wrapping add inverts them exactly.
    writer->PutVarI64(static_cast<Value>(static_cast<uint64_t>(v) -
                                         static_cast<uint64_t>(prev)));
    prev = v;
  }
  // Format v3: per-block checksums ride at the tail so v2 layouts are a
  // strict prefix of v3 layouts.
  for (uint64_t checksum : checksums_) writer->PutFixed64(checksum);
}

bool EncodedColumn::Deserialize(BinaryReader* reader) {
  rows_ = reader->GetVarI64();
  if (!reader->ok() || rows_ < 0 ||
      static_cast<uint64_t>(rows_) > reader->remaining() * kScanBlockRows) {
    reader->MarkCorrupt();
    return false;
  }
  const int64_t num_blocks = (rows_ + kScanBlockRows - 1) / kScanBlockRows;
  widths_.assign(num_blocks, 0);
  refs_.assign(num_blocks, 0);
  offsets_.assign(num_blocks, 0);
  uint64_t elems[4] = {0, 0, 0, 0};  // Per width class: 1, 2, 4, 8 bytes.
  for (int64_t b = 0; b < num_blocks; ++b) {
    const uint8_t width = reader->GetU8();
    const Value ref = reader->GetVarI64();
    int cls;
    switch (width) {
      case 1:
        cls = 0;
        break;
      case 2:
        cls = 1;
        break;
      case 4:
        cls = 2;
        break;
      case 8:
        cls = 3;
        break;
      default:
        reader->MarkCorrupt();
        return false;
    }
    widths_[b] = width;
    refs_[b] = width == 8 ? 0 : ref;
    offsets_[b] = elems[cls];
    const int64_t lo = b * kScanBlockRows;
    elems[cls] +=
        static_cast<uint64_t>(std::min(rows_, lo + kScanBlockRows) - lo);
  }
  if (!reader->ok() || !GetCodeArray(reader, elems[0], &codes8_) ||
      !GetCodeArray(reader, elems[1], &codes16_) ||
      !GetCodeArray(reader, elems[2], &codes32_)) {
    return false;
  }
  const uint64_t raw_elems = reader->GetVarU64();
  if (!reader->ok() || raw_elems != elems[3] ||
      raw_elems > reader->remaining()) {
    reader->MarkCorrupt();
    return false;
  }
  raw_.resize(raw_elems);
  Value prev = 0;
  for (uint64_t i = 0; i < raw_elems; ++i) {
    prev = WrappingAdd(prev, reader->GetVarI64());
    raw_[i] = prev;
  }
  if (!reader->ok()) return false;
  checksums_.resize(num_blocks);
  if (reader->version() >= 3) {
    for (int64_t b = 0; b < num_blocks; ++b) {
      checksums_[b] = reader->GetFixed64();
    }
    if (!reader->ok()) return false;
    // Verify everything now; a mismatch quarantines the block (scans skip
    // it and report degraded results) rather than failing the load.
    ResetIntegrity(kIntegrityUnverified);
    VerifyAll();
  } else {
    // v2 payload: no stored checksums. Recompute from bytes the frame CRC
    // already validated; the blocks are trivially verified.
    ResetIntegrity(kIntegrityVerified);
    for (int64_t b = 0; b < num_blocks; ++b) {
      checksums_[b] = ComputeBlockChecksum(b);
    }
  }
  return reader->ok();
}

}  // namespace tsunami
