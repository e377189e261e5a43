// Per-block lightweight column encoding (the compressed-execution layer):
// each kScanBlockRows-row block of a column picks a codec at build time —
// frame-of-reference (the block minimum) plus bit-width narrowing to
// 8/16/32-bit unsigned codes, falling back to raw 64-bit storage when the
// block's value range does not fit 32 bits. Dictionary-coded string columns
// (dense codes, §6.1) flow through the same path and narrow especially
// well. Decoding is a single add (value = ref + code), so predicates are
// evaluated *on the codes*: query bounds are translated once per block into
// code space (TranslateToCodeSpace) and the scan kernel's predicate
// compares, which AND into a per-block row mask, run on 2-8x more values
// per SIMD vector while touching 2-8x fewer bytes; aggregates fold codes
// under that mask and lift the fold into value space.
//
// Every block additionally carries an XxHash64 checksum (computed at encode
// time, persisted as format v3). A block that fails verification — at load,
// or lazily on first scan touch — is *quarantined*, not fatal: scans skip it
// and flag their result degraded (QueryResult::degraded), and Tsunami can
// re-materialize a quarantined block from its fold backup when possible.
#ifndef TSUNAMI_STORAGE_ENCODED_COLUMN_H_
#define TSUNAMI_STORAGE_ENCODED_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/io/serializer.h"

namespace tsunami {

/// Rows per column block (shared with the zone maps: block b covers rows
/// [b * kScanBlockRows, (b+1) * kScanBlockRows), the last block truncated).
/// Small enough that a block's columns stay cache resident across the
/// predicate passes, large enough to amortize per-block bookkeeping.
inline constexpr int64_t kScanBlockRows = 1024;

/// Largest code value representable in `width` bytes (the code domain).
constexpr uint64_t CodeDomainMax(int width) {
  return width >= 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * width)) - 1;
}

/// A value-space predicate [lo, hi] translated into one block's code space.
/// kEmpty: no code in the block's domain can satisfy the predicate (the
/// whole block is skipped without reading a code). kAll: every code in the
/// domain satisfies it (the pass is the identity and is skipped). kCompare:
/// run the width's mask compare with the inclusive code bounds [lo, hi].
struct CodeRange {
  enum State { kEmpty, kAll, kCompare };
  State state = kCompare;
  uint64_t lo = 0;
  uint64_t hi = 0;
};

/// Translates the value-space predicate [lo, hi] into the code space of a
/// block with frame-of-reference `ref` and code-domain max `wmax`
/// (CodeDomainMax of the block's width). Codes are unsigned offsets from
/// `ref`, so lo <= ref + c <= hi becomes max(lo - ref, 0) <= c <=
/// min(hi - ref, wmax) — computed in uint64 so predicates at the Value
/// extremes cannot overflow. Requires lo <= hi and a narrow width
/// (wmax < 2^64); raw blocks compare values directly, untranslated.
inline CodeRange TranslateToCodeSpace(Value lo, Value hi, Value ref,
                                      uint64_t wmax) {
  if (hi < ref) return {CodeRange::kEmpty, 0, 0};
  // hi >= ref, so the uint64 differences below are exact non-negative
  // offsets even when the operands straddle the int64 range.
  uint64_t uhi = static_cast<uint64_t>(hi) - static_cast<uint64_t>(ref);
  uint64_t ulo = lo <= ref
                     ? 0
                     : static_cast<uint64_t>(lo) - static_cast<uint64_t>(ref);
  if (ulo > wmax) return {CodeRange::kEmpty, 0, 0};
  if (uhi >= wmax) uhi = wmax;
  if (ulo == 0 && uhi == wmax) return {CodeRange::kAll, 0, wmax};
  return {CodeRange::kCompare, ulo, uhi};
}

/// True unless narrowing is disabled for this build
/// (-DTSUNAMI_DISABLE_ENCODING=ON) or process (the TSUNAMI_DISABLE_ENCODING
/// environment variable, CI's raw-block escape hatch); cached after the
/// first call. Benches override per store via the ColumnStore constructors.
bool EncodingEnabledByDefault();

/// One column stored as per-block codes. Blocks of one width live
/// back-to-back in that width's typed array (offsets_ holds each block's
/// element offset), so a block's codes are always contiguous and typed —
/// no byte-buffer aliasing.
class EncodedColumn {
 public:
  /// A resolved view of one block: `codes` points at the block's first
  /// code, typed by `width` (uint8_t/uint16_t/uint32_t for 1/2/4, Value
  /// for 8). value = ref + code for narrow widths; raw blocks store values
  /// directly (ref is 0).
  struct BlockView {
    const void* codes = nullptr;
    Value ref = 0;
    int width = 8;
  };

  EncodedColumn() = default;

  /// Builds the encoded form of `values`. `narrow` = false pins every
  /// block to raw 64-bit storage (the TSUNAMI_DISABLE_ENCODING path and
  /// the benches' A/B baseline); decoding is unaffected, so stores built
  /// either way serve the same API.
  void Encode(const std::vector<Value>& values, bool narrow);

  int64_t rows() const { return rows_; }
  int64_t num_blocks() const { return static_cast<int64_t>(widths_.size()); }

  Value Get(int64_t row) const {
    const int64_t b = row / kScanBlockRows;
    const uint64_t i =
        offsets_[b] + static_cast<uint64_t>(row % kScanBlockRows);
    switch (widths_[b]) {
      case 1:
        return Decoded(refs_[b], codes8_[i]);
      case 2:
        return Decoded(refs_[b], codes16_[i]);
      case 4:
        return Decoded(refs_[b], codes32_[i]);
      default:
        return raw_[i];
    }
  }

  /// Decodes rows [begin, end) into `out` (out[i] = value of row begin+i).
  void Decode(int64_t begin, int64_t end, Value* out) const;

  /// The whole column, decoded. Build-time helper; O(rows) and allocates.
  std::vector<Value> DecodeAll() const;

  BlockView block(int64_t b) const {
    const uint64_t off = offsets_[b];
    switch (widths_[b]) {
      case 1:
        return {codes8_.data() + off, refs_[b], 1};
      case 2:
        return {codes16_.data() + off, refs_[b], 2};
      case 4:
        return {codes32_.data() + off, refs_[b], 4};
      default:
        return {raw_.data() + off, 0, 8};
    }
  }

  /// Bytes actually held: code payloads plus per-block codec metadata
  /// (width byte, frame of reference, offset).
  int64_t SizeBytes() const;

  /// counts[0..3] += number of blocks stored at 1/2/4/8 bytes per code.
  void WidthHistogram(int64_t counts[4]) const;

  /// Persistence: codecs and code payloads round-trip verbatim (the store
  /// is *stored* encoded; nothing re-derives widths on load). Format v3
  /// appends the per-block checksums; Deserialize of a v2 payload (see
  /// BinaryReader::version) recomputes them — the frame CRC already
  /// validated those bytes. Deserialize verifies every block, quarantining
  /// (not failing on) checksum mismatches.
  void Serialize(BinaryWriter* writer) const;
  bool Deserialize(BinaryReader* reader);

  // ---- Block integrity -------------------------------------------------
  //
  // Integrity state is lazily-maintained, thread-safe *metadata* over the
  // immutable code payload, so the mutators below are const: scans (const)
  // verify blocks on first touch. The fast path — everything verified,
  // nothing quarantined — is two relaxed loads.

  /// True when block b's bytes may be read. Verifies the checksum on the
  /// block's first touch; a mismatch quarantines the block and returns
  /// false (the caller skips the block and flags its result degraded).
  bool EnsureReadable(int64_t b) const {
    return AllBlocksReadable() || EnsureReadableSlow(b);
  }

  /// True when every block is verified and none is quarantined, so every
  /// EnsureReadable call returns true (until a scrub quarantines a block).
  bool AllBlocksReadable() const {
    return unverified_left_.v.load(std::memory_order_relaxed) == 0 &&
           quarantined_.v.load(std::memory_order_relaxed) == 0;
  }

  bool IsQuarantined(int64_t b) const {
    return !integrity_.empty() &&
           integrity_[b].v.load(std::memory_order_acquire) ==
               kIntegrityQuarantined;
  }

  int64_t quarantined_blocks() const {
    return quarantined_.v.load(std::memory_order_relaxed);
  }

  /// Verifies every still-unverified block now (the eager load-time pass).
  /// Returns true when no block is quarantined afterwards.
  bool VerifyAll() const;

  /// Scrubber hook: recomputes block b's checksum even when the block was
  /// already verified (EnsureReadable hashes a block only once — a bit
  /// that rots *after* that first touch is invisible to it). A mismatch
  /// quarantines the block; a healthy unverified block is promoted to
  /// verified. Thread-safe against concurrent scans. False = the block is
  /// (now) quarantined. The `scrub.corrupt_block` fault site (arg = b)
  /// makes the recomputed hash mismatch without touching memory.
  bool ScrubBlock(int64_t b) const;

  /// Ops/test hook: marks block b quarantined as if its checksum failed.
  void Quarantine(int64_t b) const;

  /// Forgets verification state so every healthy block re-verifies on its
  /// next touch (a scrubber pass; also how tests exercise lazy detection
  /// of in-memory corruption). Not safe concurrent with scans.
  void MarkAllUnverified() const;

  /// Re-encodes block b in place from `values` (exactly the block's row
  /// count), clearing quarantine and recomputing the checksum. Fails when
  /// the replacement data no longer fits the block's stored code width
  /// (in-place repair cannot grow the typed arrays).
  bool RepairBlock(int64_t b, const Value* values, int64_t n);

  uint64_t block_checksum(int64_t b) const { return checksums_[b]; }

 private:
  enum : uint8_t {
    kIntegrityVerified = 0,
    kIntegrityUnverified = 1,
    kIntegrityQuarantined = 2,
  };

  // Copyable atomic wrappers so EncodedColumn keeps value semantics.
  // Copying is only meaningful while the source is quiescent (build/load
  // time), like copying the vectors themselves.
  struct AtomicState {
    std::atomic<uint8_t> v{kIntegrityVerified};
    AtomicState() = default;
    explicit AtomicState(uint8_t s) : v(s) {}
    AtomicState(const AtomicState& o)
        : v(o.v.load(std::memory_order_relaxed)) {}
    AtomicState& operator=(const AtomicState& o) {
      v.store(o.v.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
      return *this;
    }
  };
  struct AtomicCount {
    std::atomic<int64_t> v{0};
    AtomicCount() = default;
    AtomicCount(const AtomicCount& o)
        : v(o.v.load(std::memory_order_relaxed)) {}
    AtomicCount& operator=(const AtomicCount& o) {
      v.store(o.v.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
      return *this;
    }
  };

  static Value Decoded(Value ref, uint64_t code) {
    return static_cast<Value>(static_cast<uint64_t>(ref) + code);
  }

  int64_t BlockRowCount(int64_t b) const {
    const int64_t lo = b * kScanBlockRows;
    const int64_t hi = lo + kScanBlockRows;
    return (hi < rows_ ? hi : rows_) - lo;
  }

  uint64_t ComputeBlockChecksum(int64_t b) const;
  bool EnsureReadableSlow(int64_t b) const;
  /// Resets integrity bookkeeping after (re-)building block metadata.
  void ResetIntegrity(uint8_t state);

  int64_t rows_ = 0;
  std::vector<uint8_t> widths_;    // Bytes per code, per block: 1, 2, 4, 8.
  std::vector<Value> refs_;        // Frame of reference per block (raw: 0).
  std::vector<uint64_t> offsets_;  // Element offset into the width's array.
  std::vector<uint8_t> codes8_;
  std::vector<uint16_t> codes16_;
  std::vector<uint32_t> codes32_;
  std::vector<Value> raw_;
  std::vector<uint64_t> checksums_;  // XxHash64 per block (codes+codec).
  mutable std::vector<AtomicState> integrity_;  // Per-block 3-state.
  mutable AtomicCount unverified_left_;  // Blocks still to verify lazily.
  mutable AtomicCount quarantined_;      // Blocks failed + quarantined.
};

}  // namespace tsunami

#endif  // TSUNAMI_STORAGE_ENCODED_COLUMN_H_
