// The scan kernel's SIMD seam: every data-parallel inner loop the kernel
// runs (predicate compares ANDed into a block's row bitmask, and masked
// sum/min/max folds of one column's codes, which also build the zone maps)
// is reached through this table of function pointers, so one kernel body
// serves every instruction-set tier. Each tier lives in its own
// translation unit compiled with that tier's arch flags; a tier that was
// not compiled (wrong architecture, TSUNAMI_DISABLE_SIMD) exposes a null
// accessor and the dispatcher falls back to the portable table.
//
// Every implementation must be bit-for-bit equivalent to the portable
// table: uint64 addition is associative modulo 2^64 and min/max are
// associative, so lane-parallel partials reduce to identical results in
// any order.
#ifndef TSUNAMI_STORAGE_SCAN_KERNEL_SIMD_H_
#define TSUNAMI_STORAGE_SCAN_KERNEL_SIMD_H_

#include <cstdint>

#include "src/common/types.h"
#include "src/storage/encoded_column.h"

namespace tsunami {

/// Words in one block's row bitmask: bit i % 64 of word i / 64 is row i of
/// the block slice being scanned.
inline constexpr int kMaskWords = kScanBlockRows / 64;

/// A word with its low `n` bits set, n in [0, 64] (a plain shift by 64 is
/// undefined).
constexpr uint64_t LowBits(int n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

/// Sum, min and max of one column's codes (or raw values) over the rows a
/// mask selects. The sum wraps modulo 2^64. An empty selection folds to
/// the identities: sum 0, min the width's largest code (INT64_MAX for raw
/// values), max its smallest (0 for codes, INT64_MIN for raw values).
struct CodeFold {
  uint64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;

  bool operator==(const CodeFold&) const = default;
};

/// Inner-loop implementations for one instruction-set tier. Code and value
/// pointers are unaligned; `count` is in [0, kScanBlockRows], and `mask`
/// points at kMaskWords words.
struct SimdOps {
  const char* name;

  /// For the rows i < count, clears mask bit i unless lo <= codes[i] <= hi;
  /// also clears every bit at or past `count` in the words it covers
  /// ([0, ceil(count / 64))), and leaves later words alone. Returns the
  /// number of bits still set in the covered words: the rows still
  /// selected, counted here because the SIMD tiers have a hardware
  /// popcount. Narrow widths compare unsigned codes against bounds already
  /// translated into code space (TranslateToCodeSpace); raw values compare
  /// signed. lo > hi matches nothing. Reads no code past `count`.
  int (*and_mask_u8)(const uint8_t* codes, int count, uint8_t lo, uint8_t hi,
                     uint64_t* mask);
  int (*and_mask_u16)(const uint16_t* codes, int count, uint16_t lo,
                      uint16_t hi, uint64_t* mask);
  int (*and_mask_u32)(const uint32_t* codes, int count, uint32_t lo,
                      uint32_t hi, uint64_t* mask);
  int (*and_mask_i64)(const Value* values, int count, Value lo, Value hi,
                      uint64_t* mask);

  /// Folds codes[i] over the rows i < count whose mask bit is set; a null
  /// mask selects every row. Bits at or past `count` must be clear.
  CodeFold (*fold_u8)(const uint8_t* codes, int count, const uint64_t* mask);
  CodeFold (*fold_u16)(const uint16_t* codes, int count,
                       const uint64_t* mask);
  CodeFold (*fold_u32)(const uint32_t* codes, int count,
                       const uint64_t* mask);
  CodeFold (*fold_i64)(const Value* values, int count, const uint64_t* mask);
};

/// The portable table (SimdTier::kNone); always available.
const SimdOps& ScalarSimdOps();

/// Per-tier tables; null when the tier was not compiled into this binary.
/// Callers must additionally check CPU support (SimdTierSupported) before
/// using a non-null x86 table.
const SimdOps* Avx2SimdOps();
const SimdOps* Avx512SimdOps();
const SimdOps* NeonSimdOps();

}  // namespace tsunami

#endif  // TSUNAMI_STORAGE_SCAN_KERNEL_SIMD_H_
