// NEON tier (AArch64): 2 x int64 lanes on raw values, 16/8/4 x uint8/16/32
// lanes on FOR-encoded code blocks. NEON is baseline on AArch64, so this
// TU needs no special arch flags — it simply compiles empty on other
// architectures. Contiguous passes (predicate compare, run folds, zone-map
// stats) are vectorized; the 64-bit compares (vcgeq_s64/vcleq_s64) are
// A64-only, hence the __aarch64__ guard. The narrow first passes compare a
// full vector of codes and fold the lane masks to a scalar bitmask with
// the vshrn-by-4 narrowing trick, then emit indices branchlessly per lane.
// Gathered (selection-driven) passes and the narrow refines point straight
// at the shared scalar_ops loops: at these lane counts a software gather
// costs more than the loads it replaces, and reusing the reference
// implementations keeps the tiers drift-proof by construction.
#include "src/storage/scan_kernel_simd.h"

#if defined(__aarch64__) && defined(__ARM_NEON) && \
    !defined(TSUNAMI_DISABLE_SIMD)

#include <arm_neon.h>

namespace tsunami {

namespace {

inline int64x2_t Min64(int64x2_t a, int64x2_t b) {
  return vbslq_s64(vcgtq_s64(a, b), b, a);  // Where a > b, take b.
}

inline int64x2_t Max64(int64x2_t a, int64x2_t b) {
  return vbslq_s64(vcgtq_s64(b, a), b, a);  // Where b > a, take b.
}

int NeonFirstPass(const Value* col, int count, Value lo, Value hi,
                  uint32_t* sel) {
  const int64x2_t vlo = vdupq_n_s64(lo);
  const int64x2_t vhi = vdupq_n_s64(hi);
  int n = 0;
  int i = 0;
  for (; i + 2 <= count; i += 2) {
    int64x2_t v = vld1q_s64(col + i);
    uint64x2_t ok = vandq_u64(vcgeq_s64(v, vlo), vcleq_s64(v, vhi));
    sel[n] = static_cast<uint32_t>(i);
    n += static_cast<int>(vgetq_lane_u64(ok, 0) & 1);
    sel[n] = static_cast<uint32_t>(i + 1);
    n += static_cast<int>(vgetq_lane_u64(ok, 1) & 1);
  }
  for (; i < count; ++i) {
    sel[n] = static_cast<uint32_t>(i);
    n += static_cast<int>((col[i] >= lo) & (col[i] <= hi));
  }
  return n;
}

int NeonFirstPassU8(const uint8_t* codes, int count, uint8_t lo, uint8_t hi,
                    uint32_t* sel) {
  const uint8x16_t vlo = vdupq_n_u8(lo);
  const uint8x16_t vhi = vdupq_n_u8(hi);
  int n = 0;
  int i = 0;
  for (; i + 16 <= count; i += 16) {
    uint8x16_t v = vld1q_u8(codes + i);
    uint8x16_t ok = vandq_u8(vcgeq_u8(v, vlo), vcleq_u8(v, vhi));
    // Narrow each byte's 0xFF/0x00 mask to a nibble: 4 bits per lane in m.
    uint64_t m = vget_lane_u64(
        vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(ok), 4)), 0);
    if (m == 0) continue;
    for (int k = 0; k < 16; ++k) {
      sel[n] = static_cast<uint32_t>(i + k);
      n += static_cast<int>((m >> (4 * k)) & 1);
    }
  }
  for (; i < count; ++i) {
    sel[n] = static_cast<uint32_t>(i);
    n += static_cast<int>((codes[i] >= lo) & (codes[i] <= hi));
  }
  return n;
}

int NeonFirstPassU16(const uint16_t* codes, int count, uint16_t lo,
                     uint16_t hi, uint32_t* sel) {
  const uint16x8_t vlo = vdupq_n_u16(lo);
  const uint16x8_t vhi = vdupq_n_u16(hi);
  int n = 0;
  int i = 0;
  for (; i + 8 <= count; i += 8) {
    uint16x8_t v = vld1q_u16(codes + i);
    uint16x8_t ok = vandq_u16(vcgeq_u16(v, vlo), vcleq_u16(v, vhi));
    // Narrow each 16-bit 0xFFFF/0 mask to a byte: 8 bits per lane in m.
    uint64_t m = vget_lane_u64(vreinterpret_u64_u8(vshrn_n_u16(ok, 4)), 0);
    if (m == 0) continue;
    for (int k = 0; k < 8; ++k) {
      sel[n] = static_cast<uint32_t>(i + k);
      n += static_cast<int>((m >> (8 * k)) & 1);
    }
  }
  for (; i < count; ++i) {
    sel[n] = static_cast<uint32_t>(i);
    n += static_cast<int>((codes[i] >= lo) & (codes[i] <= hi));
  }
  return n;
}

int NeonFirstPassU32(const uint32_t* codes, int count, uint32_t lo,
                     uint32_t hi, uint32_t* sel) {
  const uint32x4_t vlo = vdupq_n_u32(lo);
  const uint32x4_t vhi = vdupq_n_u32(hi);
  int n = 0;
  int i = 0;
  for (; i + 4 <= count; i += 4) {
    uint32x4_t v = vld1q_u32(codes + i);
    uint32x4_t ok = vandq_u32(vcgeq_u32(v, vlo), vcleq_u32(v, vhi));
    sel[n] = static_cast<uint32_t>(i);
    n += static_cast<int>(vgetq_lane_u32(ok, 0) & 1);
    sel[n] = static_cast<uint32_t>(i + 1);
    n += static_cast<int>(vgetq_lane_u32(ok, 1) & 1);
    sel[n] = static_cast<uint32_t>(i + 2);
    n += static_cast<int>(vgetq_lane_u32(ok, 2) & 1);
    sel[n] = static_cast<uint32_t>(i + 3);
    n += static_cast<int>(vgetq_lane_u32(ok, 3) & 1);
  }
  for (; i < count; ++i) {
    sel[n] = static_cast<uint32_t>(i);
    n += static_cast<int>((codes[i] >= lo) & (codes[i] <= hi));
  }
  return n;
}

// Lane sum modulo 2^64; unsigned, so a wrapping sum is not UB.
inline uint64_t LaneSum(int64x2_t v) {
  return static_cast<uint64_t>(vgetq_lane_s64(v, 0)) +
         static_cast<uint64_t>(vgetq_lane_s64(v, 1));
}

int64_t NeonSumRange(const Value* col, int64_t n) {
  int64x2_t acc = vdupq_n_s64(0);
  int64_t r = 0;
  for (; r + 2 <= n; r += 2) acc = vaddq_s64(acc, vld1q_s64(col + r));
  uint64_t s = LaneSum(acc);
  for (; r < n; ++r) s += static_cast<uint64_t>(col[r]);
  return static_cast<int64_t>(s);
}

Value NeonMinRange(const Value* col, int64_t n) {
  Value m = col[0];
  int64_t r = 0;
  if (n >= 2) {
    int64x2_t acc = vdupq_n_s64(m);
    for (; r + 2 <= n; r += 2) acc = Min64(acc, vld1q_s64(col + r));
    Value a = vgetq_lane_s64(acc, 0), b = vgetq_lane_s64(acc, 1);
    m = a < b ? a : b;
  }
  for (; r < n; ++r) m = col[r] < m ? col[r] : m;
  return m;
}

Value NeonMaxRange(const Value* col, int64_t n) {
  Value m = col[0];
  int64_t r = 0;
  if (n >= 2) {
    int64x2_t acc = vdupq_n_s64(m);
    for (; r + 2 <= n; r += 2) acc = Max64(acc, vld1q_s64(col + r));
    Value a = vgetq_lane_s64(acc, 0), b = vgetq_lane_s64(acc, 1);
    m = a > b ? a : b;
  }
  for (; r < n; ++r) m = col[r] > m ? col[r] : m;
  return m;
}

void NeonBlockStats(const Value* col, int64_t n, Value* mn, Value* mx,
                    int64_t* sum) {
  Value lo = col[0], hi = col[0];
  uint64_t s = 0;
  int64_t r = 0;
  if (n >= 2) {
    int64x2_t vmin = vdupq_n_s64(lo);
    int64x2_t vmax = vmin;
    int64x2_t vsum = vdupq_n_s64(0);
    for (; r + 2 <= n; r += 2) {
      int64x2_t v = vld1q_s64(col + r);
      vmin = Min64(vmin, v);
      vmax = Max64(vmax, v);
      vsum = vaddq_s64(vsum, v);
    }
    Value a = vgetq_lane_s64(vmin, 0), b = vgetq_lane_s64(vmin, 1);
    lo = a < b ? a : b;
    a = vgetq_lane_s64(vmax, 0);
    b = vgetq_lane_s64(vmax, 1);
    hi = a > b ? a : b;
    s = LaneSum(vsum);
  }
  for (; r < n; ++r) {
    Value v = col[r];
    lo = v < lo ? v : lo;
    hi = v > hi ? v : hi;
    s += static_cast<uint64_t>(v);
  }
  *mn = lo;
  *mx = hi;
  *sum = static_cast<int64_t>(s);
}

constexpr SimdOps kNeonOps = {
    "neon",
    NeonFirstPass,
    scalar_ops::RefinePass,
    NeonFirstPassU8,
    NeonFirstPassU16,
    NeonFirstPassU32,
    scalar_ops::RefinePassU8,
    scalar_ops::RefinePassU16,
    scalar_ops::RefinePassU32,
    scalar_ops::SumGather,
    scalar_ops::MinGather,
    scalar_ops::MaxGather,
    NeonSumRange,
    NeonMinRange,
    NeonMaxRange,
    NeonBlockStats,
};

}  // namespace

const SimdOps* NeonSimdOps() { return &kNeonOps; }

}  // namespace tsunami

#else  // !__aarch64__ || TSUNAMI_DISABLE_SIMD

namespace tsunami {
const SimdOps* NeonSimdOps() { return nullptr; }
}  // namespace tsunami

#endif
