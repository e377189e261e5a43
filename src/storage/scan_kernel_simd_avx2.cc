// AVX2 tier: 4 x int64 lanes on raw values, and 32/16/8 x uint8/16/32
// lanes on FOR-encoded code blocks. Range predicates become two compares
// (signed for values; unsigned min/max + equality for codes) whose lane
// masks are folded to a movemask; the matching lanes' selection indices
// are compressed with a 16-entry byte-shuffle lookup table, one 4-index
// nibble group at a time (there is no integer compress instruction below
// AVX-512). A zero compare mask — the common case in selective scans —
// skips the whole emit, so the narrow passes track the smaller code
// footprint. Selection-driven aggregation uses vpgatherqq on the 32-bit
// selection indices. This TU is the only place compiled with -mavx2 (see
// CMakeLists.txt); everything here is reached strictly behind the runtime
// CPUID check in simd_dispatch.cc.
#include "src/storage/scan_kernel_simd.h"

#if defined(__AVX2__) && !defined(TSUNAMI_DISABLE_SIMD)

#include <immintrin.h>

namespace tsunami {

namespace {

// kCompress4[mask] is the _mm_shuffle_epi8 control that packs the uint32
// lanes whose mask bit is set to the front, in ascending lane order. The
// unused tail bytes are 0x80 (shuffle emits zeros there); those garbage
// lanes land below the next write cursor — the store at sel + n ends at
// sel[n + 3] <= sel[i + 3], inside the vector window just consumed — so
// they are overwritten or sit past the final count, never exposed.
#define TSUNAMI_LANE(x) 4 * (x), 4 * (x) + 1, 4 * (x) + 2, 4 * (x) + 3
#define TSUNAMI_ZERO 0x80, 0x80, 0x80, 0x80
alignas(16) constexpr uint8_t kCompress4[16][16] = {
    {TSUNAMI_ZERO, TSUNAMI_ZERO, TSUNAMI_ZERO, TSUNAMI_ZERO},
    {TSUNAMI_LANE(0), TSUNAMI_ZERO, TSUNAMI_ZERO, TSUNAMI_ZERO},
    {TSUNAMI_LANE(1), TSUNAMI_ZERO, TSUNAMI_ZERO, TSUNAMI_ZERO},
    {TSUNAMI_LANE(0), TSUNAMI_LANE(1), TSUNAMI_ZERO, TSUNAMI_ZERO},
    {TSUNAMI_LANE(2), TSUNAMI_ZERO, TSUNAMI_ZERO, TSUNAMI_ZERO},
    {TSUNAMI_LANE(0), TSUNAMI_LANE(2), TSUNAMI_ZERO, TSUNAMI_ZERO},
    {TSUNAMI_LANE(1), TSUNAMI_LANE(2), TSUNAMI_ZERO, TSUNAMI_ZERO},
    {TSUNAMI_LANE(0), TSUNAMI_LANE(1), TSUNAMI_LANE(2), TSUNAMI_ZERO},
    {TSUNAMI_LANE(3), TSUNAMI_ZERO, TSUNAMI_ZERO, TSUNAMI_ZERO},
    {TSUNAMI_LANE(0), TSUNAMI_LANE(3), TSUNAMI_ZERO, TSUNAMI_ZERO},
    {TSUNAMI_LANE(1), TSUNAMI_LANE(3), TSUNAMI_ZERO, TSUNAMI_ZERO},
    {TSUNAMI_LANE(0), TSUNAMI_LANE(1), TSUNAMI_LANE(3), TSUNAMI_ZERO},
    {TSUNAMI_LANE(2), TSUNAMI_LANE(3), TSUNAMI_ZERO, TSUNAMI_ZERO},
    {TSUNAMI_LANE(0), TSUNAMI_LANE(2), TSUNAMI_LANE(3), TSUNAMI_ZERO},
    {TSUNAMI_LANE(1), TSUNAMI_LANE(2), TSUNAMI_LANE(3), TSUNAMI_ZERO},
    {TSUNAMI_LANE(0), TSUNAMI_LANE(1), TSUNAMI_LANE(2), TSUNAMI_LANE(3)},
};
#undef TSUNAMI_LANE
#undef TSUNAMI_ZERO

inline const long long* AsLL(const Value* p) {
  return reinterpret_cast<const long long*>(p);
}

// 4-bit mask of lanes with lo <= v <= hi (bit i = lane i).
inline int InRangeMask(__m256i v, __m256i vlo, __m256i vhi) {
  __m256i below = _mm256_cmpgt_epi64(vlo, v);  // v < lo
  __m256i above = _mm256_cmpgt_epi64(v, vhi);  // v > hi
  __m256i out = _mm256_or_si256(below, above);
  return ~_mm256_movemask_pd(_mm256_castsi256_pd(out)) & 0xF;
}

// Lane sum modulo 2^64; unsigned, so a wrapping sum is not UB.
inline uint64_t HorizontalSum(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<uint64_t>(_mm_cvtsi128_si64(s)) +
         static_cast<uint64_t>(_mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)));
}

inline Value HorizontalMin(__m256i v) {
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  Value m = lanes[0];
  for (int i = 1; i < 4; ++i) m = lanes[i] < m ? lanes[i] : m;
  return m;
}

inline Value HorizontalMax(__m256i v) {
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  Value m = lanes[0];
  for (int i = 1; i < 4; ++i) m = lanes[i] > m ? lanes[i] : m;
  return m;
}

// a < b lanewise (signed); used to build min/max via blend.
inline __m256i Min64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}

inline __m256i Max64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(b, a));
}

int Avx2FirstPass(const Value* col, int count, Value lo, Value hi,
                  uint32_t* sel) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  __m128i idx = _mm_setr_epi32(0, 1, 2, 3);
  const __m128i step = _mm_set1_epi32(4);
  int n = 0;
  int i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + i));
    int mask = InRangeMask(v, vlo, vhi);
    __m128i packed = _mm_shuffle_epi8(
        idx, _mm_load_si128(reinterpret_cast<const __m128i*>(kCompress4[mask])));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sel + n), packed);
    n += __builtin_popcount(static_cast<unsigned>(mask));
    idx = _mm_add_epi32(idx, step);
  }
  for (; i < count; ++i) {
    sel[n] = static_cast<uint32_t>(i);
    n += static_cast<int>((col[i] >= lo) & (col[i] <= hi));
  }
  return n;
}

int Avx2RefinePass(const Value* col, uint32_t* sel, int n, Value lo,
                   Value hi) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  int m = 0;
  int j = 0;
  // In place is safe: m <= j holds throughout, so the 16-byte store at
  // sel + m ends at sel[m + 3] <= sel[j + 3], inside the window this
  // iteration already loaded — never in unread territory (the scalar tail
  // [n & ~3, n) included).
  for (; j + 4 <= n; j += 4) {
    __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + j));
    __m256i v = _mm256_i32gather_epi64(AsLL(col), idx, 8);
    int mask = InRangeMask(v, vlo, vhi);
    __m128i packed = _mm_shuffle_epi8(
        idx, _mm_load_si128(reinterpret_cast<const __m128i*>(kCompress4[mask])));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sel + m), packed);
    m += __builtin_popcount(static_cast<unsigned>(mask));
  }
  for (; j < n; ++j) {
    uint32_t i = sel[j];
    sel[m] = i;
    m += static_cast<int>((col[i] >= lo) & (col[i] <= hi));
  }
  return m;
}

// Emits the selection indices for a `bits`-wide compare mask (bit k = code
// base + k matches) through the 4-index shuffle LUT, nibble by nibble.
// Every group emits unconditionally: a per-nibble skip branch mispredicts
// badly at the 3-30% selectivities real refine chains produce, while the
// unconditional shuffle+store is a handful of cheap ops (callers still
// skip whole all-zero masks, which covers the highly selective case). The
// 16-byte store at sel + n is bounded by the same argument as the 64-bit
// passes: n <= base before the group, so the store ends inside the vector
// window just consumed.
inline int EmitMaskLut(uint32_t mask, int bits, int base, uint32_t* sel,
                       int n) {
  const __m128i iota = _mm_setr_epi32(0, 1, 2, 3);
  for (int g = 0; g < bits / 4; ++g, mask >>= 4) {
    const uint32_t nib = mask & 0xF;
    __m128i idx = _mm_add_epi32(_mm_set1_epi32(base + 4 * g), iota);
    __m128i packed = _mm_shuffle_epi8(
        idx, _mm_load_si128(reinterpret_cast<const __m128i*>(kCompress4[nib])));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sel + n), packed);
    n += __builtin_popcount(nib);
  }
  return n;
}

int Avx2FirstPassU8(const uint8_t* codes, int count, uint8_t lo, uint8_t hi,
                    uint32_t* sel) {
  const __m256i vlo = _mm256_set1_epi8(static_cast<char>(lo));
  const __m256i vhi = _mm256_set1_epi8(static_cast<char>(hi));
  int n = 0;
  int i = 0;
  for (; i + 32 <= count; i += 32) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
    // Unsigned range check: c >= lo <=> max(c, lo) == c, c <= hi <=>
    // min(c, hi) == c (AVX2 has no unsigned compare, but has epu8 min/max).
    __m256i ge = _mm256_cmpeq_epi8(_mm256_max_epu8(v, vlo), v);
    __m256i le = _mm256_cmpeq_epi8(_mm256_min_epu8(v, vhi), v);
    uint32_t mask = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_and_si256(ge, le)));
    if (mask == 0) continue;
    n = EmitMaskLut(mask, 32, i, sel, n);
  }
  for (; i < count; ++i) {
    sel[n] = static_cast<uint32_t>(i);
    n += static_cast<int>((codes[i] >= lo) & (codes[i] <= hi));
  }
  return n;
}

int Avx2FirstPassU16(const uint16_t* codes, int count, uint16_t lo,
                     uint16_t hi, uint32_t* sel) {
  const __m256i vlo = _mm256_set1_epi16(static_cast<short>(lo));
  const __m256i vhi = _mm256_set1_epi16(static_cast<short>(hi));
  int n = 0;
  int i = 0;
  for (; i + 16 <= count; i += 16) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
    __m256i ge = _mm256_cmpeq_epi16(_mm256_max_epu16(v, vlo), v);
    __m256i le = _mm256_cmpeq_epi16(_mm256_min_epu16(v, vhi), v);
    __m256i ok = _mm256_and_si256(ge, le);
    // One bit per 16-bit lane: saturate each lane to a byte (0xFFFF -> 0xFF,
    // 0 -> 0) and movemask. vpacksswb interleaves 128-bit halves, so lanes
    // 0-7 land in mask bits 0-7 and lanes 8-15 in bits 16-23.
    uint32_t m = static_cast<uint32_t>(_mm256_movemask_epi8(
        _mm256_packs_epi16(ok, _mm256_setzero_si256())));
    uint32_t mask = (m & 0xFFu) | ((m >> 8) & 0xFF00u);
    if (mask == 0) continue;
    n = EmitMaskLut(mask, 16, i, sel, n);
  }
  for (; i < count; ++i) {
    sel[n] = static_cast<uint32_t>(i);
    n += static_cast<int>((codes[i] >= lo) & (codes[i] <= hi));
  }
  return n;
}

// 8 x uint32 lanes: compare mask via the sign-bit movemask after the same
// unsigned min/max trick.
inline uint32_t InRangeMaskU32(__m256i v, __m256i vlo, __m256i vhi) {
  __m256i ge = _mm256_cmpeq_epi32(_mm256_max_epu32(v, vlo), v);
  __m256i le = _mm256_cmpeq_epi32(_mm256_min_epu32(v, vhi), v);
  return static_cast<uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_and_si256(ge, le))));
}

int Avx2FirstPassU32(const uint32_t* codes, int count, uint32_t lo,
                     uint32_t hi, uint32_t* sel) {
  const __m256i vlo = _mm256_set1_epi32(static_cast<int>(lo));
  const __m256i vhi = _mm256_set1_epi32(static_cast<int>(hi));
  int n = 0;
  int i = 0;
  for (; i + 8 <= count; i += 8) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
    uint32_t mask = InRangeMaskU32(v, vlo, vhi);
    if (mask == 0) continue;
    n = EmitMaskLut(mask, 8, i, sel, n);
  }
  for (; i < count; ++i) {
    sel[n] = static_cast<uint32_t>(i);
    n += static_cast<int>((codes[i] >= lo) & (codes[i] <= hi));
  }
  return n;
}

// 32-bit codes have vpgatherdd, so the refine pass stays lane-parallel;
// 8/16-bit refines fall back to the shared scalar loops (no hardware
// gather at those widths, and survivor counts are small).
int Avx2RefinePassU32(const uint32_t* codes, uint32_t* sel, int n,
                      uint32_t lo, uint32_t hi) {
  const __m256i vlo = _mm256_set1_epi32(static_cast<int>(lo));
  const __m256i vhi = _mm256_set1_epi32(static_cast<int>(hi));
  int m = 0;
  int j = 0;
  // In place is safe: m <= j throughout, so both nibble-group stores at
  // sel + m end inside the window this iteration already loaded.
  for (; j + 8 <= n; j += 8) {
    __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + j));
    __m256i v = _mm256_i32gather_epi32(reinterpret_cast<const int*>(codes),
                                       idx, 4);
    uint32_t mask = InRangeMaskU32(v, vlo, vhi);
    __m128i lo_idx = _mm256_castsi256_si128(idx);
    __m128i hi_idx = _mm256_extracti128_si256(idx, 1);
    __m128i packed_lo = _mm_shuffle_epi8(
        lo_idx, _mm_load_si128(
                    reinterpret_cast<const __m128i*>(kCompress4[mask & 0xF])));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sel + m), packed_lo);
    m += __builtin_popcount(mask & 0xF);
    __m128i packed_hi = _mm_shuffle_epi8(
        hi_idx, _mm_load_si128(
                    reinterpret_cast<const __m128i*>(kCompress4[mask >> 4])));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sel + m), packed_hi);
    m += __builtin_popcount(mask >> 4);
  }
  for (; j < n; ++j) {
    uint32_t i = sel[j];
    sel[m] = i;
    m += static_cast<int>((codes[i] >= lo) & (codes[i] <= hi));
  }
  return m;
}

int64_t Avx2SumGather(const Value* col, const uint32_t* sel, int n) {
  __m256i acc = _mm256_setzero_si256();
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + j));
    acc = _mm256_add_epi64(acc, _mm256_i32gather_epi64(AsLL(col), idx, 8));
  }
  uint64_t s = HorizontalSum(acc);
  for (; j < n; ++j) s += static_cast<uint64_t>(col[sel[j]]);
  return static_cast<int64_t>(s);
}

Value Avx2MinGather(const Value* col, const uint32_t* sel, int n) {
  Value m = col[sel[0]];
  int j = 0;
  if (n >= 4) {
    __m256i acc = _mm256_set1_epi64x(m);
    for (; j + 4 <= n; j += 4) {
      __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + j));
      acc = Min64(acc, _mm256_i32gather_epi64(AsLL(col), idx, 8));
    }
    m = HorizontalMin(acc);
  }
  for (; j < n; ++j) {
    Value v = col[sel[j]];
    m = v < m ? v : m;
  }
  return m;
}

Value Avx2MaxGather(const Value* col, const uint32_t* sel, int n) {
  Value m = col[sel[0]];
  int j = 0;
  if (n >= 4) {
    __m256i acc = _mm256_set1_epi64x(m);
    for (; j + 4 <= n; j += 4) {
      __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + j));
      acc = Max64(acc, _mm256_i32gather_epi64(AsLL(col), idx, 8));
    }
    m = HorizontalMax(acc);
  }
  for (; j < n; ++j) {
    Value v = col[sel[j]];
    m = v > m ? v : m;
  }
  return m;
}

int64_t Avx2SumRange(const Value* col, int64_t n) {
  __m256i acc = _mm256_setzero_si256();
  int64_t r = 0;
  for (; r + 4 <= n; r += 4) {
    acc = _mm256_add_epi64(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r)));
  }
  uint64_t s = HorizontalSum(acc);
  for (; r < n; ++r) s += static_cast<uint64_t>(col[r]);
  return static_cast<int64_t>(s);
}

Value Avx2MinRange(const Value* col, int64_t n) {
  Value m = col[0];
  int64_t r = 0;
  if (n >= 4) {
    __m256i acc = _mm256_set1_epi64x(m);
    for (; r + 4 <= n; r += 4) {
      acc = Min64(acc,
                  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r)));
    }
    m = HorizontalMin(acc);
  }
  for (; r < n; ++r) m = col[r] < m ? col[r] : m;
  return m;
}

Value Avx2MaxRange(const Value* col, int64_t n) {
  Value m = col[0];
  int64_t r = 0;
  if (n >= 4) {
    __m256i acc = _mm256_set1_epi64x(m);
    for (; r + 4 <= n; r += 4) {
      acc = Max64(acc,
                  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r)));
    }
    m = HorizontalMax(acc);
  }
  for (; r < n; ++r) m = col[r] > m ? col[r] : m;
  return m;
}

void Avx2BlockStats(const Value* col, int64_t n, Value* mn, Value* mx,
                    int64_t* sum) {
  Value lo = col[0], hi = col[0];
  uint64_t s = 0;
  int64_t r = 0;
  if (n >= 4) {
    __m256i vmin = _mm256_set1_epi64x(lo);
    __m256i vmax = vmin;
    __m256i vsum = _mm256_setzero_si256();
    for (; r + 4 <= n; r += 4) {
      __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r));
      vmin = Min64(vmin, v);
      vmax = Max64(vmax, v);
      vsum = _mm256_add_epi64(vsum, v);
    }
    lo = HorizontalMin(vmin);
    hi = HorizontalMax(vmax);
    s = HorizontalSum(vsum);
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

constexpr SimdOps kAvx2Ops = {
    "avx2",
    Avx2FirstPass,
    Avx2RefinePass,
    Avx2FirstPassU8,
    Avx2FirstPassU16,
    Avx2FirstPassU32,
    scalar_ops::RefinePassU8,
    scalar_ops::RefinePassU16,
    Avx2RefinePassU32,
    Avx2SumGather,
    Avx2MinGather,
    Avx2MaxGather,
    Avx2SumRange,
    Avx2MinRange,
    Avx2MaxRange,
    Avx2BlockStats,
};

}  // namespace

const SimdOps* Avx2SimdOps() { return &kAvx2Ops; }

}  // namespace tsunami

#else  // !__AVX2__ || TSUNAMI_DISABLE_SIMD

namespace tsunami {
const SimdOps* Avx2SimdOps() { return nullptr; }
}  // namespace tsunami

#endif
