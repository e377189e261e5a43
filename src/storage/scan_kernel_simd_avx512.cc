// AVX-512 tier: 8 x int64 lanes on raw values, and 64/32/16 x uint8/16/32
// lanes on FOR-encoded code blocks. Compares produce mask registers
// directly (__mmask8 .. __mmask64) and the selection vector is compressed
// with the native vpcompressd mask store — no lookup table, and the masked
// store writes only the surviving indices, so there is no overhang to pad
// for. The narrow passes compare one full vector of codes (vpcmpub /
// vpcmpuw / vpcmpud), then compress the 32-bit *index* vector in 16-lane
// mask slices; an all-zero compare mask (the common case in selective
// scans) skips the emit entirely, so throughput tracks the 2-8x smaller
// code footprint. Requires AVX512F + AVX512VL (the 256-bit compress-store)
// + AVX512BW (the 8/16-bit lane compares); simd_dispatch.cc checks all
// three CPUID bits before handing this table out. This TU is the only
// place compiled with -mavx512f -mavx512vl -mavx512bw (see CMakeLists.txt).
#include "src/storage/scan_kernel_simd.h"

#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512BW__) && \
    !defined(TSUNAMI_DISABLE_SIMD)

#include <immintrin.h>

namespace tsunami {

namespace {

// 8-bit mask of lanes with lo <= v <= hi.
inline __mmask8 InRangeMask(__m512i v, __m512i vlo, __m512i vhi) {
  return _mm512_cmp_epi64_mask(vlo, v, _MM_CMPINT_LE) &
         _mm512_cmp_epi64_mask(v, vhi, _MM_CMPINT_LE);
}

int Avx512FirstPass(const Value* col, int count, Value lo, Value hi,
                    uint32_t* sel) {
  const __m512i vlo = _mm512_set1_epi64(lo);
  const __m512i vhi = _mm512_set1_epi64(hi);
  __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i step = _mm256_set1_epi32(8);
  int n = 0;
  int i = 0;
  for (; i + 8 <= count; i += 8) {
    __m512i v = _mm512_loadu_si512(col + i);
    __mmask8 mask = InRangeMask(v, vlo, vhi);
    _mm256_mask_compressstoreu_epi32(sel + n, mask, idx);
    n += __builtin_popcount(mask);
    idx = _mm256_add_epi32(idx, step);
  }
  for (; i < count; ++i) {
    sel[n] = static_cast<uint32_t>(i);
    n += static_cast<int>((col[i] >= lo) & (col[i] <= hi));
  }
  return n;
}

int Avx512RefinePass(const Value* col, uint32_t* sel, int n, Value lo,
                     Value hi) {
  const __m512i vlo = _mm512_set1_epi64(lo);
  const __m512i vhi = _mm512_set1_epi64(hi);
  int m = 0;
  int j = 0;
  // In place is safe: m <= j throughout and the compress-store writes only
  // popcount(mask) <= 8 entries at sel + m, all inside the window this
  // iteration already loaded.
  for (; j + 8 <= n; j += 8) {
    __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + j));
    __m512i v = _mm512_i32gather_epi64(idx, col, 8);
    __mmask8 mask = InRangeMask(v, vlo, vhi);
    _mm256_mask_compressstoreu_epi32(sel + m, mask, idx);
    m += __builtin_popcount(mask);
  }
  for (; j < n; ++j) {
    uint32_t i = sel[j];
    sel[m] = i;
    m += static_cast<int>((col[i] >= lo) & (col[i] <= hi));
  }
  return m;
}

// Emits the selection indices for a `lanes`-bit compare mask in 16-lane
// vpcompressd slices. `base` is the block-relative index of mask bit 0.
template <int kLanes>
inline int EmitMask(uint64_t mask, int base, uint32_t* sel, int n) {
  const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  for (int g = 0; g < kLanes / 16; ++g) {
    const auto m16 = static_cast<__mmask16>(mask >> (16 * g));
    if (m16 == 0) continue;
    __m512i idx = _mm512_add_epi32(_mm512_set1_epi32(base + 16 * g), iota);
    _mm512_mask_compressstoreu_epi32(sel + n, m16, idx);
    n += __builtin_popcount(m16);
  }
  return n;
}

int Avx512FirstPassU8(const uint8_t* codes, int count, uint8_t lo,
                      uint8_t hi, uint32_t* sel) {
  const __m512i vlo = _mm512_set1_epi8(static_cast<char>(lo));
  const __m512i vhi = _mm512_set1_epi8(static_cast<char>(hi));
  int n = 0;
  int i = 0;
  for (; i + 64 <= count; i += 64) {
    __m512i v = _mm512_loadu_si512(codes + i);
    __mmask64 mask = _mm512_cmp_epu8_mask(vlo, v, _MM_CMPINT_LE) &
                     _mm512_cmp_epu8_mask(v, vhi, _MM_CMPINT_LE);
    if (mask == 0) continue;
    n = EmitMask<64>(mask, i, sel, n);
  }
  for (; i < count; ++i) {
    sel[n] = static_cast<uint32_t>(i);
    n += static_cast<int>((codes[i] >= lo) & (codes[i] <= hi));
  }
  return n;
}

int Avx512FirstPassU16(const uint16_t* codes, int count, uint16_t lo,
                       uint16_t hi, uint32_t* sel) {
  const __m512i vlo = _mm512_set1_epi16(static_cast<short>(lo));
  const __m512i vhi = _mm512_set1_epi16(static_cast<short>(hi));
  int n = 0;
  int i = 0;
  for (; i + 32 <= count; i += 32) {
    __m512i v = _mm512_loadu_si512(codes + i);
    __mmask32 mask = _mm512_cmp_epu16_mask(vlo, v, _MM_CMPINT_LE) &
                     _mm512_cmp_epu16_mask(v, vhi, _MM_CMPINT_LE);
    if (mask == 0) continue;
    n = EmitMask<32>(mask, i, sel, n);
  }
  for (; i < count; ++i) {
    sel[n] = static_cast<uint32_t>(i);
    n += static_cast<int>((codes[i] >= lo) & (codes[i] <= hi));
  }
  return n;
}

int Avx512FirstPassU32(const uint32_t* codes, int count, uint32_t lo,
                       uint32_t hi, uint32_t* sel) {
  const __m512i vlo = _mm512_set1_epi32(static_cast<int>(lo));
  const __m512i vhi = _mm512_set1_epi32(static_cast<int>(hi));
  int n = 0;
  int i = 0;
  for (; i + 16 <= count; i += 16) {
    __m512i v = _mm512_loadu_si512(codes + i);
    __mmask16 mask = _mm512_cmp_epu32_mask(vlo, v, _MM_CMPINT_LE) &
                     _mm512_cmp_epu32_mask(v, vhi, _MM_CMPINT_LE);
    if (mask == 0) continue;
    n = EmitMask<16>(mask, i, sel, n);
  }
  for (; i < count; ++i) {
    sel[n] = static_cast<uint32_t>(i);
    n += static_cast<int>((codes[i] >= lo) & (codes[i] <= hi));
  }
  return n;
}

// 32-bit codes have a hardware gather, so the refine pass stays
// lane-parallel; 8/16-bit refines fall back to the shared scalar loops
// (gather-bound at tiny survivor counts — same policy as NEON's gathers).
int Avx512RefinePassU32(const uint32_t* codes, uint32_t* sel, int n,
                        uint32_t lo, uint32_t hi) {
  const __m512i vlo = _mm512_set1_epi32(static_cast<int>(lo));
  const __m512i vhi = _mm512_set1_epi32(static_cast<int>(hi));
  int m = 0;
  int j = 0;
  // In place is safe: m <= j throughout and the compress-store writes only
  // popcount(mask) <= 16 entries at sel + m, inside the window this
  // iteration already loaded.
  for (; j + 16 <= n; j += 16) {
    __m512i idx =
        _mm512_loadu_si512(reinterpret_cast<const __m512i*>(sel + j));
    __m512i v = _mm512_i32gather_epi32(idx, codes, 4);
    __mmask16 mask = _mm512_cmp_epu32_mask(vlo, v, _MM_CMPINT_LE) &
                     _mm512_cmp_epu32_mask(v, vhi, _MM_CMPINT_LE);
    _mm512_mask_compressstoreu_epi32(sel + m, mask, idx);
    m += __builtin_popcount(mask);
  }
  for (; j < n; ++j) {
    uint32_t i = sel[j];
    sel[m] = i;
    m += static_cast<int>((codes[i] >= lo) & (codes[i] <= hi));
  }
  return m;
}

// Lane sum modulo 2^64. _mm512_reduce_add_epi64 is not used: GCC's
// version ends in a signed scalar add, which is UB when the sum wraps.
inline uint64_t ReduceAdd(__m512i v) {
  __m256i s4 = _mm256_add_epi64(_mm512_castsi512_si256(v),
                                _mm512_extracti64x4_epi64(v, 1));
  __m128i s2 = _mm_add_epi64(_mm256_castsi256_si128(s4),
                             _mm256_extracti128_si256(s4, 1));
  return static_cast<uint64_t>(
      _mm_cvtsi128_si64(_mm_add_epi64(s2, _mm_unpackhi_epi64(s2, s2))));
}

int64_t Avx512SumGather(const Value* col, const uint32_t* sel, int n) {
  __m512i acc = _mm512_setzero_si512();
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + j));
    acc = _mm512_add_epi64(acc, _mm512_i32gather_epi64(idx, col, 8));
  }
  uint64_t s = ReduceAdd(acc);
  for (; j < n; ++j) s += static_cast<uint64_t>(col[sel[j]]);
  return static_cast<int64_t>(s);
}

Value Avx512MinGather(const Value* col, const uint32_t* sel, int n) {
  Value m = col[sel[0]];
  int j = 0;
  if (n >= 8) {
    __m512i acc = _mm512_set1_epi64(m);
    for (; j + 8 <= n; j += 8) {
      __m256i idx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + j));
      acc = _mm512_min_epi64(acc, _mm512_i32gather_epi64(idx, col, 8));
    }
    m = _mm512_reduce_min_epi64(acc);
  }
  for (; j < n; ++j) {
    Value v = col[sel[j]];
    m = v < m ? v : m;
  }
  return m;
}

Value Avx512MaxGather(const Value* col, const uint32_t* sel, int n) {
  Value m = col[sel[0]];
  int j = 0;
  if (n >= 8) {
    __m512i acc = _mm512_set1_epi64(m);
    for (; j + 8 <= n; j += 8) {
      __m256i idx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + j));
      acc = _mm512_max_epi64(acc, _mm512_i32gather_epi64(idx, col, 8));
    }
    m = _mm512_reduce_max_epi64(acc);
  }
  for (; j < n; ++j) {
    Value v = col[sel[j]];
    m = v > m ? v : m;
  }
  return m;
}

int64_t Avx512SumRange(const Value* col, int64_t n) {
  __m512i acc = _mm512_setzero_si512();
  int64_t r = 0;
  for (; r + 8 <= n; r += 8) {
    acc = _mm512_add_epi64(acc, _mm512_loadu_si512(col + r));
  }
  uint64_t s = ReduceAdd(acc);
  for (; r < n; ++r) s += static_cast<uint64_t>(col[r]);
  return static_cast<int64_t>(s);
}

Value Avx512MinRange(const Value* col, int64_t n) {
  Value m = col[0];
  int64_t r = 0;
  if (n >= 8) {
    __m512i acc = _mm512_set1_epi64(m);
    for (; r + 8 <= n; r += 8) {
      acc = _mm512_min_epi64(acc, _mm512_loadu_si512(col + r));
    }
    m = _mm512_reduce_min_epi64(acc);
  }
  for (; r < n; ++r) m = col[r] < m ? col[r] : m;
  return m;
}

Value Avx512MaxRange(const Value* col, int64_t n) {
  Value m = col[0];
  int64_t r = 0;
  if (n >= 8) {
    __m512i acc = _mm512_set1_epi64(m);
    for (; r + 8 <= n; r += 8) {
      acc = _mm512_max_epi64(acc, _mm512_loadu_si512(col + r));
    }
    m = _mm512_reduce_max_epi64(acc);
  }
  for (; r < n; ++r) m = col[r] > m ? col[r] : m;
  return m;
}

void Avx512BlockStats(const Value* col, int64_t n, Value* mn, Value* mx,
                      int64_t* sum) {
  Value lo = col[0], hi = col[0];
  uint64_t s = 0;
  int64_t r = 0;
  if (n >= 8) {
    __m512i vmin = _mm512_set1_epi64(lo);
    __m512i vmax = vmin;
    __m512i vsum = _mm512_setzero_si512();
    for (; r + 8 <= n; r += 8) {
      __m512i v = _mm512_loadu_si512(col + r);
      vmin = _mm512_min_epi64(vmin, v);
      vmax = _mm512_max_epi64(vmax, v);
      vsum = _mm512_add_epi64(vsum, v);
    }
    lo = _mm512_reduce_min_epi64(vmin);
    hi = _mm512_reduce_max_epi64(vmax);
    s = ReduceAdd(vsum);
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

constexpr SimdOps kAvx512Ops = {
    "avx512",
    Avx512FirstPass,
    Avx512RefinePass,
    Avx512FirstPassU8,
    Avx512FirstPassU16,
    Avx512FirstPassU32,
    scalar_ops::RefinePassU8,
    scalar_ops::RefinePassU16,
    Avx512RefinePassU32,
    Avx512SumGather,
    Avx512MinGather,
    Avx512MaxGather,
    Avx512SumRange,
    Avx512MinRange,
    Avx512MaxRange,
    Avx512BlockStats,
};

}  // namespace

const SimdOps* Avx512SimdOps() { return &kAvx512Ops; }

}  // namespace tsunami

#else  // !AVX512F/VL || TSUNAMI_DISABLE_SIMD

namespace tsunami {
const SimdOps* Avx512SimdOps() { return nullptr; }
}  // namespace tsunami

#endif
