// AVX-512 tier: one 64-row mask word is 1, 2, 4 or 8 vectors of uint8,
// uint16, uint32 or int64 lanes. Predicates compare straight into mask
// registers (__mmask64 .. __mmask8) and AND into the word; folds run masked
// min/max (and add zeroed lanes) under the word's bits. Every load is a
// masked load whose lanes past the slice's last row are off, and AVX-512
// suppresses faults on masked-off lanes, so there is no scalar tail loop.
// Requires AVX512F + AVX512VL + AVX512BW (the 8/16-bit lane compares);
// simd_dispatch.cc checks all three CPUID bits before handing this table
// out. This TU is the only place compiled with -mavx512f -mavx512vl
// -mavx512bw (see CMakeLists.txt).
#include "src/storage/scan_kernel_simd.h"

#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512BW__) && \
    !defined(TSUNAMI_DISABLE_SIMD)

#include <immintrin.h>

#include <bit>
#include <limits>

namespace tsunami {

namespace {

// Reduces the lanes of `v`, read as `Lane`s, with `op`. -O3 turns the loop
// into a log-step shuffle reduction.
template <typename Lane, typename R, typename Op>
R ReduceLanes(__m512i v, R init, Op op) {
  alignas(64) Lane lanes[64 / sizeof(Lane)];
  _mm512_store_si512(lanes, v);
  R r = init;
  for (Lane x : lanes) r = op(r, static_cast<R>(x));
  return r;
}

// Per-width lane operations. Load/Ge/Le/Min/Max take the lane mask `m`;
// AddSum adds lanes already zeroed outside the mask into the sum
// accumulator, whose lanes are SumLane (wide enough for one block).
template <typename T>
struct Lanes;

template <>
struct Lanes<uint8_t> {
  using Mask = __mmask64;
  using SumLane = uint64_t;
  static __m512i Set1(uint8_t x) {
    return _mm512_set1_epi8(static_cast<char>(x));
  }
  static __m512i Load(Mask m, const uint8_t* p) {
    return _mm512_maskz_loadu_epi8(m, p);
  }
  static Mask Ge(Mask m, __m512i a, __m512i b) {
    return _mm512_mask_cmp_epu8_mask(m, a, b, _MM_CMPINT_NLT);
  }
  static Mask Le(Mask m, __m512i a, __m512i b) {
    return _mm512_mask_cmp_epu8_mask(m, a, b, _MM_CMPINT_LE);
  }
  static __m512i Min(__m512i acc, Mask m, __m512i v) {
    return _mm512_mask_min_epu8(acc, m, acc, v);
  }
  static __m512i Max(__m512i acc, Mask m, __m512i v) {
    return _mm512_mask_max_epu8(acc, m, acc, v);
  }
  // vpsadbw: each 8-byte group's sum, into a uint64 lane.
  static __m512i AddSum(__m512i acc, __m512i v) {
    return _mm512_add_epi64(acc, _mm512_sad_epu8(v, _mm512_setzero_si512()));
  }
};

template <>
struct Lanes<uint16_t> {
  using Mask = __mmask32;
  using SumLane = uint32_t;
  static __m512i Set1(uint16_t x) {
    return _mm512_set1_epi16(static_cast<short>(x));
  }
  static __m512i Load(Mask m, const uint16_t* p) {
    return _mm512_maskz_loadu_epi16(m, p);
  }
  static Mask Ge(Mask m, __m512i a, __m512i b) {
    return _mm512_mask_cmp_epu16_mask(m, a, b, _MM_CMPINT_NLT);
  }
  static Mask Le(Mask m, __m512i a, __m512i b) {
    return _mm512_mask_cmp_epu16_mask(m, a, b, _MM_CMPINT_LE);
  }
  static __m512i Min(__m512i acc, Mask m, __m512i v) {
    return _mm512_mask_min_epu16(acc, m, acc, v);
  }
  static __m512i Max(__m512i acc, Mask m, __m512i v) {
    return _mm512_mask_max_epu16(acc, m, acc, v);
  }
  // Both uint16 halves of each uint32 lane, added into that lane: a block
  // adds at most 64 codes, < 2^22, per lane.
  static __m512i AddSum(__m512i acc, __m512i v) {
    const __m512i lo = _mm512_and_si512(v, _mm512_set1_epi32(0xFFFF));
    return _mm512_add_epi32(acc,
                            _mm512_add_epi32(lo, _mm512_srli_epi32(v, 16)));
  }
};

template <>
struct Lanes<uint32_t> {
  using Mask = __mmask16;
  using SumLane = uint64_t;
  static __m512i Set1(uint32_t x) {
    return _mm512_set1_epi32(static_cast<int>(x));
  }
  static __m512i Load(Mask m, const uint32_t* p) {
    return _mm512_maskz_loadu_epi32(m, p);
  }
  static Mask Ge(Mask m, __m512i a, __m512i b) {
    return _mm512_mask_cmp_epu32_mask(m, a, b, _MM_CMPINT_NLT);
  }
  static Mask Le(Mask m, __m512i a, __m512i b) {
    return _mm512_mask_cmp_epu32_mask(m, a, b, _MM_CMPINT_LE);
  }
  static __m512i Min(__m512i acc, Mask m, __m512i v) {
    return _mm512_mask_min_epu32(acc, m, acc, v);
  }
  static __m512i Max(__m512i acc, Mask m, __m512i v) {
    return _mm512_mask_max_epu32(acc, m, acc, v);
  }
  // Both uint32 halves of each uint64 lane, added into that lane.
  static __m512i AddSum(__m512i acc, __m512i v) {
    const __m512i lo = _mm512_and_si512(v, _mm512_set1_epi64(0xFFFFFFFF));
    return _mm512_add_epi64(acc,
                            _mm512_add_epi64(lo, _mm512_srli_epi64(v, 32)));
  }
};

template <>
struct Lanes<Value> {
  using Mask = __mmask8;
  using SumLane = uint64_t;
  static __m512i Set1(Value x) { return _mm512_set1_epi64(x); }
  static __m512i Load(Mask m, const Value* p) {
    return _mm512_maskz_loadu_epi64(m, p);
  }
  static Mask Ge(Mask m, __m512i a, __m512i b) {
    return _mm512_mask_cmp_epi64_mask(m, a, b, _MM_CMPINT_NLT);
  }
  static Mask Le(Mask m, __m512i a, __m512i b) {
    return _mm512_mask_cmp_epi64_mask(m, a, b, _MM_CMPINT_LE);
  }
  static __m512i Min(__m512i acc, Mask m, __m512i v) {
    return _mm512_mask_min_epi64(acc, m, acc, v);
  }
  static __m512i Max(__m512i acc, Mask m, __m512i v) {
    return _mm512_mask_max_epi64(acc, m, acc, v);
  }
  static __m512i AddSum(__m512i acc, __m512i v) {
    return _mm512_add_epi64(acc, v);
  }
};

template <typename T>
constexpr int kLanes = 64 / static_cast<int>(sizeof(T));

template <typename T>
int AndMask(const T* codes, int count, T lo, T hi, uint64_t* mask) {
  using L = Lanes<T>;
  const __m512i vlo = L::Set1(lo);
  const __m512i vhi = L::Set1(hi);
  int selected = 0;
  for (int base = 0; base < count; base += 64) {
    uint64_t& word = mask[base / 64];
    if (word == 0) continue;  // No row here can match again.
    const uint64_t rows = LowBits(count - base);
    uint64_t bits = 0;
    for (int k = 0; k < 64 && base + k < count; k += kLanes<T>) {
      const auto m = static_cast<typename L::Mask>(rows >> k);
      const __m512i v = L::Load(m, codes + base + k);
      bits |= static_cast<uint64_t>(L::Le(L::Ge(m, v, vlo), v, vhi)) << k;
    }
    word &= bits;
    selected += std::popcount(word);
  }
  return selected;
}

template <typename T>
CodeFold Fold(const T* codes, int count, const uint64_t* mask) {
  using L = Lanes<T>;
  __m512i sum = _mm512_setzero_si512();
  __m512i mn = L::Set1(std::numeric_limits<T>::max());
  __m512i mx = L::Set1(std::numeric_limits<T>::min());
  for (int base = 0; base < count; base += 64) {
    uint64_t rows = LowBits(count - base);
    if (mask != nullptr) rows &= mask[base / 64];
    if (rows == 0) continue;
    // No per-vector skip: at middling selectivities an empty vector is a
    // coin flip, and a zero lane mask folds nothing anyway.
    for (int k = 0; k < 64 && base + k < count; k += kLanes<T>) {
      const auto m = static_cast<typename L::Mask>(rows >> k);
      const __m512i v = L::Load(m, codes + base + k);  // Zero outside m.
      sum = L::AddSum(sum, v);
      mn = L::Min(mn, m, v);
      mx = L::Max(mx, m, v);
    }
  }
  return {ReduceLanes<typename L::SumLane>(
              sum, uint64_t{0}, [](uint64_t a, uint64_t b) { return a + b; }),
          ReduceLanes<T>(mn, int64_t{std::numeric_limits<T>::max()},
                         [](int64_t a, int64_t b) { return b < a ? b : a; }),
          ReduceLanes<T>(mx, int64_t{std::numeric_limits<T>::min()},
                         [](int64_t a, int64_t b) { return b > a ? b : a; })};
}

constexpr SimdOps kAvx512Ops = {
    "avx512",       AndMask<uint8_t>, AndMask<uint16_t>, AndMask<uint32_t>,
    AndMask<Value>, Fold<uint8_t>,    Fold<uint16_t>,    Fold<uint32_t>,
    Fold<Value>,
};

}  // namespace

const SimdOps* Avx512SimdOps() { return &kAvx512Ops; }

}  // namespace tsunami

#else  // !AVX512F/VL/BW || TSUNAMI_DISABLE_SIMD

namespace tsunami {
const SimdOps* Avx512SimdOps() { return nullptr; }
}  // namespace tsunami

#endif
