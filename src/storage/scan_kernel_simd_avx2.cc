// AVX2 tier: a 64-row mask word is built 32, 32, 8 or 4 rows at a time
// from uint8, uint16, uint32 or int64 lanes. Range predicates become two
// compares (signed for raw values; unsigned min/max + equality for codes,
// since AVX2 has no unsigned compare) whose lane masks movemask into the
// word. Folds expand the word's bits back into lane masks and fold
// blend/and-selected lanes. AVX2 has no byte-masked loads, so the rows
// past the last full vector of a slice go through scalar tails: no load
// reads past the slice. This TU is the only place compiled with -mavx2
// (see CMakeLists.txt); everything here is reached strictly behind the
// runtime CPUID check in simd_dispatch.cc.
#include "src/storage/scan_kernel_simd.h"

#if defined(__AVX2__) && !defined(TSUNAMI_DISABLE_SIMD)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <limits>

namespace tsunami {

namespace {

inline __m256i Load(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

// Reduces the lanes of `v`, read as `Lane`s, with `op`. -O3 turns the loop
// into a log-step shuffle reduction.
template <typename Lane, typename R, typename Op>
R ReduceLanes(__m256i v, R init, Op op) {
  alignas(32) Lane lanes[32 / sizeof(Lane)];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  R r = init;
  for (Lane x : lanes) r = op(r, static_cast<R>(x));
  return r;
}

// Per-width lane operations. InRange returns the mask bits of kStep rows.
// Select widens one vector's mask bits (one per lane) into all-ones lanes:
// the bits are broadcast, each lane keeps its own bit, and a compare
// against that bit fills the lane. AddSum adds lanes already zeroed
// outside the selection into the sum accumulator, whose lanes are SumLane
// (wide enough for one block).
template <typename T>
struct Lanes;

template <>
struct Lanes<uint8_t> {
  static constexpr int kStep = 32;
  using SumLane = uint64_t;
  static __m256i Set1(uint8_t x) {
    return _mm256_set1_epi8(static_cast<char>(x));
  }
  // Unsigned range check: c >= lo <=> max(c, lo) == c, c <= hi <=>
  // min(c, hi) == c.
  static uint32_t InRange(const uint8_t* p, __m256i lo, __m256i hi) {
    const __m256i v = Load(p);
    const __m256i ge = _mm256_cmpeq_epi8(_mm256_max_epu8(v, lo), v);
    const __m256i le = _mm256_cmpeq_epi8(_mm256_min_epu8(v, hi), v);
    return static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_and_si256(ge, le)));
  }
  // Byte j of the broadcast bits carries rows 8j..8j+7; lane k takes byte
  // k / 8 and keeps bit k % 8.
  static __m256i Select(uint32_t bits) {
    const __m256i spread = _mm256_shuffle_epi8(
        _mm256_set1_epi32(static_cast<int>(bits)),
        _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2,
                         2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3));
    const __m256i lane_bit = _mm256_set1_epi64x(0x8040201008040201);
    return _mm256_cmpeq_epi8(_mm256_and_si256(spread, lane_bit), lane_bit);
  }
  static __m256i Min(__m256i a, __m256i b) { return _mm256_min_epu8(a, b); }
  static __m256i Max(__m256i a, __m256i b) { return _mm256_max_epu8(a, b); }
  static __m256i AddSum(__m256i acc, __m256i v) {
    return _mm256_add_epi64(acc, _mm256_sad_epu8(v, _mm256_setzero_si256()));
  }
};

template <>
struct Lanes<uint16_t> {
  static constexpr int kStep = 32;
  using SumLane = uint32_t;
  static __m256i Set1(uint16_t x) {
    return _mm256_set1_epi16(static_cast<short>(x));
  }
  static __m256i Ok(const uint16_t* p, __m256i lo, __m256i hi) {
    const __m256i v = Load(p);
    const __m256i ge = _mm256_cmpeq_epi16(_mm256_max_epu16(v, lo), v);
    const __m256i le = _mm256_cmpeq_epi16(_mm256_min_epu16(v, hi), v);
    return _mm256_and_si256(ge, le);
  }
  // Two vectors: vpacksswb narrows each 16-bit lane to a byte, per 128-bit
  // half ([a0-7 b0-7 | a8-15 b8-15]); vpermq restores row order.
  static uint32_t InRange(const uint16_t* p, __m256i lo, __m256i hi) {
    const __m256i packed =
        _mm256_packs_epi16(Ok(p, lo, hi), Ok(p + 16, lo, hi));
    return static_cast<uint32_t>(_mm256_movemask_epi8(
        _mm256_permute4x64_epi64(packed, _MM_SHUFFLE(3, 1, 2, 0))));
  }
  static __m256i Select(uint32_t bits) {
    const __m256i lane_bit = _mm256_setr_epi16(
        1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
        static_cast<short>(0x8000));
    return _mm256_cmpeq_epi16(
        _mm256_and_si256(_mm256_set1_epi16(static_cast<short>(bits)),
                         lane_bit),
        lane_bit);
  }
  static __m256i Min(__m256i a, __m256i b) { return _mm256_min_epu16(a, b); }
  static __m256i Max(__m256i a, __m256i b) { return _mm256_max_epu16(a, b); }
  // Both uint16 halves of each uint32 lane, added into that lane: a block
  // adds at most 128 codes, < 2^23, per lane.
  static __m256i AddSum(__m256i acc, __m256i v) {
    const __m256i lo = _mm256_and_si256(v, _mm256_set1_epi32(0xFFFF));
    return _mm256_add_epi32(acc,
                            _mm256_add_epi32(lo, _mm256_srli_epi32(v, 16)));
  }
};

template <>
struct Lanes<uint32_t> {
  static constexpr int kStep = 8;
  using SumLane = uint64_t;
  static __m256i Set1(uint32_t x) {
    return _mm256_set1_epi32(static_cast<int>(x));
  }
  static uint32_t InRange(const uint32_t* p, __m256i lo, __m256i hi) {
    const __m256i v = Load(p);
    const __m256i ge = _mm256_cmpeq_epi32(_mm256_max_epu32(v, lo), v);
    const __m256i le = _mm256_cmpeq_epi32(_mm256_min_epu32(v, hi), v);
    return static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_and_si256(ge, le))));
  }
  static __m256i Select(uint32_t bits) {
    const __m256i lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    return _mm256_cmpeq_epi32(
        _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(bits)), lane_bit),
        lane_bit);
  }
  static __m256i Min(__m256i a, __m256i b) { return _mm256_min_epu32(a, b); }
  static __m256i Max(__m256i a, __m256i b) { return _mm256_max_epu32(a, b); }
  // Both uint32 halves of each uint64 lane, added into that lane.
  static __m256i AddSum(__m256i acc, __m256i v) {
    const __m256i lo = _mm256_and_si256(v, _mm256_set1_epi64x(0xFFFFFFFF));
    return _mm256_add_epi64(acc,
                            _mm256_add_epi64(lo, _mm256_srli_epi64(v, 32)));
  }
};

template <>
struct Lanes<Value> {
  static constexpr int kStep = 4;
  using SumLane = uint64_t;
  static __m256i Set1(Value x) { return _mm256_set1_epi64x(x); }
  static uint32_t InRange(const Value* p, __m256i lo, __m256i hi) {
    const __m256i v = Load(p);
    const __m256i out = _mm256_or_si256(_mm256_cmpgt_epi64(lo, v),   // v < lo
                                        _mm256_cmpgt_epi64(v, hi));  // v > hi
    return ~static_cast<uint32_t>(
               _mm256_movemask_pd(_mm256_castsi256_pd(out))) &
           0xF;
  }
  static __m256i Select(uint32_t bits) {
    const __m256i lane_bit = _mm256_setr_epi64x(1, 2, 4, 8);
    return _mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_set1_epi64x(bits), lane_bit), lane_bit);
  }
  static __m256i Min(__m256i a, __m256i b) {
    return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
  }
  static __m256i Max(__m256i a, __m256i b) {
    return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(b, a));
  }
  static __m256i AddSum(__m256i acc, __m256i v) {
    return _mm256_add_epi64(acc, v);
  }
};

template <typename T>
int AndMask(const T* codes, int count, T lo, T hi, uint64_t* mask) {
  using L = Lanes<T>;
  const __m256i vlo = L::Set1(lo);
  const __m256i vhi = L::Set1(hi);
  int selected = 0;
  for (int base = 0; base < count; base += 64) {
    uint64_t& word = mask[base / 64];
    if (word == 0) continue;  // No row here can match again.
    const T* c = codes + base;
    const int rows = std::min(64, count - base);
    uint64_t bits = 0;
    int k = 0;
    for (; k + L::kStep <= rows; k += L::kStep) {
      bits |= static_cast<uint64_t>(L::InRange(c + k, vlo, vhi)) << k;
    }
    for (; k < rows; ++k) {
      bits |= static_cast<uint64_t>((c[k] >= lo) & (c[k] <= hi)) << k;
    }
    word &= bits;
    selected += std::popcount(word);
  }
  return selected;
}

template <typename T>
CodeFold Fold(const T* codes, int count, const uint64_t* mask) {
  using L = Lanes<T>;
  constexpr int kLanes = 32 / static_cast<int>(sizeof(T));
  __m256i sum = _mm256_setzero_si256();
  __m256i mn = L::Set1(std::numeric_limits<T>::max());
  __m256i mx = L::Set1(std::numeric_limits<T>::min());
  uint64_t tail_sum = 0;
  T tail_mn = std::numeric_limits<T>::max();
  T tail_mx = std::numeric_limits<T>::min();
  for (int base = 0; base < count; base += 64) {
    const T* c = codes + base;
    const int rows = std::min(64, count - base);
    const uint64_t bits = mask == nullptr ? LowBits(rows) : mask[base / 64];
    if (bits == 0) continue;
    // No per-vector skip: at middling selectivities an empty vector is a
    // coin flip, and an empty lane mask folds nothing anyway.
    int k = 0;
    for (; k + kLanes <= rows; k += kLanes) {
      const __m256i sel = L::Select(static_cast<uint32_t>(bits >> k) &
                                    static_cast<uint32_t>(LowBits(kLanes)));
      const __m256i v = Load(c + k);
      sum = L::AddSum(sum, _mm256_and_si256(v, sel));
      mn = _mm256_blendv_epi8(mn, L::Min(mn, v), sel);
      mx = _mm256_blendv_epi8(mx, L::Max(mx, v), sel);
    }
    for (; k < rows; ++k) {
      if (((bits >> k) & 1) == 0) continue;
      tail_sum += static_cast<uint64_t>(c[k]);
      tail_mn = std::min(tail_mn, c[k]);
      tail_mx = std::max(tail_mx, c[k]);
    }
  }
  return {ReduceLanes<typename L::SumLane>(
              sum, tail_sum, [](uint64_t a, uint64_t b) { return a + b; }),
          ReduceLanes<T>(mn, int64_t{tail_mn},
                         [](int64_t a, int64_t b) { return b < a ? b : a; }),
          ReduceLanes<T>(mx, int64_t{tail_mx},
                         [](int64_t a, int64_t b) { return b > a ? b : a; })};
}

constexpr SimdOps kAvx2Ops = {
    "avx2",         AndMask<uint8_t>, AndMask<uint16_t>, AndMask<uint32_t>,
    AndMask<Value>, Fold<uint8_t>,    Fold<uint16_t>,    Fold<uint32_t>,
    Fold<Value>,
};

}  // namespace

const SimdOps* Avx2SimdOps() { return &kAvx2Ops; }

}  // namespace tsunami

#else  // !__AVX2__ || TSUNAMI_DISABLE_SIMD

namespace tsunami {
const SimdOps* Avx2SimdOps() { return nullptr; }
}  // namespace tsunami

#endif
