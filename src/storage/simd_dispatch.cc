#include "src/storage/simd_dispatch.h"

#include <bit>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "src/storage/scan_kernel_simd.h"

namespace tsunami {

// ---- Portable loops (SimdTier::kNone) ------------------------------------
namespace {

static_assert(std::endian::native == std::endian::little,
              "PackFlags reads eight flag bytes as one little-endian word");

// The 64-bit mask word of 64 flag bytes (each 0 or 1): bit k = flags[k].
// Eight flags pack per multiply: byte k of x lands on bit 56 + k of
// x * 0x0102040810204080, and no partial product carries across bytes.
inline uint64_t PackFlags(const uint8_t* flags) {
  uint64_t bits = 0;
  for (int g = 0; g < 8; ++g) {
    uint64_t x;
    std::memcpy(&x, flags + 8 * g, sizeof(x));
    bits |= ((x * 0x0102040810204080ull) >> 56) << (8 * g);
  }
  return bits;
}

// Set bits of `x`. The portable TU has no popcount instruction, and
// std::popcount would call into libgcc once per mask word.
inline int Popcount(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<int>((x * 0x0101010101010101ull) >> 56);
}

// One width's and_mask: compares into a 64-byte flag array (a loop -O3
// vectorizes), then packs the flags into the mask word. Words already zero
// are skipped: no row there can match again.
template <typename T>
int AndMask(const T* codes, int count, T lo, T hi, uint64_t* mask) {
  int selected = 0;
  for (int base = 0; base < count; base += 64) {
    uint64_t& word = mask[base / 64];
    if (word == 0) continue;
    const T* c = codes + base;
    alignas(8) uint8_t flags[64];
    if (count - base >= 64) {
      for (int k = 0; k < 64; ++k) flags[k] = (c[k] >= lo) & (c[k] <= hi);
    } else {
      const int rows = count - base;
      for (int k = 0; k < 64; ++k) {
        flags[k] = k < rows && c[k] >= lo && c[k] <= hi;
      }
    }
    word &= PackFlags(flags);
    selected += Popcount(word);
  }
  return selected;
}

// Folds the straight run c[0, n) into (sum, mn, mx); -O3 vectorizes it.
template <typename T>
inline void FoldRun(const T* c, int n, uint64_t& sum, T& mn, T& mx) {
  for (int k = 0; k < n; ++k) {
    sum += static_cast<uint64_t>(c[k]);
    mn = c[k] < mn ? c[k] : mn;
    mx = c[k] > mx ? c[k] : mx;
  }
}

// One width's fold: a straight loop over every row, or a walk over the
// mask's set bits in which a full word takes the straight loop.
template <typename T>
CodeFold Fold(const T* codes, int count, const uint64_t* mask) {
  uint64_t sum = 0;
  T mn = std::numeric_limits<T>::max();
  T mx = std::numeric_limits<T>::min();
  if (mask == nullptr) {
    FoldRun(codes, count, sum, mn, mx);
  } else {
    for (int base = 0; base < count; base += 64) {
      const uint64_t bits = mask[base / 64];
      if (bits == ~uint64_t{0}) {  // Bits past `count` are clear.
        FoldRun(codes + base, 64, sum, mn, mx);
        continue;
      }
      for (uint64_t m = bits; m != 0; m &= m - 1) {
        const T c = codes[base + std::countr_zero(m)];
        sum += static_cast<uint64_t>(c);
        mn = c < mn ? c : mn;
        mx = c > mx ? c : mx;
      }
    }
  }
  return {sum, static_cast<int64_t>(mn), static_cast<int64_t>(mx)};
}

constexpr SimdOps kScalarOps = {
    "scalar",       AndMask<uint8_t>, AndMask<uint16_t>, AndMask<uint32_t>,
    AndMask<Value>, Fold<uint8_t>,    Fold<uint16_t>,    Fold<uint32_t>,
    Fold<Value>,
};

}  // namespace

const SimdOps& ScalarSimdOps() { return kScalarOps; }

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAuto:
      return "auto";
    case SimdTier::kNone:
      return "scalar";
    case SimdTier::kNeon:
      return "neon";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool SimdTierSupported(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAuto:
    case SimdTier::kNone:
      return true;
    case SimdTier::kNeon:
      return NeonSimdOps() != nullptr;
    case SimdTier::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return Avx2SimdOps() != nullptr && __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case SimdTier::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      // BW joined F+VL when the narrow-code passes landed: the 8/16-bit
      // lane compares (vpcmpub/vpcmpuw) are AVX512BW, and the whole TU is
      // compiled with -mavx512bw, so the CPU must have all three.
      return Avx512SimdOps() != nullptr &&
             __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512bw");
#else
      return false;
#endif
  }
  return false;
}

SimdTier DetectSimdTier() {
  static const SimdTier tier = [] {
    // Environment escape hatch for CI and debugging: pins the auto-resolved
    // tier to the portable scalar ops so the degraded path gets exercised
    // without a separate build. Explicitly forced tiers are unaffected.
    const char* force = std::getenv("TSUNAMI_FORCE_SCALAR");
    if (force != nullptr && force[0] != '\0' && force[0] != '0') {
      return SimdTier::kNone;
    }
    if (SimdTierSupported(SimdTier::kAvx512)) return SimdTier::kAvx512;
    if (SimdTierSupported(SimdTier::kAvx2)) return SimdTier::kAvx2;
    if (SimdTierSupported(SimdTier::kNeon)) return SimdTier::kNeon;
    return SimdTier::kNone;
  }();
  return tier;
}

const SimdOps& OpsForTier(SimdTier tier) {
  if (tier == SimdTier::kAuto) tier = DetectSimdTier();
  if (!SimdTierSupported(tier)) return kScalarOps;
  switch (tier) {
    case SimdTier::kAvx512:
      return *Avx512SimdOps();
    case SimdTier::kAvx2:
      return *Avx2SimdOps();
    case SimdTier::kNeon:
      return *NeonSimdOps();
    default:
      return kScalarOps;
  }
}

}  // namespace tsunami
