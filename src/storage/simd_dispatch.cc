#include "src/storage/simd_dispatch.h"

#include <cstdlib>

#include "src/storage/scan_kernel_simd.h"

namespace tsunami {

// ---- Portable scalar-branchless reference ops (the PR-1 loops) -----------
namespace scalar_ops {

int FirstPass(const Value* col, int count, Value lo, Value hi,
              uint32_t* sel) {
  int n = 0;
  for (int i = 0; i < count; ++i) {
    sel[n] = static_cast<uint32_t>(i);
    n += static_cast<int>((col[i] >= lo) & (col[i] <= hi));
  }
  return n;
}

int RefinePass(const Value* col, uint32_t* sel, int n, Value lo, Value hi) {
  int m = 0;
  for (int j = 0; j < n; ++j) {
    uint32_t i = sel[j];
    sel[m] = i;
    m += static_cast<int>((col[i] >= lo) & (col[i] <= hi));
  }
  return m;
}

// Width-parameterized predicate passes over FOR codes: the same branchless
// store-and-advance loops as FirstPass/RefinePass, instantiated per code
// width. Bounds arrive pre-translated into code space (see
// TranslateToCodeSpace), so the comparisons are plain unsigned.
namespace {

template <typename T>
int FirstPassCodes(const T* codes, int count, T lo, T hi, uint32_t* sel) {
  int n = 0;
  for (int i = 0; i < count; ++i) {
    sel[n] = static_cast<uint32_t>(i);
    n += static_cast<int>((codes[i] >= lo) & (codes[i] <= hi));
  }
  return n;
}

template <typename T>
int RefinePassCodes(const T* codes, uint32_t* sel, int n, T lo, T hi) {
  int m = 0;
  for (int j = 0; j < n; ++j) {
    uint32_t i = sel[j];
    sel[m] = i;
    m += static_cast<int>((codes[i] >= lo) & (codes[i] <= hi));
  }
  return m;
}

}  // namespace

int FirstPassU8(const uint8_t* codes, int count, uint8_t lo, uint8_t hi,
                uint32_t* sel) {
  return FirstPassCodes(codes, count, lo, hi, sel);
}

int FirstPassU16(const uint16_t* codes, int count, uint16_t lo, uint16_t hi,
                 uint32_t* sel) {
  return FirstPassCodes(codes, count, lo, hi, sel);
}

int FirstPassU32(const uint32_t* codes, int count, uint32_t lo, uint32_t hi,
                 uint32_t* sel) {
  return FirstPassCodes(codes, count, lo, hi, sel);
}

int RefinePassU8(const uint8_t* codes, uint32_t* sel, int n, uint8_t lo,
                 uint8_t hi) {
  return RefinePassCodes(codes, sel, n, lo, hi);
}

int RefinePassU16(const uint16_t* codes, uint32_t* sel, int n, uint16_t lo,
                  uint16_t hi) {
  return RefinePassCodes(codes, sel, n, lo, hi);
}

int RefinePassU32(const uint32_t* codes, uint32_t* sel, int n, uint32_t lo,
                  uint32_t hi) {
  return RefinePassCodes(codes, sel, n, lo, hi);
}

// Sums accumulate in uint64: int64 addition modulo 2^64, without the UB of
// signed overflow.
int64_t SumGather(const Value* col, const uint32_t* sel, int n) {
  uint64_t s = 0;
  for (int j = 0; j < n; ++j) s += static_cast<uint64_t>(col[sel[j]]);
  return static_cast<int64_t>(s);
}

Value MinGather(const Value* col, const uint32_t* sel, int n) {
  Value m = col[sel[0]];
  for (int j = 1; j < n; ++j) {
    Value v = col[sel[j]];
    m = v < m ? v : m;
  }
  return m;
}

Value MaxGather(const Value* col, const uint32_t* sel, int n) {
  Value m = col[sel[0]];
  for (int j = 1; j < n; ++j) {
    Value v = col[sel[j]];
    m = v > m ? v : m;
  }
  return m;
}

int64_t SumRange(const Value* col, int64_t n) {
  uint64_t s = 0;
  for (int64_t r = 0; r < n; ++r) s += static_cast<uint64_t>(col[r]);
  return static_cast<int64_t>(s);
}

Value MinRange(const Value* col, int64_t n) {
  Value m = col[0];
  for (int64_t r = 1; r < n; ++r) m = col[r] < m ? col[r] : m;
  return m;
}

Value MaxRange(const Value* col, int64_t n) {
  Value m = col[0];
  for (int64_t r = 1; r < n; ++r) m = col[r] > m ? col[r] : m;
  return m;
}

void BlockStats(const Value* col, int64_t n, Value* mn, Value* mx,
                int64_t* sum) {
  Value lo = col[0], hi = col[0];
  uint64_t s = 0;
  for (int64_t r = 0; r < n; ++r) {
    Value v = col[r];
    lo = v < lo ? v : lo;
    hi = v > hi ? v : hi;
    s += static_cast<uint64_t>(v);
  }
  *mn = lo;
  *mx = hi;
  *sum = static_cast<int64_t>(s);
}

}  // namespace scalar_ops

namespace {

constexpr SimdOps kScalarOps = {
    "scalar",
    scalar_ops::FirstPass,
    scalar_ops::RefinePass,
    scalar_ops::FirstPassU8,
    scalar_ops::FirstPassU16,
    scalar_ops::FirstPassU32,
    scalar_ops::RefinePassU8,
    scalar_ops::RefinePassU16,
    scalar_ops::RefinePassU32,
    scalar_ops::SumGather,
    scalar_ops::MinGather,
    scalar_ops::MaxGather,
    scalar_ops::SumRange,
    scalar_ops::MinRange,
    scalar_ops::MaxRange,
    scalar_ops::BlockStats,
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
