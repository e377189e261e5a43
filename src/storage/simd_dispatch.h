// Runtime CPU dispatch for the SIMD scan-kernel tier. The library is built
// with per-file arch flags (only the per-tier translation units get
// -mavx2 / -mavx512f; see CMakeLists.txt), so the binary always contains
// every tier the toolchain could compile, and the tier actually used is
// chosen once at startup from CPUID (NEON is baseline on aarch64). Callers
// can force a tier through ScanOptions; forcing an unavailable tier falls
// back to the portable scalar ops, never to illegal instructions.
#ifndef TSUNAMI_STORAGE_SIMD_DISPATCH_H_
#define TSUNAMI_STORAGE_SIMD_DISPATCH_H_

namespace tsunami {

struct SimdOps;

/// Instruction-set tiers for the scan kernel's inner loops, ordered by
/// preference. kAuto resolves to the best runtime-supported tier.
enum class SimdTier {
  kAuto,    // Resolve to DetectSimdTier() at the call site.
  kNone,    // Portable loops: flag-array compares, set-bit folds.
  kNeon,    // ARM NEON: the portable loops, compiled for AArch64.
  kAvx2,    // 256-bit x86: movemask into the row mask, lane-mask folds.
  kAvx512,  // 512-bit x86: compares into mask registers, masked folds.
};

const char* SimdTierName(SimdTier tier);

/// True when `tier` was both compiled into this binary and is supported by
/// the CPU we are running on. kAuto and kNone are always supported.
bool SimdTierSupported(SimdTier tier);

/// Best supported tier on this machine (cached after the first call).
/// Returns kNone when the build disabled SIMD (TSUNAMI_DISABLE_SIMD), the
/// CPU has no supported extension, or the TSUNAMI_FORCE_SCALAR environment
/// variable is set non-empty/non-zero (CI's degraded-path pass).
SimdTier DetectSimdTier();

/// The inner-loop implementations for `tier`; falls back to the scalar ops
/// when the tier is unsupported, so the result is always safe to call.
const SimdOps& OpsForTier(SimdTier tier);

}  // namespace tsunami

#endif  // TSUNAMI_STORAGE_SIMD_DISPATCH_H_
