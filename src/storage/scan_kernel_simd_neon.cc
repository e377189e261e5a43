// NEON tier (AArch64). NEON is baseline on AArch64, so this TU needs no
// special arch flags and compiles to a null accessor on other
// architectures. Its table points at the portable mask and fold loops,
// which the compiler auto-vectorizes for NEON; lane-parallel NEON bodies
// can replace individual entries once they can be built and tested on an
// AArch64 host.
#include "src/storage/scan_kernel_simd.h"

#if defined(__aarch64__) && defined(__ARM_NEON) && \
    !defined(TSUNAMI_DISABLE_SIMD)

namespace tsunami {

const SimdOps* NeonSimdOps() {
  static const SimdOps ops = [] {
    SimdOps neon = ScalarSimdOps();
    neon.name = "neon";
    return neon;
  }();
  return &ops;
}

}  // namespace tsunami

#else  // !__aarch64__ || TSUNAMI_DISABLE_SIMD

namespace tsunami {
const SimdOps* NeonSimdOps() { return nullptr; }
}  // namespace tsunami

#endif
