// Runtime CPU feature detection for the vectorized hot paths.
//
// The structural scanner (xml/structural_scanner.h) picks its kernel from a
// function-pointer table at startup; this module answers "what can this
// machine actually run" via cpuid, independently of what the compiler was
// allowed to emit. AVX2 additionally requires the OS to save the YMM state
// (xgetbv), so a hypervisor that masks OSXSAVE correctly demotes us to SSE2.

#ifndef XAOS_UTIL_CPU_FEATURES_H_
#define XAOS_UTIL_CPU_FEATURES_H_

#include <string>

namespace xaos::util {

struct CpuFeatures {
  bool sse2 = false;
  bool avx = false;   // AVX usable: cpuid bit + OS ymm-state support
  bool avx2 = false;  // implies `avx`
  bool popcnt = false;  // the POPCNT instruction (not a SIMD level: left
                        // out of CpuFeatureSummary)
  unsigned hardware_concurrency = 0;
};

// Detected once on first call, then cached (detection is pure cpuid reads,
// so caching is only about not paying the serializing instructions twice).
const CpuFeatures& DetectCpuFeatures();

// Comma-separated list of the detected SIMD tiers, e.g. "sse2,avx2" —
// recorded into BENCH_*.json so the regression gate can tell when baseline
// and candidate ran on machines with different vector capabilities.
std::string CpuFeatureSummary();

}  // namespace xaos::util

#endif  // XAOS_UTIL_CPU_FEATURES_H_
