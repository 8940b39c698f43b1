#include "util/cpu_features.h"

#include <thread>

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#define XAOS_CPU_X86 1
#if defined(__GNUC__) || defined(__clang__)
#include <cpuid.h>
#endif
#endif

namespace xaos::util {
namespace {

CpuFeatures Detect() {
  CpuFeatures features;
  features.hardware_concurrency = std::thread::hardware_concurrency();
#if defined(XAOS_CPU_X86) && (defined(__GNUC__) || defined(__clang__))
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0) {
    features.sse2 = (edx & (1u << 26)) != 0;
    features.popcnt = (ecx & (1u << 23)) != 0;
    const bool osxsave = (ecx & (1u << 27)) != 0;
    const bool avx_bit = (ecx & (1u << 28)) != 0;
    bool ymm_enabled = false;
    if (osxsave) {
      // xgetbv(0): bits 1 (SSE) and 2 (YMM) must both be OS-managed.
      unsigned xcr0_lo, xcr0_hi;
      __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
      ymm_enabled = (xcr0_lo & 0x6) == 0x6;
    }
    features.avx = avx_bit && ymm_enabled;
    if (features.avx) {
      unsigned eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
      if (__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7) != 0) {
        features.avx2 = (ebx7 & (1u << 5)) != 0;
      }
    }
  }
#endif
  return features;
}

}  // namespace

const CpuFeatures& DetectCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

std::string CpuFeatureSummary() {
  const CpuFeatures& features = DetectCpuFeatures();
  std::string out;
  auto add = [&out](const char* name) {
    if (!out.empty()) out += ',';
    out += name;
  };
  if (features.sse2) add("sse2");
  if (features.avx) add("avx");
  if (features.avx2) add("avx2");
  if (out.empty()) out = "none";
  return out;
}

}  // namespace xaos::util
