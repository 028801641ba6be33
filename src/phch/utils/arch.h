// Architecture detection, the portable spin-wait hint, and the one-time
// CPU feature probe behind the inline 16-byte atomic loads and stores.
//
// The spin-wait sites (parallel/spinlock.h, room_sync, growable_table, the
// scheduler) want the cheapest "I am busy-waiting" hint the core offers.
// Centralizing the #ifdef ladder here keeps every site in sync and keeps
// <immintrin.h> from being included unconditionally on non-x86 builds; it
// is the one header allowed to include an intrinsics header.
#pragma once

#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#define PHCH_ARCH_X86 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define PHCH_ARCH_X86 0
#endif

#if defined(__aarch64__)
#define PHCH_ARCH_AARCH64 1
#else
#define PHCH_ARCH_AARCH64 0
#endif

namespace phch {

// One busy-wait iteration's worth of politeness: tells the core to stall
// the speculative pipeline / release shared resources while another thread
// makes progress. Never a syscall except on ISAs with no hint at all.
inline void cpu_relax() noexcept {
#if PHCH_ARCH_X86
  _mm_pause();
#elif PHCH_ARCH_AARCH64
  // ISB stalls longer than YIELD (which many cores treat as a NOP), making
  // it the closer analogue of x86 PAUSE for spin-wait loops.
  asm volatile("isb" ::: "memory");
#elif defined(__ARM_ARCH)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

namespace detail {

// Whether an aligned 16-byte VMOVDQA is a single atomic access: the CPU is
// Intel or AMD, enumerates AVX, and the OS has enabled the XMM/YMM state.
// Intel SDM Vol. 3A §9.1.1 and AMD APM Vol. 2 §7.3.2 guarantee atomicity of
// aligned 16-byte (V)MOVDQA accesses on such processors. libatomic's ifunc
// resolver applies the same test to pick VMOVDQA for __atomic_load_16 and
// __atomic_store_16.
inline bool probe_atomic_vmovdqa() noexcept {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(0, &eax, &ebx, &ecx, &edx)) return false;
  const bool intel = ebx == signature_INTEL_ebx && ecx == signature_INTEL_ecx &&
                     edx == signature_INTEL_edx;
  const bool amd = ebx == signature_AMD_ebx && ecx == signature_AMD_ecx &&
                   edx == signature_AMD_edx;
  if (!intel && !amd) return false;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  constexpr unsigned need = bit_AVX | bit_OSXSAVE;
  if ((ecx & need) != need) return false;
  unsigned xcr0_lo = 0, xcr0_hi = 0;
  asm volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0u));
  return (xcr0_lo & 0x6u) == 0x6u;  // XMM and YMM state enabled
#else
  return false;
#endif
}

}  // namespace detail

// Resolved once, during static initialization. A read before that
// initializer has run sees false and takes the LOCK CMPXCHG16B path, which
// is atomic on every CPU that has the instruction, so the paths may mix.
inline const bool cpu_has_atomic_vmovdqa = detail::probe_atomic_vmovdqa();

}  // namespace phch
