// Atomic building blocks used by the hash tables and applications.
//
//  - cas(loc, old, new): the compare-and-swap from the paper's pseudocode,
//    for any trivially-copyable 1/2/4/8/16-byte type (16-byte via an
//    inline cmpxchg16b, enabled with -mcx16).
//  - atomic_load / atomic_store: sequentially consistent reads and writes
//    of the same widths.
//  - write_min / write_max: the WRITEMIN "priority update" of Shun et al.
//    (SPAA'13), used by Delaunay refinement, BFS and spanning forest for
//    deterministic conflict resolution.
//  - fetch_add wrapper (the `xadd` the paper mentions for linearHash-ND's
//    combining path).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "phch/utils/arch.h"

// 16-byte accesses (the kv64 pair slots) run inline on x86-64 when the
// compiler may emit CMPXCHG16B (-mcx16, which declares that the target has
// it) and the build is not sanitized; everywhere else they are __atomic
// builtins, which GCC lowers to libatomic calls. Sanitized builds keep the
// builtins so TSan and ASan see every slot access (neither instruments
// inline asm).
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PHCH_SANITIZED_BUILD 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PHCH_SANITIZED_BUILD 1
#endif
#if defined(__x86_64__) && defined(__GCC_HAVE_SYNC_COMPARE_AND_SWAP_16) && \
    !defined(PHCH_SANITIZED_BUILD)
#define PHCH_INLINE_ATOMIC16 1
#else
#define PHCH_INLINE_ATOMIC16 0
#endif

namespace phch {

namespace detail {
template <int Size>
struct uint_of_size;
template <>
struct uint_of_size<1> { using type = std::uint8_t; };
template <>
struct uint_of_size<2> { using type = std::uint16_t; };
template <>
struct uint_of_size<4> { using type = std::uint32_t; };
template <>
struct uint_of_size<8> { using type = std::uint64_t; };
template <>
struct uint_of_size<16> { using type = unsigned __int128; };

template <typename T>
using uint_for = typename uint_of_size<static_cast<int>(sizeof(T))>::type;

#if PHCH_INLINE_ATOMIC16
// The inline 16-byte accesses, all seq_cst, with the instructions libatomic
// picks for __atomic_*_16 on the same CPU, minus the call: a call in a
// probe loop also forces every live register around it to be spilled.
//
// With cpu_has_atomic_vmovdqa, a load is an aligned VMOVDQA (one atomic
// access on those CPUs) and a store is VMOVDQA then MFENCE: on x86 a plain
// load is seq_cst when every seq_cst store is followed by a full fence.
// Without it, both go through LOCK CMPXCHG16B, as libatomic does there. A
// locked instruction is a full barrier. The "memory" clobbers (implicit in
// the __sync builtins) keep the compiler from moving other accesses across
// any of them.
using u64x2 = unsigned long long __attribute__((vector_size(16)));

inline unsigned __int128 load16_vmovdqa(const unsigned __int128* p) noexcept {
  std::uint64_t lo, hi;
  u64x2 tmp;
  // phch_lint: order(seq_cst)
  asm volatile("vmovdqa %3, %2\n\tvmovq %2, %0\n\tvpextrq $1, %2, %1"
               : "=r"(lo), "=r"(hi), "=x"(tmp)
               : "m"(*p)
               : "memory");
  return (static_cast<unsigned __int128>(hi) << 64) | lo;
}

inline void store16_vmovdqa(unsigned __int128* p, unsigned __int128 v) noexcept {
  const auto lo = static_cast<std::uint64_t>(v);
  const auto hi = static_cast<std::uint64_t>(v >> 64);
  u64x2 tmp;
  // phch_lint: order(seq_cst)
  asm volatile("vmovq %2, %1\n\tvpinsrq $1, %3, %1, %1\n\tvmovdqa %1, %0\n\tmfence"
               : "=m"(*p), "=x"(tmp)
               : "r"(lo), "r"(hi)
               : "memory");
}

// A CAS of 0 for 0 returns the current value and leaves the slot as it
// was, so the slot must be writable, as libatomic's load also requires.
inline unsigned __int128 load16_cmpxchg(const unsigned __int128* p) noexcept {
  return __sync_val_compare_and_swap(const_cast<unsigned __int128*>(p), 0, 0);
}

inline void store16_cmpxchg(unsigned __int128* p, unsigned __int128 v) noexcept {
  unsigned __int128 seen = 0;
  for (;;) {
    const unsigned __int128 prev = __sync_val_compare_and_swap(p, seen, v);
    if (prev == seen) return;
    seen = prev;
  }
}
#endif

// Sequentially consistent raw-word accesses: inline for 16-byte words on
// x86-64 (above), the __atomic builtins otherwise.
template <typename U>
inline bool cas_raw(U* p, U expected, U desired) noexcept {
#if PHCH_INLINE_ATOMIC16
  if constexpr (sizeof(U) == 16) return __sync_bool_compare_and_swap(p, expected, desired);
#endif
  return __atomic_compare_exchange_n(p, &expected, desired, /*weak=*/false,
                                     __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST);
}

template <typename U>
inline U load_raw(const U* p) noexcept {
#if PHCH_INLINE_ATOMIC16
  if constexpr (sizeof(U) == 16) {
    return __builtin_expect(cpu_has_atomic_vmovdqa, 1) ? load16_vmovdqa(p) : load16_cmpxchg(p);
  }
#endif
  return __atomic_load_n(p, __ATOMIC_SEQ_CST);
}

template <typename U>
inline void store_raw(U* p, U v) noexcept {
#if PHCH_INLINE_ATOMIC16
  if constexpr (sizeof(U) == 16) {
    if (__builtin_expect(cpu_has_atomic_vmovdqa, 1)) return store16_vmovdqa(p, v);
    return store16_cmpxchg(p, v);
  }
#endif
  __atomic_store_n(p, v, __ATOMIC_SEQ_CST);
}

// 16-byte atomics fault on a misaligned address, inline or in libatomic.
template <typename T>
inline constexpr bool atomic_width_ok =
    std::is_trivially_copyable_v<T> && (sizeof(T) != 16 || alignof(T) >= 16);
}  // namespace detail

// Atomically: if (*loc == old_v) { *loc = new_v; return true; } else false.
// T must be trivially copyable and of width 1, 2, 4, 8, or 16 bytes (the
// last 16-byte aligned).
template <typename T>
inline bool cas(T* loc, T old_v, T new_v) noexcept {
  static_assert(detail::atomic_width_ok<T>);
  using U = detail::uint_for<T>;
  U expected;
  U desired;
  std::memcpy(&expected, &old_v, sizeof(T));
  std::memcpy(&desired, &new_v, sizeof(T));
  return detail::cas_raw(reinterpret_cast<U*>(loc), expected, desired);
}

// Atomic load with sequential consistency (paired with cas above; the
// pseudocode reads M[i] directly, so this is the "plain read" of the paper
// made explicit).
template <typename T>
inline T atomic_load(const T* loc) noexcept {
  static_assert(detail::atomic_width_ok<T>);
  using U = detail::uint_for<T>;
  const U raw = detail::load_raw(reinterpret_cast<const U*>(loc));
  T out;
  std::memcpy(&out, &raw, sizeof(T));
  return out;
}

template <typename T>
inline void atomic_store(T* loc, T v) noexcept {
  static_assert(detail::atomic_width_ok<T>);
  using U = detail::uint_for<T>;
  U raw;
  std::memcpy(&raw, &v, sizeof(T));
  detail::store_raw(reinterpret_cast<U*>(loc), raw);
}

// WRITEMIN: stores val at loc iff val < *loc (by Less); returns true iff it
// performed the update. Deterministic regardless of arrival order: the
// minimum value wins.
template <typename T, typename Less = std::less<T>>
inline bool write_min(T* loc, T val, Less less = Less{}) noexcept {
  T cur = atomic_load(loc);
  while (less(val, cur)) {
    if (cas(loc, cur, val)) return true;
    cur = atomic_load(loc);
  }
  return false;
}

// WRITEMAX: dual of write_min; the maximum value wins.
template <typename T, typename Less = std::less<T>>
inline bool write_max(T* loc, T val, Less less = Less{}) noexcept {
  T cur = atomic_load(loc);
  while (less(cur, val)) {
    if (cas(loc, cur, val)) return true;
    cur = atomic_load(loc);
  }
  return false;
}

// Atomic fetch-and-add (hardware xadd for integral T).
template <typename T>
inline T fetch_add(T* loc, T delta) noexcept {
  return __atomic_fetch_add(loc, delta, __ATOMIC_SEQ_CST);
}

}  // namespace phch
