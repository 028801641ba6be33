// cas / write_min / write_max / fetch_add, including the 16-byte CAS the
// deterministic table relies on for key-value combining, and the 16-byte
// load/store/CAS path (inline VMOVDQA / CMPXCHG16B on AVX x86-64, the
// __atomic builtins elsewhere and in sanitized builds).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "phch/core/entry_traits.h"
#include "phch/parallel/atomics.h"
#include "phch/parallel/parallel_for.h"

namespace phch {
namespace {

TEST(Cas, SucceedsWhenValueMatches) {
  std::uint64_t x = 42;
  EXPECT_TRUE(cas(&x, std::uint64_t{42}, std::uint64_t{7}));
  EXPECT_EQ(x, 7u);
}

TEST(Cas, FailsWhenValueDiffers) {
  std::uint64_t x = 42;
  EXPECT_FALSE(cas(&x, std::uint64_t{41}, std::uint64_t{7}));
  EXPECT_EQ(x, 42u);
}

TEST(Cas, WorksOnPointers) {
  int a = 0;
  int b = 0;
  int* p = &a;
  EXPECT_TRUE(cas(&p, &a, &b));
  EXPECT_EQ(p, &b);
}

TEST(Cas, WorksOn32And16And8Bit) {
  std::uint32_t w = 5;
  EXPECT_TRUE(cas(&w, std::uint32_t{5}, std::uint32_t{6}));
  EXPECT_EQ(w, 6u);
  std::uint16_t h = 5;
  EXPECT_TRUE(cas(&h, std::uint16_t{5}, std::uint16_t{6}));
  EXPECT_EQ(h, 6u);
  std::uint8_t b = 5;
  EXPECT_TRUE(cas(&b, std::uint8_t{5}, std::uint8_t{6}));
  EXPECT_EQ(b, 6u);
}

TEST(Cas, SixteenByteDoubleWord) {
  kv64 x{1, 2};
  EXPECT_TRUE(cas(&x, kv64{1, 2}, kv64{3, 4}));
  EXPECT_EQ(x.k, 3u);
  EXPECT_EQ(x.v, 4u);
  EXPECT_FALSE(cas(&x, kv64{1, 2}, kv64{9, 9}));
  EXPECT_EQ(x.k, 3u);
}

TEST(Cas, SixteenByteConcurrentIncrementsLoseNoUpdates) {
  kv64 x{0, 0};
  constexpr std::size_t n = 20000;
  parallel_for(0, n, [&](std::size_t) {
    for (;;) {
      const kv64 cur = atomic_load(&x);
      if (cas(&x, cur, kv64{cur.k + 1, cur.v + 2})) return;
    }
  });
  EXPECT_EQ(x.k, n);
  EXPECT_EQ(x.v, 2 * n);
}

TEST(WriteMin, KeepsMinimumUnderContention) {
  std::uint64_t m = std::numeric_limits<std::uint64_t>::max();
  constexpr std::size_t n = 100000;
  parallel_for(0, n, [&](std::size_t i) {
    write_min(&m, hash64(i) % 1000000);
  });
  std::uint64_t expected = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < n; ++i) expected = std::min(expected, hash64(i) % 1000000);
  EXPECT_EQ(m, expected);
}

TEST(WriteMin, ReturnsTrueOnlyWhenItUpdates) {
  std::uint64_t m = 10;
  EXPECT_FALSE(write_min(&m, std::uint64_t{10}));
  EXPECT_FALSE(write_min(&m, std::uint64_t{15}));
  EXPECT_TRUE(write_min(&m, std::uint64_t{5}));
  EXPECT_EQ(m, 5u);
}

TEST(WriteMin, CustomComparator) {
  // Max-heap semantics via inverted comparator.
  int m = 0;
  EXPECT_TRUE(write_min(&m, 9, [](int a, int b) { return a > b; }));
  EXPECT_EQ(m, 9);
}

TEST(WriteMax, KeepsMaximum) {
  std::int64_t m = -1;
  constexpr std::size_t n = 50000;
  parallel_for(0, n, [&](std::size_t i) {
    write_max(&m, static_cast<std::int64_t>(hash64(i) % 999983));
  });
  std::int64_t expected = -1;
  for (std::size_t i = 0; i < n; ++i)
    expected = std::max(expected, static_cast<std::int64_t>(hash64(i) % 999983));
  EXPECT_EQ(m, expected);
}

TEST(FetchAdd, SumsUnderContention) {
  std::uint64_t sum = 0;
  constexpr std::size_t n = 100000;
  parallel_for(0, n, [&](std::size_t i) { fetch_add(&sum, i); });
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(AtomicLoadStore, RoundTrips16Bytes) {
  RecordProperty("atomic_vmovdqa", (PHCH_INLINE_ATOMIC16 && cpu_has_atomic_vmovdqa) ? 1 : 0);
  kv64 x{0, 0};
  atomic_store(&x, kv64{11, 22});
  const kv64 y = atomic_load(&x);
  EXPECT_EQ(y.k, 11u);
  EXPECT_EQ(y.v, 22u);
  // A CAS against a value that differs in only one word must fail.
  EXPECT_FALSE(cas(&x, kv64{11, 23}, kv64{5, 6}));
  EXPECT_FALSE(cas(&x, kv64{12, 22}, kv64{5, 6}));
  EXPECT_TRUE(cas(&x, y, kv64{5, 6}));
  EXPECT_EQ(atomic_load(&x), (kv64{5, 6}));
}

// Writers move one kv64 through values {x, x} (one by CAS, one by store),
// so both words change on every write; readers must never observe k != v.
template <typename Load, typename Store>
std::size_t count_torn_loads(Load load, Store store) {
  constexpr std::size_t kReaders = 2;
  constexpr std::size_t kLoadsPerReader = 1000000;
  kv64 slot{0, 0};
  std::atomic<int> writers_running{0};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> torn{0};

  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // CAS writer: {x, x} -> {x+1, x+1}
    writers_running.fetch_add(1, std::memory_order_release);
    while (!stop.load(std::memory_order_relaxed)) {
      const kv64 cur = load(&slot);
      cas(&slot, cur, kv64{cur.k + 1, cur.k + 1});
    }
  });
  threads.emplace_back([&] {  // store writer: far-away values, all bits flip
    writers_running.fetch_add(1, std::memory_order_release);
    for (std::uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
      const std::uint64_t w = ~(i * 0x9e3779b97f4a7c15ULL);
      store(&slot, kv64{w, w});
    }
  });
  for (std::size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      while (writers_running.load(std::memory_order_acquire) < 2) std::this_thread::yield();
      std::size_t bad = 0;
      for (std::size_t i = 0; i < kLoadsPerReader; ++i) {
        const kv64 c = load(&slot);
        bad += c.k != c.v;
      }
      torn.fetch_add(bad, std::memory_order_relaxed);
    });
  }
  for (std::size_t t = 2; t < threads.size(); ++t) threads[t].join();
  stop.store(true, std::memory_order_relaxed);
  threads[0].join();
  threads[1].join();
  const kv64 last = load(&slot);
  return torn.load() + (last.k != last.v);
}

TEST(Atomics, SixteenByteLoadNeverTears) {
  EXPECT_EQ(count_torn_loads([](const kv64* p) { return atomic_load(p); },
                             [](kv64* p, kv64 v) { atomic_store(p, v); }),
            0u);
}

#if PHCH_INLINE_ATOMIC16
// The path CPUs without an atomic VMOVDQA take, run here on any x86-64.
TEST(Atomics, SixteenByteCmpxchgLoadNeverTears) {
  using u128 = unsigned __int128;
  const auto load = [](const kv64* p) {
    const u128 raw = detail::load16_cmpxchg(reinterpret_cast<const u128*>(p));
    kv64 out;
    std::memcpy(&out, &raw, sizeof out);
    return out;
  };
  const auto store = [](kv64* p, kv64 v) {
    u128 raw;
    std::memcpy(&raw, &v, sizeof raw);
    detail::store16_cmpxchg(reinterpret_cast<u128*>(p), raw);
  };
  EXPECT_EQ(count_torn_loads(load, store), 0u);
  kv64 x{3, 4};
  store(&x, kv64{7, 8});
  EXPECT_EQ(load(&x), (kv64{7, 8}));
}
#endif

}  // namespace
}  // namespace phch
