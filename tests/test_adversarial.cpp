// Adversarial scenarios for the linear-probing tables: degenerate hash
// functions (everything in one cluster), minimal capacities, completely
// full tables, keys adjacent to the sentinel values, and wraparound-heavy
// layouts. These target the unwrapped-index arithmetic and the
// cluster-relative comparisons of the paper's Figure 1 pseudocode.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/nd_linear_table.h"
#include "phch/core/serial_table.h"
#include "phch/core/tombstone_table.h"
#include "table_test_util.h"

namespace phch {
namespace {

// All keys hash to slot 0: one giant cluster, maximal displacement, every
// probe comparison exercised.
struct one_home_entry : int_entry<> {
  static std::uint64_t hash(std::uint64_t) noexcept { return 0; }
};

// All keys hash to the LAST slot: every probe path wraps around the array.
struct last_home_entry : int_entry<> {
  static std::uint64_t hash(std::uint64_t) noexcept {
    return ~std::uint64_t{0};  // masked to capacity-1 by the table
  }
};

template <typename T>
class DegenerateHash : public ::testing::Test {};

using DegenerateTraits = ::testing::Types<one_home_entry, last_home_entry>;
TYPED_TEST_SUITE(DegenerateHash, DegenerateTraits);

TYPED_TEST(DegenerateHash, SingleClusterInsertFindDelete) {
  deterministic_table<TypeParam> t(256);
  for (std::uint64_t k = 1; k <= 128; ++k) t.insert(k);
  EXPECT_EQ(t.count(), 128u);
  for (std::uint64_t k = 1; k <= 128; ++k) ASSERT_TRUE(t.contains(k));
  ASSERT_FALSE(t.contains(999));
  for (std::uint64_t k = 1; k <= 128; k += 2) t.erase(k);
  EXPECT_EQ(t.count(), 64u);
  for (std::uint64_t k = 2; k <= 128; k += 2) ASSERT_TRUE(t.contains(k));
  for (std::uint64_t k = 1; k <= 128; k += 2) ASSERT_FALSE(t.contains(k));
}

TYPED_TEST(DegenerateHash, SingleClusterIsSortedByPriority) {
  // With one home slot, the ordering invariant forces a descending-priority
  // run starting at the home position.
  deterministic_table<TypeParam> t(64);
  for (std::uint64_t k = 1; k <= 20; ++k) t.insert(k);
  const std::size_t home = TypeParam::hash(1) & (t.capacity() - 1);
  for (std::size_t d = 0; d + 1 < 20; ++d) {
    const auto a = t.raw_slots()[(home + d) & (t.capacity() - 1)];
    const auto b = t.raw_slots()[(home + d + 1) & (t.capacity() - 1)];
    ASSERT_TRUE(TypeParam::priority_less(b, a)) << d;
  }
}

TYPED_TEST(DegenerateHash, ConcurrentSingleClusterMatchesSerial) {
  const auto keys = test::unique_keys(100, 3);
  deterministic_table<TypeParam> par(512);
  serial_table_hi<TypeParam> ser(512);
  test::parallel_insert(par, keys);
  for (const auto k : keys) ser.insert(k);
  for (std::size_t s = 0; s < par.capacity(); ++s) {
    ASSERT_EQ(par.raw_slots()[s], ser.raw_slots()[s]);
  }
  const std::vector<std::uint64_t> dels(keys.begin(), keys.begin() + 60);
  test::parallel_erase(par, dels);
  for (const auto d : dels) ser.erase(d);
  for (std::size_t s = 0; s < par.capacity(); ++s) {
    ASSERT_EQ(par.raw_slots()[s], ser.raw_slots()[s]);
  }
}

TYPED_TEST(DegenerateHash, NdTableSurvivesSingleCluster) {
  nd_linear_table<TypeParam> t(256);
  const auto keys = test::unique_keys(100, 5);
  test::parallel_insert(t, keys);
  EXPECT_EQ(t.count(), keys.size());
  test::parallel_erase(t, keys);
  EXPECT_EQ(t.count(), 0u);
}

TEST(Adversarial, MinimumCapacityTable) {
  deterministic_table<int_entry<>> t(2);
  t.insert(7);
  EXPECT_TRUE(t.contains(7));
  t.erase(7);
  EXPECT_FALSE(t.contains(7));
  t.insert(9);
  EXPECT_THROW(
      {
        t.insert(10);
        t.insert(11);  // would fill the 2-slot table
      },
      table_full_error);
}

TEST(Adversarial, KeysAdjacentToSentinels) {
  // max is empty, max-1 is the hopscotch BUSY marker; max-2 must be a
  // perfectly ordinary key for the linear tables.
  const std::uint64_t k = int_entry<>::empty() - 2;
  deterministic_table<int_entry<>> t(64);
  t.insert(k);
  t.insert(1);
  EXPECT_TRUE(t.contains(k));
  t.erase(k);
  EXPECT_FALSE(t.contains(k));
  EXPECT_TRUE(t.contains(1));
}

TEST(Adversarial, DeleteEverythingFromWrappedCluster) {
  // Nearly fill a tiny table so the single cluster wraps; then delete in
  // shuffled order and confirm perfect cleanup.
  deterministic_table<last_home_entry> t(32);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; k <= 24; ++k) keys.push_back(k);
  test::parallel_insert(t, keys);
  test::parallel_erase(t, test::shuffled(keys, 9));
  for (std::size_t s = 0; s < t.capacity(); ++s) {
    ASSERT_TRUE(last_home_entry::is_empty(t.raw_slots()[s]));
  }
}

TEST(Adversarial, AlternatingHomesInterleaveClusters) {
  // Keys map to two homes half a table apart; clusters grow toward each
  // other. Tests that cluster-boundary logic doesn't leak between them.
  struct two_home_entry : int_entry<> {
    static std::uint64_t hash(std::uint64_t k) noexcept { return (k & 1) ? 32 : 0; }
  };
  deterministic_table<two_home_entry> t(64);
  for (std::uint64_t k = 1; k <= 50; ++k) t.insert(k);
  EXPECT_EQ(t.count(), 50u);
  for (std::uint64_t k = 1; k <= 50; ++k) ASSERT_TRUE(t.contains(k));
  for (std::uint64_t k = 1; k <= 50; k += 3) t.erase(k);
  for (std::uint64_t k = 1; k <= 50; ++k) {
    ASSERT_EQ(t.contains(k), k % 3 != 1) << k;
  }
}

TEST(Adversarial, EraseDuringEraseOfNeighborKeysStress) {
  // Dense cluster, concurrent deletes of interleaved subsets, repeated.
  for (int rep = 0; rep < 20; ++rep) {
    deterministic_table<one_home_entry> t(128);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; k <= 90; ++k) keys.push_back(k);
    test::parallel_insert(t, keys);
    // Two overlapping delete sets issued concurrently (duplicates included).
    std::vector<std::uint64_t> dels;
    for (std::uint64_t k = 1; k <= 90; ++k) {
      dels.push_back(k);
      if (k % 2 == 0) dels.push_back(k);
    }
    test::parallel_erase(t, test::shuffled(dels, static_cast<std::uint64_t>(rep)));
    ASSERT_EQ(t.count(), 0u) << "rep " << rep;
  }
}

TEST(Adversarial, SerialTablesAgreeOnDegenerateHash) {
  serial_table_hi<one_home_entry> hi(128);
  serial_table_hd<one_home_entry> hd(128);
  for (std::uint64_t k = 1; k <= 60; ++k) {
    hi.insert(k);
    hd.insert(k);
  }
  for (std::uint64_t k = 1; k <= 60; k += 2) {
    hi.erase(k);
    hd.erase(k);
  }
  const auto ea = hi.elements();
  const auto eb = hd.elements();
  const std::set<std::uint64_t> a(ea.begin(), ea.end());
  const std::set<std::uint64_t> b(eb.begin(), eb.end());
  EXPECT_EQ(a, b);
}

// --- completely full tables ------------------------------------------------
//
// A table holding `capacity` keys has no empty slot, so every probe that
// finds no stop wraps the whole array. Find and erase must still end with
// the right answer: a full sweep means "absent", FindReplacement treats the
// wrap back to the hole as ⊥, and erasing any one key (or an absent one)
// leaves exactly the others. For linearHash-D the layout must also equal a
// fresh build of the remaining keys (history independence). Scalar
// operations and the batch engine are checked alike.

template <typename T>
class FullTable : public ::testing::Test {};

using FullTableTypes =
    ::testing::Types<deterministic_table<int_entry<>>, nd_linear_table<int_entry<>>,
                     tombstone_table<int_entry<>>,
                     deterministic_table<last_home_entry>,
                     nd_linear_table<last_home_entry>>;
TYPED_TEST_SUITE(FullTable, FullTableTypes);

// Keys 1..cap into a table of capacity cap: every slot is live.
template <typename Table>
std::vector<std::uint64_t> fill_full(Table& t, std::uint64_t cap) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; k <= cap; ++k) {
    t.insert(k);
    keys.push_back(k);
  }
  return keys;
}

// The table holds exactly `want`; under prioritized order its layout is
// the layout of a fresh build of `want`.
template <typename Table>
void expect_exactly(const Table& t, std::vector<std::uint64_t> want) {
  std::sort(want.begin(), want.end());
  auto got = t.elements();
  std::sort(got.begin(), got.end());
  ASSERT_EQ(got, want);
  for (const auto k : want) ASSERT_TRUE(t.contains(k)) << k;
  if constexpr (Table::ordered_probes) {
    Table fresh(t.capacity());
    for (const auto k : want) fresh.insert(k);
    for (std::size_t s = 0; s < t.capacity(); ++s) {
      ASSERT_TRUE(bits_equal(t.raw_slots()[s], fresh.raw_slots()[s])) << "slot " << s;
    }
  }
}

std::vector<std::uint64_t> without(const std::vector<std::uint64_t>& keys,
                                   std::uint64_t victim) {
  std::vector<std::uint64_t> rest;
  for (const auto k : keys) {
    if (k != victim) rest.push_back(k);
  }
  return rest;
}

TYPED_TEST(FullTable, FindSweepsToAbsent) {
  TypeParam t(8);
  const auto keys = fill_full(t, 8);
  ASSERT_EQ(t.capacity(), 8u);
  ASSERT_EQ(t.count(), 8u);
  std::vector<std::uint64_t> qs;
  for (std::uint64_t k = 1; k <= 64; ++k) qs.push_back(k);
  for (const auto k : qs) ASSERT_EQ(t.contains(k), k <= 8) << k;
  const auto out = find_batch(t, qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    if (qs[i] <= 8) {
      ASSERT_EQ(out[i], qs[i]);
    } else {
      ASSERT_TRUE(TypeParam::traits::is_empty(out[i])) << qs[i];
    }
  }
  expect_exactly(t, keys);
}

TYPED_TEST(FullTable, ScalarEraseOfEveryVictim) {
  for (std::uint64_t victim = 1; victim <= 9; ++victim) {  // 9 is absent
    TypeParam t(8);
    const auto keys = fill_full(t, 8);
    t.erase(victim);
    expect_exactly(t, without(keys, victim));
  }
}

TYPED_TEST(FullTable, BatchEraseOfEveryVictim) {
  for (std::uint64_t victim = 1; victim <= 9; ++victim) {  // 9 is absent
    TypeParam t(8);
    const auto keys = fill_full(t, 8);
    erase_batch(t, std::vector<std::uint64_t>{victim});
    expect_exactly(t, without(keys, victim));
  }
}

TYPED_TEST(FullTable, ConcurrentEraseFromFullTable) {
  for (std::uint64_t rep = 0; rep < 10; ++rep) {
    TypeParam scalar(64), batched(64);
    const auto keys = fill_full(scalar, 64);
    fill_full(batched, 64);
    std::vector<std::uint64_t> dels, rest;
    for (const auto k : keys) (k % 3 == rep % 3 ? dels : rest).push_back(k);
    dels.push_back(1000 + rep);  // absent
    dels = test::shuffled(dels, rep);
    test::parallel_erase(scalar, dels);
    erase_batch(batched, dels);
    expect_exactly(scalar, rest);
    expect_exactly(batched, rest);
  }
}

}  // namespace
}  // namespace phch
