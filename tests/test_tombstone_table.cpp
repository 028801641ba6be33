// Tombstone-deletion baseline (Gao et al. style): correct set semantics,
// monotone footprint growth under churn (the failure mode that motivates
// back-shift deletion), and compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "phch/core/nd_linear_table.h"
#include "phch/core/tombstone_table.h"
#include "table_test_util.h"

namespace phch {
namespace {

using ttable = tombstone_table<int_entry<>>;

TEST(TombstoneTable, InsertFindErase) {
  ttable t(64);
  t.insert(5);
  t.insert(6);
  EXPECT_TRUE(t.contains(5));
  t.erase(5);
  EXPECT_FALSE(t.contains(5));
  EXPECT_TRUE(t.contains(6));
  EXPECT_EQ(t.count(), 1u);
}

TEST(TombstoneTable, DeletedSlotBecomesTombstoneNotEmpty) {
  ttable t(64);
  t.insert(5);
  t.erase(5);
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(t.footprint(), 1u);  // the tombstone lingers
}

TEST(TombstoneTable, FindsSkipTombstonesOnProbePath) {
  // Force two keys into one cluster, delete the first, second stays
  // reachable through the tombstone.
  ttable t(1 << 10);
  const auto keys = test::unique_keys(400, 3);
  test::parallel_insert(t, keys);
  const std::vector<std::uint64_t> dels(keys.begin(), keys.begin() + 200);
  test::parallel_erase(t, dels);
  for (std::size_t i = 200; i < keys.size(); ++i) ASSERT_TRUE(t.contains(keys[i]));
  for (const auto d : dels) ASSERT_FALSE(t.contains(d));
}

TEST(TombstoneTable, SetSemanticsUnderConcurrency) {
  ttable t(1 << 14);
  const auto keys = test::dup_keys(8000, 5000, 7);
  test::parallel_insert(t, keys);
  const std::set<std::uint64_t> ref(keys.begin(), keys.end());
  EXPECT_EQ(t.count(), ref.size());
  auto elems = t.elements();
  std::sort(elems.begin(), elems.end());
  EXPECT_TRUE(std::equal(elems.begin(), elems.end(), ref.begin(), ref.end()));
}

TEST(TombstoneTable, FootprintGrowsMonotonicallyUnderChurn) {
  // The headline defect: churn with a bounded live set keeps growing the
  // footprint, while the back-shifting tables stay at the live size.
  ttable tomb(1 << 12);
  nd_linear_table<int_entry<>> shift(1 << 12);
  std::size_t last_footprint = 0;
  for (int round = 0; round < 6; ++round) {
    const auto keys = test::unique_keys(300, 50 + round);
    test::parallel_insert(tomb, keys);
    test::parallel_insert(shift, keys);
    test::parallel_erase(tomb, keys);
    test::parallel_erase(shift, keys);
    EXPECT_EQ(tomb.count(), 0u);
    EXPECT_EQ(shift.count(), 0u);
    EXPECT_GE(tomb.footprint(), last_footprint);
    last_footprint = tomb.footprint();
  }
  EXPECT_GT(last_footprint, 1000u);  // ~6 rounds x 300 keys of garbage
  // The back-shift table carries no garbage at all.
  for (std::size_t s = 0; s < shift.capacity(); ++s) {
    ASSERT_TRUE(int_entry<>::is_empty(shift.raw_slots()[s]));
  }
}

TEST(TombstoneTable, ChurnEventuallyOverflowsWithoutCompaction) {
  ttable t(1 << 8);  // 256 slots
  EXPECT_THROW(
      {
        for (int round = 0; round < 100; ++round) {
          const auto keys = test::unique_keys(100, 500 + round);
          for (const auto k : keys) t.insert(k);
          for (const auto k : keys) t.erase(k);
        }
      },
      table_full_error);
}

// Churn until every slot is a tombstone: inserts then report the table
// full (tombstones are never reused), while finds and erases of absent keys
// sweep the whole array once and resolve as a miss / no-op.
TEST(TombstoneTable, GarbageFullTableStaysBounded) {
  ttable t(16);
  bool filled = false;
  for (std::uint64_t k = 1; k <= 64; ++k) {
    try {
      t.insert(k);
    } catch (const table_full_error&) {
      filled = true;
      break;
    }
    t.erase(k);
  }
  ASSERT_TRUE(filled);
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(t.footprint(), t.capacity());
  EXPECT_FALSE(t.contains(12345));
  t.erase(54321);
  EXPECT_EQ(t.footprint(), t.capacity());
}

TEST(TombstoneTable, CompactReclaimsTombstones) {
  ttable t(1 << 10);
  const auto keys = test::unique_keys(300, 11);
  test::parallel_insert(t, keys);
  test::parallel_erase(
      t, std::vector<std::uint64_t>(keys.begin(), keys.begin() + 250));
  EXPECT_GT(t.footprint(), t.count());
  t.compact();
  EXPECT_EQ(t.footprint(), t.count());
  EXPECT_EQ(t.count(), 50u);
  for (std::size_t i = 250; i < keys.size(); ++i) ASSERT_TRUE(t.contains(keys[i]));
}

TEST(TombstoneTable, CombiningStillWorks) {
  tombstone_table<pair_entry<combine_add>> t(1 << 10);
  parallel_for(0, 10000, [&](std::size_t i) { t.insert(kv64{1 + (i % 4), 1}); });
  std::uint64_t total = 0;
  for (std::uint64_t k = 1; k <= 4; ++k) total += t.find(k).v;
  EXPECT_EQ(total, 10000u);
}

}  // namespace
}  // namespace phch
