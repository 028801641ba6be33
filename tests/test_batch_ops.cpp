// Batched operations with software-pipelined (AMAC-style) probing:
// identical semantics — and for deterministic tables identical *layouts* —
// to per-op scalar calls, on every workload distribution and pipeline
// width.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/nd_linear_table.h"
#include "phch/core/table_concepts.h"
#include "phch/core/tombstone_table.h"
#include "phch/workloads/sequences.h"
#include "phch/workloads/trigram.h"
#include "table_test_util.h"

namespace phch {
namespace {

template <typename Table>
void expect_same_layout(const Table& a, const Table& b) {
  ASSERT_EQ(a.capacity(), b.capacity());
  for (std::size_t s = 0; s < a.capacity(); ++s) {
    ASSERT_TRUE(bits_equal(a.raw_slots()[s], b.raw_slots()[s])) << "slot " << s;
  }
}

TEST(BatchOps, InsertBatchEqualsPerOpLayout) {
  const auto keys = test::dup_keys(20000, 12000, 3);
  deterministic_table<int_entry<>> a(1 << 16);
  deterministic_table<int_entry<>> b(1 << 16);
  insert_batch(a, keys);
  test::parallel_insert(b, keys);
  expect_same_layout(a, b);
}

TEST(BatchOps, FindBatchMatchesPerOpFinds) {
  const auto keys = test::unique_keys(5000, 5);
  deterministic_table<int_entry<>> t(1 << 14);
  insert_batch(t, keys);
  std::vector<std::uint64_t> queries = keys;
  queries.push_back(999999999ULL);  // absent
  queries.push_back(888888888ULL);
  const auto out = find_batch(t, queries);
  ASSERT_EQ(out.size(), queries.size());
  for (std::size_t i = 0; i < keys.size(); ++i) ASSERT_EQ(out[i], keys[i]);
  EXPECT_TRUE(int_entry<>::is_empty(out[keys.size()]));
  EXPECT_TRUE(int_entry<>::is_empty(out[keys.size() + 1]));
}

TEST(BatchOps, EraseBatchRemovesExactlyTheBatch) {
  const auto keys = test::unique_keys(6000, 7);
  deterministic_table<int_entry<>> t(1 << 14);
  insert_batch(t, keys);
  const std::vector<std::uint64_t> dels(keys.begin(), keys.begin() + 2500);
  erase_batch(t, dels);
  EXPECT_EQ(t.count(), keys.size() - dels.size());
  for (std::size_t i = 2500; i < keys.size(); ++i) ASSERT_TRUE(t.contains(keys[i]));
  for (const auto d : dels) ASSERT_FALSE(t.contains(d));
}

TEST(BatchOps, WorksOnNdTable) {
  const auto keys = test::unique_keys(4000, 9);
  nd_linear_table<int_entry<>> t(1 << 13);
  insert_batch(t, keys);
  EXPECT_EQ(t.count(), keys.size());
  const auto out = find_batch(t, keys);
  for (std::size_t i = 0; i < keys.size(); ++i) ASSERT_EQ(out[i], keys[i]);
  erase_batch(t, keys);
  EXPECT_EQ(t.count(), 0u);
}

TEST(BatchOps, PairEntriesWithCombining) {
  deterministic_table<pair_entry<combine_add>> t(1 << 12);
  const auto batch = tabulate(10000, [](std::size_t i) {
    return kv64{1 + (i % 5), 1};
  });
  insert_batch(t, batch);
  const std::vector<std::uint64_t> qs{1, 2, 3, 4, 5};
  const auto out = find_batch(t, qs);
  std::uint64_t total = 0;
  for (const auto& e : out) total += e.v;
  EXPECT_EQ(total, 10000u);
}

TEST(BatchOps, TinyBatches) {
  deterministic_table<int_entry<>> t(64);
  insert_batch(t, std::vector<std::uint64_t>{});
  insert_batch(t, std::vector<std::uint64_t>{7});
  EXPECT_TRUE(t.contains(7));
  EXPECT_TRUE(find_batch(t, std::vector<std::uint64_t>{}).empty());
}

// --- pipelined engine vs scalar, all six paper distributions ---------------
//
// The deterministic table's layout after insert_batch must be bit-identical
// to the layout after a scalar parallel insert loop (Theorem 1 makes that
// the uniquely determined layout), and pipelined finds/erases must agree
// with scalar ones element for element.

template <typename Traits, typename Seq, typename Keys>
void check_pipelined_vs_scalar(const Seq& input, const Keys& queries,
                               std::size_t capacity) {
  deterministic_table<Traits> piped(capacity);
  deterministic_table<Traits> scalar(capacity);
  insert_batch(piped, input);
  insert_batch_scalar(scalar, input);
  expect_same_layout(piped, scalar);
  EXPECT_TRUE((test::ordering_invariant_holds<Traits>(piped.raw_slots(),
                                                      piped.capacity())));

  const auto via_pipe = find_batch(piped, queries);
  const auto via_scalar = find_batch_scalar(scalar, queries);
  ASSERT_EQ(via_pipe.size(), via_scalar.size());
  for (std::size_t i = 0; i < via_pipe.size(); ++i) {
    ASSERT_TRUE(bits_equal(via_pipe[i], via_scalar[i])) << "query " << i;
  }

  // Erase every other query key through both paths; layouts must stay equal.
  Keys dels;
  for (std::size_t i = 0; i < queries.size(); i += 2) dels.push_back(queries[i]);
  erase_batch(piped, dels);
  erase_batch_scalar(scalar, dels);
  expect_same_layout(piped, scalar);
}

TEST(BatchOpsDistributions, RandomInt) {
  const auto seq = workloads::random_int_seq(20000, 11);
  std::vector<std::uint64_t> qs(seq.begin(), seq.begin() + 4000);
  qs.push_back(1ULL << 50);  // absent
  check_pipelined_vs_scalar<int_entry<>>(seq, qs, 1 << 16);
}

TEST(BatchOpsDistributions, ExptInt) {
  const auto seq = workloads::expt_int_seq(20000, 12);
  std::vector<std::uint64_t> qs(seq.begin(), seq.begin() + 4000);
  qs.push_back(1ULL << 50);
  check_pipelined_vs_scalar<int_entry<>>(seq, qs, 1 << 16);
}

TEST(BatchOpsDistributions, RandomPairInt) {
  const auto seq = workloads::random_pair_seq(16000, 13);
  std::vector<std::uint64_t> qs;
  for (std::size_t i = 0; i < 3000; ++i) qs.push_back(seq[i].k);
  check_pipelined_vs_scalar<pair_entry<combine_min>>(seq, qs, 1 << 16);
}

TEST(BatchOpsDistributions, ExptPairInt) {
  const auto seq = workloads::expt_pair_seq(16000, 14);
  std::vector<std::uint64_t> qs;
  for (std::size_t i = 0; i < 3000; ++i) qs.push_back(seq[i].k);
  check_pipelined_vs_scalar<pair_entry<combine_add>>(seq, qs, 1 << 16);
}

// String keys are stored by pointer and trigram sequences repeat contents at
// distinct addresses; without a combine function the surviving *pointer* is
// arrival-order-dependent even though the surviving key contents are not, so
// the string distributions are compared by contents rather than raw bits.
TEST(BatchOpsDistributions, TrigramString) {
  const auto words = workloads::trigram_string_seq(8000, 15);
  deterministic_table<string_entry> piped(1 << 15);
  deterministic_table<string_entry> scalar(1 << 15);
  insert_batch(piped, words.keys);
  insert_batch_scalar(scalar, words.keys);
  EXPECT_TRUE((test::ordering_invariant_holds<string_entry>(piped.raw_slots(),
                                                            piped.capacity())));
  const auto ep = piped.elements();
  const auto es = scalar.elements();
  ASSERT_EQ(ep.size(), es.size());
  for (std::size_t i = 0; i < ep.size(); ++i) {
    ASSERT_EQ(std::strcmp(ep[i], es[i]), 0) << i;
  }
  std::vector<const char*> qs(words.keys.begin(), words.keys.begin() + 2000);
  const auto fp = find_batch(piped, qs);
  const auto fs = find_batch_scalar(scalar, qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(std::strcmp(fp[i], fs[i]), 0) << i;
  }
  erase_batch(piped, qs);
  erase_batch_scalar(scalar, qs);
  EXPECT_EQ(piped.count(), scalar.count());
}

// trigramSeq-pairInt stores record *pointers* whose combine function breaks
// value ties by keeping the stored record, so the surviving pointer can
// differ run to run even though the surviving (key, value) cannot; compare
// contents instead of raw slots for this distribution.
TEST(BatchOpsDistributions, TrigramPairInt) {
  const auto words = workloads::trigram_pair_seq(8000, 16);
  deterministic_table<string_pair_entry> piped(1 << 15);
  deterministic_table<string_pair_entry> scalar(1 << 15);
  insert_batch(piped, words.entries);
  insert_batch_scalar(scalar, words.entries);
  const auto ep = piped.elements();
  const auto es = scalar.elements();
  ASSERT_EQ(ep.size(), es.size());
  for (std::size_t i = 0; i < ep.size(); ++i) {
    ASSERT_EQ(std::strcmp(ep[i]->key, es[i]->key), 0) << i;
    ASSERT_EQ(ep[i]->value, es[i]->value) << i;
  }
  std::vector<const char*> qs;
  for (std::size_t i = 0; i < 2000; ++i) qs.push_back(words.entries[i]->key);
  const auto fp = find_batch(piped, qs);
  const auto fs = find_batch_scalar(scalar, qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(fp[i]->value, fs[i]->value) << i;
  }
}

// --- combining traits over the 16-byte-CAS path ----------------------------

TEST(BatchOps, InsertBatchCombining16ByteCasMatchesScalarLayout) {
  // Heavy duplication so most pipelined inserts hand off into the combine
  // (double-word CAS) branch rather than a fresh claim.
  const auto batch = tabulate(30000, [](std::size_t i) {
    return kv64{1 + hash64(i) % 500, 1 + (i % 7)};
  });
  deterministic_table<pair_entry<combine_add>> piped(1 << 13);
  deterministic_table<pair_entry<combine_add>> scalar(1 << 13);
  insert_batch(piped, batch);
  insert_batch_scalar(scalar, batch);
  expect_same_layout(piped, scalar);
}

// --- insert / erase batches alternating across phase boundaries ------------

TEST(BatchOps, EraseBatchInterleavedWithInsertBatchAcrossPhases) {
  deterministic_table<int_entry<>> piped(1 << 15);
  deterministic_table<int_entry<>> scalar(1 << 15);
  std::set<std::uint64_t> reference;
  for (std::uint64_t round = 0; round < 4; ++round) {
    // Insert phase: a fresh slab plus re-inserts of surviving older keys.
    auto ins = test::dup_keys(6000, 4000, 100 + round);
    insert_batch(piped, ins);
    insert_batch_scalar(scalar, ins);
    reference.insert(ins.begin(), ins.end());
    // Delete phase: every third key currently present.
    std::vector<std::uint64_t> dels;
    std::size_t i = 0;
    for (const auto k : reference) {
      if (i++ % 3 == 0) dels.push_back(k);
    }
    erase_batch(piped, dels);
    erase_batch_scalar(scalar, dels);
    for (const auto k : dels) reference.erase(k);
    // Phase boundary: layouts identical, contents equal to the reference.
    expect_same_layout(piped, scalar);
    ASSERT_EQ(piped.count(), reference.size());
    ASSERT_EQ(piped.approx_size(), reference.size());
  }
  const auto elems = piped.elements();
  const std::set<std::uint64_t> got(elems.begin(), elems.end());
  EXPECT_EQ(got, reference);
}

// --- explicit width sweep through the block engines ------------------------

TEST(BatchOps, EveryPipelineWidthMatchesScalar) {
  const auto keys = test::dup_keys(12000, 9000, 21);
  deterministic_table<int_entry<>> reference(1 << 14);
  insert_batch_scalar(reference, keys);
  const auto ref_finds = find_batch_scalar(reference, keys);

  for (const std::size_t width : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                  std::size_t{8}, std::size_t{16}, std::size_t{64}}) {
    deterministic_table<int_entry<>> t(1 << 14);
    batch_detail::insert_block_pipelined(t, keys.data(), keys.size(), width);
    expect_same_layout(t, reference);

    std::vector<std::uint64_t> out(keys.size());
    batch_detail::find_block_pipelined(t, keys.data(), keys.size(), out.data(),
                                       width);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(out[i], ref_finds[i]) << "width " << width << " query " << i;
    }

    std::vector<std::uint64_t> dels(keys.begin(), keys.begin() + 5000);
    batch_detail::erase_block_pipelined(t, dels.data(), dels.size(), width);
    deterministic_table<int_entry<>> erased_ref(1 << 14);
    insert_batch_scalar(erased_ref, keys);
    erase_batch_scalar(erased_ref, dels);
    expect_same_layout(t, erased_ref);
  }
}

// --- tombstone table through the same engine -------------------------------
//
// The engine reaches the tombstone table through the shared classifiers
// (it models batchable_table like the back-shifting tables). Insert layout
// is arrival-order-dependent here, so bit-identical pipelined-vs-scalar
// layouts are only provable where the arrival order is fixed (width 1,
// single thread); erase layout equality holds at *every* width because a
// tombstone erase marks its key's exact slot regardless of processing
// order, and find equality always holds because finds are read-only.

static_assert(batchable_table<tombstone_table<int_entry<>>>);

TEST(BatchOpsTombstone, BatchSetSemanticsMatchReference) {
  const auto keys = test::dup_keys(15000, 9000, 41);
  tombstone_table<int_entry<>> t(1 << 15);
  insert_batch(t, keys);
  const std::set<std::uint64_t> ref(keys.begin(), keys.end());
  ASSERT_EQ(t.count(), ref.size());
  ASSERT_EQ(t.approx_size(), ref.size());  // striped counter, live entries

  std::vector<std::uint64_t> qs(keys.begin(), keys.begin() + 4000);
  qs.push_back(1ULL << 50);  // absent
  const auto out = find_batch(t, qs);
  for (std::size_t i = 0; i + 1 < qs.size(); ++i) ASSERT_EQ(out[i], qs[i]);
  EXPECT_TRUE(int_entry<>::is_empty(out.back()));

  std::vector<std::uint64_t> dels;
  std::size_t i = 0;
  for (const auto k : ref) {
    if (i++ % 2 == 0) dels.push_back(k);
  }
  erase_batch(t, dels);
  ASSERT_EQ(t.count(), ref.size() - dels.size());
  ASSERT_EQ(t.approx_size(), ref.size() - dels.size());
  for (const auto d : dels) ASSERT_FALSE(t.contains(d));
}

TEST(BatchOpsTombstone, EraseBatchLayoutEqualsScalarAtEveryWidth) {
  const auto keys = test::unique_keys(6000, 43);
  for (const std::size_t width : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                                  std::size_t{16}, std::size_t{64}}) {
    tombstone_table<int_entry<>> piped(1 << 14);
    tombstone_table<int_entry<>> scalar(1 << 14);
    // Same serial arrival order into both tables: identical layouts.
    for (const auto k : keys) piped.insert(k);
    for (const auto k : keys) scalar.insert(k);
    expect_same_layout(piped, scalar);

    std::vector<std::uint64_t> dels(keys.begin(), keys.begin() + 2500);
    dels.push_back(1ULL << 51);  // absent key: both paths must no-op
    batch_detail::erase_block_pipelined(piped, dels.data(), dels.size(), width);
    for (const auto d : dels) scalar.erase(d);
    expect_same_layout(piped, scalar);  // tombstones land in the same slots
    ASSERT_EQ(piped.footprint(), scalar.footprint());
  }
}

TEST(BatchOpsTombstone, InsertWidthOneSingleThreadMatchesScalarLayout) {
  // At width 1 on one thread the pipelined engine performs exactly the
  // scalar probe sequence in exactly the scalar order, so even this
  // arrival-order-dependent layout must come out bit-identical.
  const auto keys = test::dup_keys(8000, 5000, 47);
  tombstone_table<int_entry<>> piped(1 << 14);
  tombstone_table<int_entry<>> scalar(1 << 14);
  batch_detail::insert_block_pipelined(piped, keys.data(), keys.size(), 1);
  for (const auto k : keys) scalar.insert(k);
  expect_same_layout(piped, scalar);
}

TEST(BatchOpsTombstone, FullSweepResolvesMissesOnGarbageFullTable) {
  // Fill a 64-slot table completely with 32 live keys + 32 tombstones: no
  // empty slot remains, so an absent-key probe wraps the whole table. The
  // full sweep must resolve that as a miss (scalar find semantics), not a
  // table_full_error, in both find and erase batches.
  tombstone_table<int_entry<>> t(64);
  const auto first = test::unique_keys(32, 53);
  const auto second = test::unique_keys(32, 59);
  for (const auto k : first) t.insert(k);
  for (const auto k : first) t.erase(k);
  for (const auto k : second) t.insert(k);
  ASSERT_EQ(t.footprint(), 64u);  // every slot live or tombstone

  std::vector<std::uint64_t> absent;
  for (std::uint64_t i = 0; i < 40; ++i) absent.push_back((1ULL << 40) + i);
  const auto out = find_batch(t, absent);  // must not throw
  for (const auto& v : out) ASSERT_TRUE(int_entry<>::is_empty(v));
  EXPECT_NO_THROW(erase_batch(t, absent));
  ASSERT_EQ(t.count(), second.size());
  for (const auto k : second) ASSERT_TRUE(t.contains(k));
}

// --- phase checking still observes pipelined traffic -----------------------

TEST(BatchOps, CheckedPhasesAcceptsLegalBatchSequence) {
  deterministic_table<int_entry<>, checked_phases> t(1 << 12);
  const auto keys = test::unique_keys(1500, 33);
  insert_batch(t, keys);
  const auto out = find_batch(t, keys);
  for (std::size_t i = 0; i < keys.size(); ++i) ASSERT_EQ(out[i], keys[i]);
  erase_batch(t, keys);
  EXPECT_EQ(t.count(), 0u);
}

}  // namespace
}  // namespace phch
