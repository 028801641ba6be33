// Workload drivers for phch_trace's counter and ledger validation: the
// dedup / BFS / mixed workloads over every table family selectable with
// -table.
//
// The drivers run the workload and return the reference quantities the
// counter checks need (output size, reached vertices, find hits...). The
// checks themselves stay in phch_trace, which fails the process on a
// mismatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "phch/apps/bfs.h"
#include "phch/apps/remove_duplicates.h"
#include "phch/core/batch_ops.h"
#include "phch/core/chained_table.h"
#include "phch/core/cuckoo_table.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/hopscotch_table.h"
#include "phch/core/nd_linear_table.h"
#include "phch/core/table_common.h"
#include "phch/core/tombstone_table.h"
#include "phch/graph/generators.h"
#include "phch/graph/graph.h"
#include "phch/obs/trace.h"
#include "phch/utils/rand.h"
#include "phch/workloads/sequences.h"

namespace phch::tools {

// Table families selectable with -table. cap_mult scales the table sizing:
// 2-choice cuckoo placement saturates at load 0.5, so it gets the paper's
// two-tables'-worth of slots and every workload stays below threshold.
//
// probe_ledger marks the linear-probing families whose every operation
// records exactly one probe-depth sample, so at a quiescent point
//   Δ table_hist_totals(probe_depth).count
//     == Δ (find_ops + insert_ops + erase_ops)
// holds exactly. The sparse families (chained, cuckoo, hopscotch) count
// their own step metrics (chain links, evictions, displacements) instead of
// linear probe depth and are excluded from that check.
struct det_family {
  static constexpr std::size_t cap_mult = 1;
  static constexpr bool probe_ledger = true;
  template <typename Tr> using table = deterministic_table<Tr>;
};
struct nd_family {
  static constexpr std::size_t cap_mult = 1;
  static constexpr bool probe_ledger = true;
  template <typename Tr> using table = nd_linear_table<Tr>;
};
struct tomb_family {
  static constexpr std::size_t cap_mult = 1;
  static constexpr bool probe_ledger = true;
  template <typename Tr> using table = tombstone_table<Tr>;
};
struct chained_family {
  static constexpr std::size_t cap_mult = 1;
  static constexpr bool probe_ledger = false;
  template <typename Tr> using table = chained_table<Tr, true>;
};
struct cuckoo_family {
  static constexpr std::size_t cap_mult = 2;
  static constexpr bool probe_ledger = false;
  template <typename Tr> using table = cuckoo_table<Tr>;
};
struct hopscotch_family {
  static constexpr std::size_t cap_mult = 1;
  static constexpr bool probe_ledger = false;
  template <typename Tr> using table = hopscotch_table<Tr, true>;
};

// Distinct nonzero keys so every op count has a closed-form reference.
inline std::vector<std::uint64_t> distinct_keys(std::size_t n) {
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = hash64(i + 1) | 1;
  return keys;
}

// Dedup: insert a random sequence (with duplicates), take elements().
// Returns the deduplicated output size.
template <typename Family>
std::size_t dedup_workload(std::size_t n, unsigned seed = 1) {
  const auto seq = workloads::random_int_seq(n, seed);
  const auto out =
      apps::remove_duplicates<typename Family::template table<int_entry<>>>(
          seq, Family::cap_mult * round_up_pow2(2 * n));
  return out.size();
}

// BFS: hash_bfs over a random 5-regular-ish graph. Returns the number of
// reached vertices (root included).
template <typename Family>
std::uint64_t bfs_workload(std::size_t n, unsigned seed = 1) {
  const auto edges = graph::random_k_edges(n, 5, seed);
  const auto g = graph::csr_graph::from_edges(n, edges);
  const auto parents = apps::hash_bfs<
      typename Family::template table<int_entry<std::uint32_t>>>(
      g, 0, static_cast<double>(Family::cap_mult));
  std::uint64_t reached = 0;
  for (const auto p : parents) {
    if (p != apps::kNotReached) ++reached;
  }
  return reached;
}

struct mixed_result {
  std::uint64_t find_hits;  // non-empty results of the find batch
  std::uint64_t unique;     // distinct keys the insert batch committed
};

// One insert / find / erase cycle on a caller-owned table: insert all keys,
// find all keys, erase the first half. phch_trace checks the remainder
// against approx_size(). Phases are bracketed by marks, so each cycle
// contributes one quiescent-point snapshot per boundary.
template <typename Table>
mixed_result mixed_cycle(Table& t, const std::vector<std::uint64_t>& keys) {
  using traits = typename Table::traits;
  const std::size_t erase_count = keys.size() / 2;
  obs::mark("mixed/start");
  insert_batch(t, keys);
  obs::mark("mixed/inserted");
  const auto found = find_batch(t, keys);
  obs::mark("mixed/found");
  const std::vector<std::uint64_t> victims(
      keys.begin(), keys.begin() + static_cast<long>(erase_count));
  erase_batch(t, victims);
  obs::mark("mixed/erased");
  std::uint64_t hits = 0;
  for (const auto v : found) {
    if (!traits::is_empty(v)) ++hits;
  }
  // approx_size is exact here: the table is quiescent between phases.
  return {hits, t.approx_size() + erase_count};
}

template <typename Family>
mixed_result mixed_workload(std::size_t n) {
  typename Family::template table<int_entry<>> t(Family::cap_mult *
                                                 round_up_pow2(2 * n));
  return mixed_cycle(t, distinct_keys(n));
}

}  // namespace phch::tools
