// Breadth-first search (§5, Figure 2): three implementations compared by
// the paper in Table 7.
//   serial_bfs  classic queue-based BFS (baseline row "serial")
//   array_bfs   deterministic parallel BFS that computes each next frontier
//               through a pre-allocated candidate array + pack (row "array")
//   hash_bfs    Figure 2: WRITEMIN chooses each vertex's parent, winners
//               insert the neighbor into a phase-concurrent table, and the
//               next frontier is ELEMENTS() — deterministic when the table
//               is (row "linearHash-D" etc.)
//
// All three return the parent array (parent[v] = v for the root,
// kNotReached for unreachable vertices); the deterministic versions produce
// the same parent array as each other on every run and thread count.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/table_common.h"
#include "phch/core/table_concepts.h"
#include "phch/graph/graph.h"
#include "phch/obs/trace.h"
#include "phch/parallel/atomics.h"
#include "phch/parallel/primitives.h"

namespace phch::apps {

inline constexpr std::int64_t kNotReached = std::numeric_limits<std::int64_t>::max();

// Parent encoding during the search: unvisited = kNotReached; candidate
// parent = nonnegative vertex id (WRITEMIN keeps the smallest); visited =
// -(parent) - 1, which is negative and therefore never displaced by a
// later WRITEMIN. decode() recovers the parent id.
inline std::int64_t encode_visited(std::int64_t parent) { return -parent - 1; }
inline std::int64_t decode_parent(std::int64_t stored) {
  return stored < 0 ? -stored - 1 : stored;
}

inline std::vector<std::int64_t> serial_bfs(const graph::csr_graph& g,
                                            graph::vertex_id root) {
  std::vector<std::int64_t> parents(g.num_vertices(), kNotReached);
  parents[root] = encode_visited(root);
  std::queue<graph::vertex_id> q;
  q.push(root);
  while (!q.empty()) {
    const graph::vertex_id v = q.front();
    q.pop();
    g.for_each_neighbor(v, [&](graph::vertex_id w) {
      if (parents[w] == kNotReached) {
        parents[w] = encode_visited(v);
        q.push(w);
      }
    });
  }
  return parents;
}

namespace detail {
// Shared round structure: WRITEMIN every frontier->neighbor candidate, then
// hand each winning (parent, child) pair to sink(child). Returns nothing;
// the caller materializes the next frontier its own way.
template <typename Sink>
void relax_frontier(const graph::csr_graph& g, const std::vector<graph::vertex_id>& frontier,
                    std::vector<std::int64_t>& parents,
                    const std::vector<std::size_t>& frontier_offsets, Sink&& sink) {
  // Phase 1: compete for parenthood with WRITEMIN (deterministic winner:
  // the smallest frontier vertex id adjacent to each unvisited neighbor).
  parallel_for(0, frontier.size(), [&](std::size_t i) {
    const graph::vertex_id v = frontier[i];
    g.for_each_neighbor(v, [&](graph::vertex_id w) {
      write_min(&parents[w], static_cast<std::int64_t>(v));
    });
  });
  // Phase 2: winners claim their children.
  parallel_for(0, frontier.size(), [&](std::size_t i) {
    const graph::vertex_id v = frontier[i];
    std::size_t slot = frontier_offsets.empty() ? 0 : frontier_offsets[i];
    g.for_each_neighbor(v, [&](graph::vertex_id w) {
      if (parents[w] == static_cast<std::int64_t>(v)) {
        sink(w, slot);
      }
      ++slot;
    });
  });
}
}  // namespace detail

// Array-based deterministic BFS: the next frontier is collected into a
// pre-sized candidate array indexed by (frontier position, neighbor index),
// then packed — the paper's "first method" in §5.
inline std::vector<std::int64_t> array_bfs(const graph::csr_graph& g,
                                           graph::vertex_id root) {
  constexpr graph::vertex_id kHole = std::numeric_limits<graph::vertex_id>::max();
  std::vector<std::int64_t> parents(g.num_vertices(), kNotReached);
  parents[root] = encode_visited(root);
  std::vector<graph::vertex_id> frontier{root};
  while (!frontier.empty()) {
    std::vector<std::size_t> offsets = tabulate(
        frontier.size(), [&](std::size_t i) { return g.degree(frontier[i]); });
    const std::size_t total = scan_add_inplace(offsets);
    std::vector<graph::vertex_id> candidates(total, kHole);
    detail::relax_frontier(g, frontier, parents, offsets,
                           [&](graph::vertex_id w, std::size_t slot) {
                             candidates[slot] = w;
                           });
    frontier = filter(candidates, [&](graph::vertex_id w) { return w != kHole; });
    parallel_for(0, frontier.size(), [&](std::size_t i) {
      const graph::vertex_id w = frontier[i];
      parents[w] = encode_visited(parents[w]);
    });
  }
  return parents;
}

// Hash-table BFS (Figure 2). Table must store graph::vertex_id keys
// (int_entry<std::uint32_t> traits). A fresh table sized to the frontier's
// total degree (times `space_mult`) is created per level, as in §6.
//
// The frontier expansion is batch-shaped: winners are first collected into
// the pre-sized candidate array (as in array_bfs), then inserted as one
// batch through the software-pipelined engine, which overlaps the probe
// cache misses of up to PHCH_BATCH_WIDTH inserts per worker. The inserted
// key *set* per level is identical to inserting from inside the relax loop,
// so the frontier (= ELEMENTS()) and the resulting parent array are
// unchanged — determinism is the table's, not the insertion order's.
template <phase_table Table>
std::vector<std::int64_t> hash_bfs(const graph::csr_graph& g, graph::vertex_id root,
                                   double space_mult = 1.0) {
  constexpr graph::vertex_id kHole = std::numeric_limits<graph::vertex_id>::max();
  std::vector<std::int64_t> parents(g.num_vertices(), kNotReached);
  parents[root] = encode_visited(root);
  std::vector<graph::vertex_id> frontier{root};
  obs::mark("bfs/start");
  std::uint32_t level = 0;
  while (!frontier.empty()) {
    // One span per BFS level: a = level number, b = frontier size. The
    // per-level table create/insert/elements cycle shows up as the span's
    // children in a chrome trace.
    obs::span level_span("bfs:level");
    level_span.a = level++;
    level_span.b = frontier.size();
    std::vector<std::size_t> offsets = tabulate(
        frontier.size(), [&](std::size_t i) { return g.degree(frontier[i]); });
    const std::size_t total_degree = scan_add_inplace(offsets);
    Table table(
        round_up_pow2(static_cast<std::size_t>(space_mult * 2.0 * (total_degree + 2))));
    std::vector<graph::vertex_id> candidates(total_degree, kHole);
    detail::relax_frontier(g, frontier, parents, offsets,
                           [&](graph::vertex_id w, std::size_t slot) {
                             candidates[slot] = w;
                           });
    const std::vector<graph::vertex_id> winners =
        filter(candidates, [&](graph::vertex_id w) { return w != kHole; });
    insert_batch(table, winners);
    frontier = table.elements();
    parallel_for(0, frontier.size(), [&](std::size_t i) {
      const graph::vertex_id w = frontier[i];
      parents[w] = encode_visited(parents[w]);
    });
  }
  obs::mark("bfs/done");
  return parents;
}

}  // namespace phch::apps
