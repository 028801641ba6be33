// Batched table operations with software-pipelined (AMAC-style) probing.
//
// Phase-concurrent workloads naturally arrive as batches (insert this whole
// sequence, look up all of these keys), which admits a memory-level
// parallelism trick single operations cannot use. The engine keeps K
// in-flight probes per worker in a ring (K from PHCH_BATCH_WIDTH, default
// 12) and advances them round-robin: each step inspects the slot whose
// prefetch was issued one rotation ago, either completes the operation or
// computes its next slot and prefetches *that*, then rotates to the next
// in-flight probe. Every cache miss along the whole probe chain — not just
// the home line — overlaps with up to K-1 others, the asynchronous-memory-
// access-chaining (AMAC) structure of Kocberber et al.
//
// Phase capabilities (utils/phase_caps.h, DESIGN.md §15): the free batch
// functions here are deliberately unannotated — they are templates over
// *any* table (including capability-free test mocks), and a TSA attribute
// naming a member the instantiating type lacks is a hard error. The static
// contract rides on the tables instead: each table's batch_*_scope() entry
// points carry PHCH_REQUIRES_PHASE, so a marked phase region still rejects
// a wrong-class batch at its scope-opening call.
//
// Per-operation semantics are untouched:
//  * find_batch and erase_batch pipeline their read-only probe scans fully;
//    an erase hands off to the table's scalar erase_from continuation once
//    its forward scan stops (those slots were just loaded, so the handoff
//    runs on warm lines).
//  * insert_batch pipelines the probe *prefix* — the advance-past-occupants
//    walk — and falls back to the table's scalar insert path at the first
//    slot where a CAS could commit. Displacement chains therefore execute
//    exactly the Figure-1 loop, preserving the ordering invariant
//    byte-for-byte: the pipelined prefix performs the same
//    one-load-per-advance reads as the scalar loop, so every pipelined
//    execution is indistinguishable from some legal scalar interleaving,
//    and Theorem 1 makes the final layout independent of which one.
//
// Each operation hashes its key exactly once (the scalar continuations
// resume from the prefix position instead of restarting from home).
//
// The engine knows no policy logic of its own: probe decisions go through
// the table's static classifiers (classify_find / insert_scan_stop /
// erase_scan_stop), which core/probe_engine.h distills from its ordering
// and delete policies. Any table modeling `batchable_table`
// (core/table_concepts.h) — deterministic, nd-linear, and tombstone alike —
// is driven by the same pipelined loops. Tables with their own whole-batch
// members (`batch_forwarding_table` / `erase_forwarding_table`: the
// growable wrapper, and the sparse family — cuckoo, hopscotch, chained —
// whose prefetch-structured walks live next to their probe logic) are
// forwarded to; everything else (serial_table, ...) gets a scalar
// fallback with identical semantics, so the batch API is usable
// generically. All batch helpers preserve the phase contract: a batch is
// one phase, and the engine opens the table's phase scope per block so
// checked_phases still observes batch traffic.
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <vector>

#include "phch/core/table_common.h"
#include "phch/core/table_concepts.h"
#include "phch/obs/histogram.h"
#include "phch/obs/telemetry.h"
#include "phch/parallel/atomics.h"
#include "phch/parallel/parallel_for.h"
#include "phch/utils/env.h"

namespace phch {

// Retained for the prefetch-ahead reference paths (bench baselines).
inline constexpr std::size_t kPrefetchAhead = 8;

// Hard cap on in-flight probes per worker; beyond the hardware's miss
// handling capacity (~10-20 line fill buffers) extra streams only thrash.
inline constexpr std::size_t kMaxBatchWidth = 64;

// In-flight probes per worker: PHCH_BATCH_WIDTH, clamped to [1, 64].
inline std::size_t batch_width() {
  static const std::size_t w = [] {
    const long v = env_long("PHCH_BATCH_WIDTH", 12);
    if (v < 1) return std::size_t{1};
    if (v > static_cast<long>(kMaxBatchWidth)) return kMaxBatchWidth;
    return static_cast<std::size_t>(v);
  }();
  return w;
}

namespace detail {
// Locality 3 (prefetcht0): the line is consumed within ~one ring rotation,
// so it must land in L1, not just an outer level.
inline void prefetch_ro(const void* p) noexcept { __builtin_prefetch(p, 0, 3); }
inline void prefetch_rw(const void* p) noexcept { __builtin_prefetch(p, 1, 3); }
}  // namespace detail

namespace batch_detail {

// ---------------------------------------------------------------------------
// Per-block pipelined engines. Serial within a block (blocked_for supplies
// the cross-block parallelism); exposed here so tests and benchmarks can
// drive them directly with explicit widths on a single thread.
//
// Linear probing makes chains *sequential*, so a probe only risks a cache
// miss when it crosses into the next 64-byte line. Each engine therefore
// scans to the end of the current line before yielding its lane: rotation
// (and a prefetch) happens per line crossed, not per slot inspected, which
// keeps the ring bookkeeping off the critical path at high load factors.
//
// A probe that sweeps all `capacity` slots without a stop has wrapped a
// full table, and resolves exactly like the scalar loop: a find reports the
// key absent, an erase hands off to erase_from for the downward scan over
// every slot, and only an insert throws table_full_error.
// ---------------------------------------------------------------------------

// Slots per cache line; slot_array is 64-byte aligned, so slot i starts a
// fresh line exactly when i % slots_per_line == 0 (the wrap to slot 0 too).
template <typename V>
inline constexpr std::size_t slots_per_line =
    sizeof(V) < 64 ? 64 / sizeof(V) : 1;

template <typename Table, typename K>
void find_block_pipelined(const Table& t, const K* keys, std::size_t n,
                          typename Table::value_type* out, std::size_t width) {
  using Traits = typename Table::traits;
  using value_type = typename Table::value_type;
  const value_type* slots = t.raw_slots();
  const std::size_t cap = t.capacity();
  const std::size_t mask = cap - 1;
  if (width > kMaxBatchWidth) width = kMaxBatchWidth;
  if (width < 1) width = 1;

  struct op {
    std::size_t idx;       // position in the batch (where the result goes)
    std::size_t slot;      // current probe position
    std::size_t advances;  // probe length so far (table-full detection)
    typename Table::key_type kq;
  };
  std::array<op, kMaxBatchWidth> ring;
  std::size_t issued = 0;
  std::size_t live = 0;
  // Local tallies flushed once per block (dead stores when obs is off).
  std::uint64_t t_slots = 0, t_rot = 0, t_hits = 0;
  [[maybe_unused]] obs::hist_accum t_depth;

  auto start = [&](op& o) {
    const std::size_t idx = issued++;
    const typename Table::key_type kq = keys[idx];
    o = op{idx, static_cast<std::size_t>(Traits::hash(kq)) & mask, 0, kq};
    detail::prefetch_ro(&slots[o.slot]);
  };
  while (live < width && issued < n) start(ring[live++]);

  constexpr std::size_t line = slots_per_line<value_type>;
  std::size_t r = 0;
  while (live > 0) {
    op& o = ring[r];
    bool done = false;
    value_type result{};
    // Scan to the end of the current cache line; those slots are resident.
    do {
      const value_type c = atomic_load(&slots[o.slot]);
      ++t_slots;
      const probe_verdict verdict = Table::classify_find(c, o.kq);
      if (verdict != probe_verdict::advance) {
        done = true;
        if (verdict == probe_verdict::hit) {
          result = c;
          ++t_hits;
        } else {
          result = Traits::empty();
        }
        break;
      }
      o.slot = (o.slot + 1) & mask;
      if (++o.advances == cap) {  // full sweep: absent
        done = true;
        result = Traits::empty();
        break;
      }
    } while (o.slot & (line - 1));
    if (done) {
      // Probe-depth ledger: pipelined finds never reach a scalar
      // continuation, so their depth sample is noted here (advances
      // plus the resolving load) and flushed with the other tallies.
      if constexpr (requires { t.hists(); }) {
        t_depth.note(o.advances + 1);
      }
      out[o.idx] = result;
      if (issued < n) {
        start(o);  // refill the lane, keep rotating
      } else {
        ring[r] = ring[--live];
        if (r == live) r = 0;
        continue;  // the moved-in op already has a prefetch in flight
      }
    } else {
      detail::prefetch_ro(&slots[o.slot]);  // crossed into the next line
    }
    ++t_rot;
    if (++r >= live) r = 0;
  }
  obs::count(obs::counter::find_ops, n);
  obs::count(obs::counter::find_hits, t_hits);
  obs::count(obs::counter::batch_probe_slots, t_slots);
  obs::count(obs::counter::batch_rotations, t_rot);
  obs::count(obs::counter::batch_blocks);
  if constexpr (requires { t.hists(); }) {
    t.hists().record_block(obs::table_hist::probe_depth, t_depth);
  }
}

template <typename Table, typename V>
void insert_block_pipelined(Table& t, const V* values, std::size_t n,
                            std::size_t width) {
  using Traits = typename Table::traits;
  using value_type = typename Table::value_type;
  const value_type* slots = t.raw_slots();
  const std::size_t cap = t.capacity();
  const std::size_t mask = cap - 1;
  if (width > kMaxBatchWidth) width = kMaxBatchWidth;
  if (width < 1) width = 1;

  struct op {
    std::size_t slot;
    std::size_t advances;
    value_type v;
  };
  std::array<op, kMaxBatchWidth> ring;
  std::size_t issued = 0;
  std::size_t live = 0;
  std::uint64_t t_slots = 0, t_rot = 0, t_handoffs = 0;

  auto start = [&](op& o) {
    const value_type v = values[issued++];
    const std::size_t home =
        static_cast<std::size_t>(Traits::hash(Traits::key(v))) & mask;
    o = op{home, 0, v};
    detail::prefetch_rw(&slots[o.slot]);
  };
  while (live < width && issued < n) start(ring[live++]);

  constexpr std::size_t line = slots_per_line<value_type>;
  std::size_t r = 0;
  while (live > 0) {
    op& o = ring[r];
    // The prefix advances exactly while the scalar loop would advance
    // without CASing; the table's insert_scan_stop classifier marks the
    // first potential commit point (empty slot, duplicate key, or a
    // displaceable occupant), where the operation hands off to the scalar
    // continuation resuming at this position. Slots up to the next line
    // boundary are resident, so scan them without yielding.
    bool commit = false;
    do {
      const value_type c = atomic_load(&slots[o.slot]);
      ++t_slots;
      if (Table::insert_scan_stop(c, o.v)) {
        commit = true;
        break;
      }
      o.slot = (o.slot + 1) & mask;
      if (++o.advances > cap) throw table_full_error();
    } while (o.slot & (line - 1));
    if (commit) {
      ++t_handoffs;
      t.insert_from(o.v, o.slot, o.advances);
      if (issued < n) {
        start(o);
      } else {
        ring[r] = ring[--live];
        if (r == live) r = 0;
        continue;
      }
    } else {
      detail::prefetch_rw(&slots[o.slot]);
    }
    ++t_rot;
    if (++r >= live) r = 0;
  }
  obs::count(obs::counter::batch_probe_slots, t_slots);
  obs::count(obs::counter::batch_rotations, t_rot);
  obs::count(obs::counter::batch_handoffs, t_handoffs);
  obs::count(obs::counter::batch_blocks);
}

template <typename Table, typename K>
void erase_block_pipelined(Table& t, const K* keys, std::size_t n,
                           std::size_t width) {
  using Traits = typename Table::traits;
  using value_type = typename Table::value_type;
  const value_type* slots = t.raw_slots();
  const std::size_t cap = t.capacity();
  const std::size_t mask = cap - 1;
  if (width > kMaxBatchWidth) width = kMaxBatchWidth;
  if (width < 1) width = 1;

  struct op {
    std::size_t slot;
    std::size_t advances;
    typename Table::key_type kq;
  };
  std::array<op, kMaxBatchWidth> ring;
  std::size_t issued = 0;
  std::size_t live = 0;
  std::uint64_t t_slots = 0, t_rot = 0, t_handoffs = 0;

  auto start = [&](op& o) {
    const typename Table::key_type kq = keys[issued++];
    o = op{static_cast<std::size_t>(Traits::hash(kq)) & mask, 0, kq};
    detail::prefetch_rw(&slots[o.slot]);
  };
  while (live < width && issued < n) start(ring[live++]);

  constexpr std::size_t line = slots_per_line<value_type>;
  std::size_t r = 0;
  while (live > 0) {
    op& o = ring[r];
    // Pipelined initial forward scan: past every slot the table's
    // erase_scan_stop classifier says could still precede the key. Where
    // the scalar scan would stop (or at the last slot of a full wrap), hand
    // the CAS work to the table's erase_from continuation; it re-walks slots
    // this scan just loaded, so it runs on warm lines. Within the current
    // cache line the scan continues without yielding the lane.
    bool stop = false;
    do {
      const value_type c = atomic_load(&slots[o.slot]);
      ++t_slots;
      if (Table::erase_scan_stop(c, o.kq) || o.advances + 1 == cap) {
        stop = true;
        break;
      }
      o.slot = (o.slot + 1) & mask;
      ++o.advances;
    } while (o.slot & (line - 1));
    if (stop) {
      ++t_handoffs;
      t.erase_from(o.kq, o.advances);
      if (issued < n) {
        start(o);
      } else {
        ring[r] = ring[--live];
        if (r == live) r = 0;
        continue;
      }
    } else {
      detail::prefetch_rw(&slots[o.slot]);
    }
    ++t_rot;
    if (++r >= live) r = 0;
  }
  obs::count(obs::counter::batch_probe_slots, t_slots);
  obs::count(obs::counter::batch_rotations, t_rot);
  obs::count(obs::counter::batch_handoffs, t_handoffs);
  obs::count(obs::counter::batch_blocks);
}

}  // namespace batch_detail

// ---------------------------------------------------------------------------
// Scalar reference batches: plain per-op loops, no prefetching. The
// semantic baseline the pipelined engine must match bit-for-bit; also the
// generic path for tables without probe hooks.
// ---------------------------------------------------------------------------

template <typename Table, typename V>
void insert_batch_scalar(Table& t, const V* values, std::size_t n) {
  parallel_for(0, n, [&](std::size_t i) { t.insert(values[i]); });
}

template <typename Table, typename V>
void insert_batch_scalar(Table& t, const std::vector<V>& values) {
  insert_batch_scalar(t, values.data(), values.size());
}

template <typename Table, typename K>
std::vector<typename Table::value_type> find_batch_scalar(
    const Table& t, const std::vector<K>& keys) {
  std::vector<typename Table::value_type> out(keys.size());
  parallel_for(0, keys.size(), [&](std::size_t i) { out[i] = t.find(keys[i]); });
  return out;
}

template <typename Table, typename K>
void erase_batch_scalar(Table& t, const std::vector<K>& keys) {
  parallel_for(0, keys.size(), [&](std::size_t i) { t.erase(keys[i]); });
}

// ---------------------------------------------------------------------------
// Prefetch-ahead reference batches: the previous engine (home line hashed
// kPrefetchAhead positions down the batch), kept as the bench baseline the
// pipelined engine is measured against.
// ---------------------------------------------------------------------------

template <typename Table, typename V>
void insert_batch_prefetch(Table& t, const std::vector<V>& values) {
  blocked_for(0, values.size(), 2048, [&](std::size_t, std::size_t s, std::size_t e) {
    for (std::size_t i = s; i < e; ++i) {
      if (i + kPrefetchAhead < e) {
        detail::prefetch_rw(
            t.home_address(Table::traits::key(values[i + kPrefetchAhead])));
      }
      t.insert(values[i]);
    }
  });
}

template <typename Table, typename K>
std::vector<typename Table::value_type> find_batch_prefetch(
    const Table& t, const std::vector<K>& keys) {
  std::vector<typename Table::value_type> out(keys.size());
  blocked_for(0, keys.size(), 2048, [&](std::size_t, std::size_t s, std::size_t e) {
    for (std::size_t i = s; i < e; ++i) {
      if (i + kPrefetchAhead < e) {
        detail::prefetch_ro(t.home_address(keys[i + kPrefetchAhead]));
      }
      out[i] = t.find(keys[i]);
    }
  });
  return out;
}

template <typename Table, typename K>
void erase_batch_prefetch(Table& t, const std::vector<K>& keys) {
  blocked_for(0, keys.size(), 2048, [&](std::size_t, std::size_t s, std::size_t e) {
    for (std::size_t i = s; i < e; ++i) {
      if (i + kPrefetchAhead < e) {
        detail::prefetch_rw(t.home_address(keys[i + kPrefetchAhead]));
      }
      t.erase(keys[i]);
    }
  });
}

// ---------------------------------------------------------------------------
// Public batch API. Dispatch order: a table with its own batch members is
// forwarded to (growable_table interleaves growth checks); a batchable
// table runs the pipelined engine; everything else gets the scalar loop.
//
// Each whole batch opens exactly one of the table's batch_*_scope()s, which
// are Phase::scope instances over the table's phase_runtime
// (core/phase_runtime.h): a batch announces its class to the same
// phase-state word scalar operations use, so a batch that starts a new
// phase advances the table's epoch exactly once, at the batch boundary.
// ---------------------------------------------------------------------------

// Pointer-range inserts: the building block the wrappers chunk over.
template <typename Table, typename V>
void insert_batch_range(Table& t, const V* values, std::size_t n) {
  if constexpr (batchable_table<Table>) {
    auto scope = t.batch_insert_scope();
    const std::size_t width = batch_width();
    blocked_for(0, n, 2048, [&](std::size_t, std::size_t s, std::size_t e) {
      batch_detail::insert_block_pipelined(t, values + s, e - s, width);
    });
  } else {
    insert_batch_scalar(t, values, n);
  }
}

// Inserts values[0..n); whole-batch parallel. One insert phase.
template <typename Table, typename V>
void insert_batch(Table& t, const std::vector<V>& values) {
  if constexpr (batch_forwarding_table<Table>) {
    t.insert_batch(values);
  } else {
    insert_batch_range(t, values.data(), values.size());
  }
}

// Looks up keys[0..n); out[i] = stored value or empty. One query phase.
template <typename Table, typename K>
std::vector<typename Table::value_type> find_batch(const Table& t,
                                                   const std::vector<K>& keys) {
  if constexpr (batch_forwarding_table<Table>) {
    return t.find_batch(keys);
  } else if constexpr (batchable_table<Table>) {
    std::vector<typename Table::value_type> out(keys.size());
    auto scope = t.batch_query_scope();
    const std::size_t width = batch_width();
    blocked_for(0, keys.size(), 2048,
                [&](std::size_t, std::size_t s, std::size_t e) {
                  batch_detail::find_block_pipelined(t, keys.data() + s, e - s,
                                                     out.data() + s, width);
                });
    return out;
  } else {
    return find_batch_scalar(t, keys);
  }
}

// Erases keys[0..n). One delete phase.
template <typename Table, typename K>
void erase_batch(Table& t, const std::vector<K>& keys) {
  if constexpr (erase_forwarding_table<Table>) {
    t.erase_batch(keys);
  } else if constexpr (batchable_table<Table>) {
    auto scope = t.batch_erase_scope();
    const std::size_t width = batch_width();
    blocked_for(0, keys.size(), 2048,
                [&](std::size_t, std::size_t s, std::size_t e) {
                  batch_detail::erase_block_pipelined(t, keys.data() + s, e - s,
                                                      width);
                });
  } else {
    erase_batch_scalar(t, keys);
  }
}

}  // namespace phch
