// Formal table concepts: the interfaces the wrappers, batch engine, stats,
// applications, and tests program against, replacing per-consumer duck
// typing. The layering is
//
//   probe_engine (policy-parameterized probing core)
//     └─ policies: prioritized/arrival order × backshift/tombstone delete
//          └─ wrappers: growable_table, auto_phased_table
//               └─ batch engine (core/batch_ops.h), table_stats
//                    └─ apps / benches / tests
//
// and each upward edge is one of the concepts below. A new table joins the
// ecosystem by modeling the concepts it can support: `phase_table` makes the
// apps and test harness work, `open_addressing_table` adds stats and layout
// checks, `batchable_table` turns on software-pipelined batching, and
// `growable_source` lets the resizing wrapper drive it.
#pragma once

#include <concepts>
#include <cstddef>
#include <vector>

#include "phch/core/phase_runtime.h"
#include "phch/core/table_common.h"

namespace phch {

// The baseline phase-concurrent table contract: typed entries plus the
// paper's operation set { insert } / { find, contains, elements } (erase is
// split out into deletable_table because a delete phase is optional —
// e.g. serial or frozen reference tables need not support one).
// Callers owe the phase discipline of Definition 1.
template <typename T>
concept phase_table =
    requires {
      typename T::traits;
      typename T::value_type;
      typename T::key_type;
    } &&
    requires(T& t, const T& ct, typename T::value_type v, typename T::key_type k) {
      t.insert(v);
      { ct.find(k) } -> std::convertible_to<typename T::value_type>;
      { ct.contains(k) } -> std::convertible_to<bool>;
      { ct.capacity() } -> std::convertible_to<std::size_t>;
      { ct.count() } -> std::convertible_to<std::size_t>;
      { ct.elements() } -> std::convertible_to<std::vector<typename T::value_type>>;
    };

// A phase table whose delete phase exists.
template <typename T>
concept deletable_table = phase_table<T> && requires(T& t, typename T::key_type k) {
  t.erase(k);
};

// A table that exposes its phase_runtime (core/phase_runtime.h): the single
// per-table phase-state word (current operation class + monotone epoch).
// Every first-party table models this via its phase policy; wrappers like
// auto_phased_table use it to advance the epoch at room transitions, and
// tools validate the exactly-once transition ledger through it.
template <typename T>
concept phase_epoch_table = requires(const T& ct) {
  { ct.phase_rt() } -> std::same_as<phase_runtime&>;
};

// A phase table backed by one flat slot array — what table_stats, the
// layout-equality tests, and the room-synchronized wrapper scan.
template <typename T>
concept open_addressing_table = phase_table<T> && requires(const T& ct) {
  { ct.raw_slots() } -> std::convertible_to<const typename T::value_type*>;
};

// A table the software-pipelined batch engine can drive: raw slot access
// for probing, the three policy classifiers, scalar continuations that
// resume mid-probe, per-batch phase scopes, and the ordered-probe tag.
// probe_engine models this for every policy combination, so all
// open-addressing linear tables batch through one engine.
template <typename T>
concept batchable_table =
    open_addressing_table<T> &&
    requires(T& t, const T& ct, typename T::value_type v, typename T::key_type k,
             std::size_t i) {
      { T::ordered_probes } -> std::convertible_to<bool>;
      { T::classify_find(v, k) } -> std::same_as<probe_verdict>;
      { T::insert_scan_stop(v, v) } -> std::convertible_to<bool>;
      { T::erase_scan_stop(v, k) } -> std::convertible_to<bool>;
      t.insert_from(v, i, i);
      t.erase_from(k, i);
      ct.batch_query_scope();
      t.batch_insert_scope();
      t.batch_erase_scope();
    };

// A table that implements its own whole-batch operations (the growable
// wrapper, which must interleave growth checks with the batch, and the
// sparse family — chained/cuckoo/hopscotch — whose prefetch-structured
// batch walks do not fit the flat-slot-array pipelined engine). The free
// batch functions forward to these members before considering the pipelined
// or scalar engines.
template <typename T>
concept batch_forwarding_table =
    requires(T& t, const T& ct, const std::vector<typename T::value_type>& vs,
             const std::vector<typename T::key_type>& ks) {
      t.insert_batch(vs);
      { ct.find_batch(ks) } -> std::convertible_to<std::vector<typename T::value_type>>;
    };

// The erase-side counterpart of batch_forwarding_table: a table with its
// own whole-batch erase. Split out because erase support is itself optional
// (see deletable_table), so a table may forward insert/find batches while
// having no erase at all.
template <typename T>
concept erase_forwarding_table =
    requires(T& t, const std::vector<typename T::key_type>& ks) {
      t.erase_batch(ks);
    };

// What growable_table requires of the table it grows: deletable, with the
// probe-length-bounded insert for the overfull trigger and the striped
// occupancy counter for the load trigger.
template <typename T>
concept growable_source =
    deletable_table<T> && open_addressing_table<T> &&
    requires(T& t, const T& ct, typename T::value_type v, std::size_t n) {
      typename T::insert_result;
      { t.insert_bounded(v, n) } -> std::same_as<typename T::insert_result>;
      { ct.approx_size() } -> std::convertible_to<std::size_t>;
    };

}  // namespace phch
