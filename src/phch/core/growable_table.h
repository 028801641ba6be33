// growable_table: the resizing extension outlined in §4 of the paper, on
// top of the deterministic phase-concurrent table.
//
// An insert detects an overfull table when its probe sequence exceeds a
// threshold of k * log2(capacity) slots (w.h.p. probes are shorter at a
// bounded load factor). The detecting thread allocates a table of twice the
// size behind a lock ("a lock can be used to avoid multiple processes
// allocating simultaneously"), and insertions cooperate to migrate the old
// contents before continuing — re-inserting with the same deterministic
// protocol, so the migrated layout is history-independent too. Migration is
// batched: the old table's live elements are packed out in parallel and
// re-inserted through the software-pipelined batch engine, so the copy
// overlaps its cache misses exactly like any other insert batch.
//
// Divergence from the paper's sketch, documented here: the paper migrates
// *incrementally* (each insert copies two elements and both tables stay
// live), which requires finds/deletes to consult both tables. We instead
// drain in-flight *inserts* and migrate completely before new inserts
// proceed — a stop-the-insert-phase variant that keeps exactly one live
// table, preserves determinism trivially, and has the same amortized cost.
// Only inserts can trigger growth; finds and deletes see a single table, as
// in the paper.
//
// Lifetime of the old slot array: the table pointer is an atomic that grow()
// publishes with a release store, and the superseded table is handed to
// quiescence-based reclamation (parallel/reclaim.h) instead of being deleted
// in place. Readers therefore need no exclusion at all — a find may still be
// probing the old array while the swap happens and simply completes against
// a stale (but alive and immutable-to-it) table; the array is freed only
// after every participating thread has passed a quiescent point. This
// removes the old "all reads must happen inside the enter()/leave() window"
// seam: enter()/leave() now gates *writers only*, because a migration must
// observe every committed insert. Each public operation runs under a
// reclaim::op_guard, which registers the thread before the first pointer
// load and announces one quiescent point when the operation ends.
//
// The wrapper implements its own insert_batch/find_batch/erase_batch, so
// the free batch functions (core/batch_ops.h) forward to it
// (`batch_forwarding_table`): a batch insert runs in bounded chunks with one
// striped-counter occupancy check per chunk — never per element — and grows
// between chunks, so a single batch may cross several capacity doublings.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/table_concepts.h"
#include "phch/obs/trace.h"
#include "phch/parallel/reclaim.h"
#include "phch/parallel/spinlock.h"  // cpu_relax
#include "phch/utils/phase_caps.h"

namespace phch {

template <typename Traits = int_entry<>, typename Phase = unchecked_phases>
class growable_table {
 public:
  using inner_table = deterministic_table<Traits, Phase>;
  using traits = Traits;
  using value_type = typename Traits::value_type;
  using key_type = typename Traits::key_type;

  static_assert(growable_source<inner_table>,
                "growable_table's inner table must model growable_source "
                "(bounded inserts + striped occupancy)");

  explicit growable_table(std::size_t initial_capacity = 1024,
                          std::size_t probe_limit_factor = 16)
      : probe_limit_factor_(probe_limit_factor),
        table_(new inner_table(initial_capacity)) {}

  growable_table(const growable_table&) = delete;
  growable_table& operator=(const growable_table&) = delete;

  // The destructor deletes only the *current* table; superseded tables are
  // already in reclaim limbo and are freed when their grace period passes
  // (at the latest, at process teardown — LeakSanitizer-clean either way).
  ~growable_table() { delete table_.load(std::memory_order_relaxed); }

  std::size_t capacity() const noexcept {
    reclaim::op_guard qp;
    return cur()->capacity();
  }
  std::size_t count() const {
    reclaim::op_guard qp;
    return cur()->count();
  }

  // The inner table's striped occupancy counter (exact at phase boundaries),
  // surfaced so callers see the same size API on the wrapper as on the flat
  // tables.
  std::size_t approx_size() const noexcept {
    reclaim::op_guard qp;
    return cur()->approx_size();
  }

  void insert(value_type v) PHCH_REQUIRES_PHASE(insert) {
    using result = typename inner_table::insert_result;
    reclaim::op_guard qp;
    for (;;) {
      enter();
      result r;
      std::size_t cap;
      bool crowded = false;
      try {
        // Writers resolve the table pointer inside the enter()/leave()
        // window so a migration observes every committed insert (grow()
        // drains the active count before packing the old contents).
        inner_table* t = cur();
        cap = t->capacity();
        r = t->insert_bounded(v, probe_limit(cap));
        if (r == result::ok) {
          // Secondary trigger: grow once occupancy passes 3/4 of capacity
          // (the probe-length trigger alone cannot protect very small
          // tables, where individual probes can stay short right up to
          // full). approx_size() is the striped occupancy counter — a lazy
          // per-stripe sum, so this check adds read traffic only, never a
          // contended read-modify-write on the insert hot path.
          crowded = t->approx_size() >= cap - cap / 4;
        }
      } catch (...) {
        leave();
        throw;
      }
      leave();
      if (r == result::ok) {
        if (crowded) grow(cap * 2);
        return;
      }
      // Probe sequence too long: this table is overfull. Grow it (or help a
      // growth already under way), then retry if the insert was aborted.
      grow(cap * 2);
      if (r == result::lengthy) return;  // inserted, just slowly
    }
  }

  // Erases and queries take no enter()/leave(): the phase discipline keeps
  // them out of insert phases (only inserts grow), and even a racy overlap
  // with a migration is memory-safe now — the superseded array stays alive
  // until reclaim's grace period passes.
  void erase(key_type kq) PHCH_REQUIRES_PHASE(erase) {
    reclaim::op_guard qp;
    cur()->erase(kq);
  }
  value_type find(key_type kq) const PHCH_REQUIRES_PHASE(query) {
    reclaim::op_guard qp;
    return cur()->find(kq);
  }
  bool contains(key_type kq) const PHCH_REQUIRES_PHASE(query) {
    reclaim::op_guard qp;
    return cur()->contains(kq);
  }
  std::vector<value_type> elements() const PHCH_REQUIRES_PHASE(query) {
    reclaim::op_guard qp;
    return cur()->elements();
  }

  // --- whole-batch operations ----------------------------------------------
  //
  // Batch inserts run in fixed-size chunks. Before each chunk the wrapper
  // checks — once, against the striped counter — that the chunk fits under
  // the 3/4 occupancy ceiling, growing until it does; the chunk itself then
  // runs the software-pipelined engine on the inner table with no per-insert
  // occupancy reads and no probe-length bookkeeping. A single batch may
  // trigger several growths. A batch is one insert phase (Definition 1), so
  // finds/erases never run concurrently with it.

  void insert_batch(const value_type* values, std::size_t n)
      PHCH_REQUIRES_PHASE(insert) {
    reclaim::op_guard qp;
    for (std::size_t s = 0; s < n;) {
      const std::size_t chunk = std::min(kGrowChunk, n - s);
      enter();
      inner_table* t = cur();
      const std::size_t cap = t->capacity();
      const bool fits = t->approx_size() + chunk <= cap - cap / 4;
      if (!fits) {
        leave();
        grow(cap * 2);
        continue;  // re-check: one doubling may not be enough headroom
      }
      try {
        insert_batch_range(*t, values + s, chunk);
      } catch (...) {
        leave();
        throw;
      }
      leave();
      s += chunk;
    }
  }
  void insert_batch(const std::vector<value_type>& values)
      PHCH_REQUIRES_PHASE(insert) {
    insert_batch(values.data(), values.size());
  }

  std::vector<value_type> find_batch(const std::vector<key_type>& keys) const
      PHCH_REQUIRES_PHASE(query) {
    reclaim::op_guard qp;
    return phch::find_batch(*cur(), keys);
  }

  void erase_batch(const std::vector<key_type>& keys)
      PHCH_REQUIRES_PHASE(erase) {
    reclaim::op_guard qp;
    phch::erase_batch(*cur(), keys);
  }

  std::size_t growth_count() const noexcept {
    return growths_.load(std::memory_order_relaxed);
  }

  // Read-only view of the current flat table, for layout inspection at
  // quiescent points (racy against a concurrent grow()).
  const inner_table& inner() const noexcept { return *cur(); }

  // The current incarnation's phase word. Growth replaces the inner table,
  // so this covers the incarnation live at the call.
  phase_runtime& phase_rt() const noexcept { return cur()->phase_rt(); }

  // Phase-capability tokens (utils/phase_caps.h): the static half of the
  // phase contract the Phase policy enforces at runtime. Public so callers'
  // phase-region markers can name them in their own annotations.
  PHCH_PHASE_CAPABILITIES();

 private:
  // Elements per growth-checked chunk of a batch insert. Small enough that
  // "fits under the occupancy ceiling" is checkable up front per chunk,
  // large enough to amortize the check and keep the pipelined engine's
  // blocks full.
  static constexpr std::size_t kGrowChunk = 4096;

  inner_table* cur() const noexcept {
    return table_.load(std::memory_order_acquire);
  }

  std::size_t probe_limit(std::size_t cap) const noexcept {
    // k * log2(capacity): beyond this an insert declares the table overfull.
    // Capped at half the capacity so small tables trigger growth instead of
    // genuinely filling up.
    std::size_t lg = 1;
    for (std::size_t c = cap; c > 1; c >>= 1) ++lg;
    return std::min(probe_limit_factor_ * lg, cap / 2);
  }

  void enter() noexcept {
    for (;;) {
      active_.fetch_add(1, std::memory_order_acquire);
      if (!resizing_.load(std::memory_order_acquire)) return;
      // A resize is pending; back out and wait for it to finish.
      active_.fetch_sub(1, std::memory_order_release);
      while (resizing_.load(std::memory_order_acquire)) cpu_relax();
    }
  }
  void leave() noexcept { active_.fetch_sub(1, std::memory_order_release); }

  void grow(std::size_t target_capacity) {
    std::lock_guard<std::mutex> lg(grow_lock_);
    inner_table* old = cur();
    if (old->capacity() >= target_capacity) return;  // someone else grew it
    obs::span sp("grow");
    const std::uint64_t grow_t0 = obs::now_if_enabled();
    resizing_.store(true, std::memory_order_release);
    // Drain in-flight inserts on the old table (writers only — concurrent
    // readers keep probing the old array unexcluded; reclamation keeps it
    // alive for them).
    while (active_.load(std::memory_order_acquire) != 0) cpu_relax();
    auto fresh = std::make_unique<inner_table>(target_capacity);
    // Migrate: deterministic re-insertion of the old contents through the
    // pipelined batch engine (worker threads stuck in enter() spin, so on an
    // oversubscribed machine migration may serialize; correctness is
    // unaffected). Theorem 1 makes the migrated layout identical to a fresh
    // build regardless of re-insertion order, so batching changes nothing
    // observable.
    std::vector<value_type> live = old->elements();
    insert_batch_range(*fresh, live.data(), live.size());
    obs::count(obs::counter::growths);
    obs::count(obs::counter::migrated_elements, live.size());
    sp.a = static_cast<std::uint32_t>(
        live.size() < 0xffffffffu ? live.size() : 0xffffffffu);
    sp.b = target_capacity;
    // Publish the new table, then retire the old one: readers that loaded
    // the old pointer before the store finish against an array whose grace
    // period has not yet passed.
    table_.store(fresh.release(), std::memory_order_release);
    reclaim::retire(old);
    growths_.fetch_add(1, std::memory_order_relaxed);
    resizing_.store(false, std::memory_order_release);
    obs::hist_record_since(obs::global_hist::growth_ns, grow_t0);
  }

  std::size_t probe_limit_factor_;
  std::atomic<inner_table*> table_;
  std::mutex grow_lock_;
  std::atomic<bool> resizing_{false};
  std::atomic<std::size_t> active_{0};
  std::atomic<std::size_t> growths_{0};
};

static_assert(batch_forwarding_table<growable_table<>>);

}  // namespace phch
