// cuckooHash: the paper's phase-concurrent (but non-deterministic) cuckoo
// baseline. Two hash functions; an insertion locks its element's two
// candidate slots in increasing slot order (deadlock freedom), places the
// element in one of them, and recursively re-inserts any evicted element.
// The final position of an element depends on insertion interleaving, so
// the layout is history-dependent.
//
// As in the paper's implementation, every slot carries its own lock, which
// enlarges the memory footprint and is why elements() is slower here than
// for the plain linear-probing tables.
//
// The table models phase_table / deletable_table and forwards its own batch
// members (batch_forwarding_table / erase_forwarding_table): cuckoo probes
// touch exactly two unrelated cache lines per operation, so the batch path
// keeps a ring of in-flight operations and prefetches *both* candidate
// buckets (and their lock lines, for mutating ops) one rotation before
// resolving each operation on warm lines. Inserts resolve by handing off to
// the scalar loop at that point — the first eviction and any chain after it
// run exactly the scalar code. Occupancy is tracked by a striped counter
// (approx_size(), exact at phase boundaries); count() remains the O(capacity)
// verification scan.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/entry_traits.h"
#include "phch/core/phase_guard.h"
#include "phch/core/table_common.h"
#include "phch/obs/telemetry.h"
#include "phch/parallel/atomics.h"
#include "phch/parallel/parallel_for.h"
#include "phch/parallel/primitives.h"
#include "phch/parallel/spinlock.h"
#include "phch/parallel/striped_counter.h"
#include "phch/utils/phase_caps.h"

namespace phch {

template <typename Traits = int_entry<>, typename Phase = unchecked_phases>
class cuckoo_table {
 public:
  using traits = Traits;
  using value_type = typename Traits::value_type;
  using key_type = typename Traits::key_type;

  explicit cuckoo_table(std::size_t min_capacity)
      : slots_(min_capacity < 4 ? 4 : min_capacity), locks_(slots_.capacity()) {}

  std::size_t capacity() const noexcept { return slots_.capacity(); }

  // Striped occupancy: exact at a phase boundary, approximate mid-phase.
  std::size_t approx_size() const noexcept {
    return static_cast<std::size_t>(occupied_.sum());
  }

  // O(capacity) reference count, kept as the verification path for
  // approx_size() and the layout tests.
  std::size_t count() const {
    return slots_.count();
  }

  void clear() {
    slots_.clear();
    occupied_.reset();
  }

  void insert(value_type v) PHCH_REQUIRES_PHASE(insert) {
    typename Phase::scope guard(phase_, op_kind::insert);
    insert_impl(v);
  }

  void erase(key_type kq) PHCH_REQUIRES_PHASE(erase) {
    typename Phase::scope guard(phase_, op_kind::erase);
    erase_impl(kq);
  }

  value_type find(key_type kq) const PHCH_REQUIRES_PHASE(query) {
    typename Phase::scope guard(phase_, op_kind::query);
    return find_impl(kq);
  }

  bool contains(key_type kq) const PHCH_REQUIRES_PHASE(query) {
    return !Traits::is_empty(find(kq));
  }

  std::vector<value_type> elements() const PHCH_REQUIRES_PHASE(query) {
    typename Phase::scope guard(phase_, op_kind::query);
    return slots_.elements();
  }

  template <typename F>
  void for_each(F&& f) const PHCH_REQUIRES_PHASE(query) {
    typename Phase::scope guard(phase_, op_kind::query);
    parallel_for(0, capacity(), [&](std::size_t s) {
      const value_type c = slots_[s];
      if (!Traits::is_empty(c)) f(c);
    });
  }

  // --- whole-batch members (batch_forwarding_table) ------------------------
  // One phase scope spans the batch; blocked_for supplies the cross-block
  // parallelism and the per-block engines below supply the memory-level
  // parallelism.

  template <typename V>
  void insert_batch(const std::vector<V>& values) PHCH_REQUIRES_PHASE(insert) {
    [[maybe_unused]] auto scope = batch_insert_scope();
    const std::size_t width = batch_width();
    blocked_for(0, values.size(), 2048,
                [&](std::size_t, std::size_t s, std::size_t e) {
                  insert_batch_block(values.data() + s, e - s, width);
                });
  }

  template <typename K>
  std::vector<value_type> find_batch(const std::vector<K>& keys) const
      PHCH_REQUIRES_PHASE(query) {
    std::vector<value_type> out(keys.size());
    [[maybe_unused]] auto scope = batch_query_scope();
    const std::size_t width = batch_width();
    blocked_for(0, keys.size(), 2048,
                [&](std::size_t, std::size_t s, std::size_t e) {
                  find_batch_block(keys.data() + s, e - s, out.data() + s, width);
                });
    return out;
  }

  template <typename K>
  void erase_batch(const std::vector<K>& keys) PHCH_REQUIRES_PHASE(erase) {
    [[maybe_unused]] auto scope = batch_erase_scope();
    const std::size_t width = batch_width();
    blocked_for(0, keys.size(), 2048,
                [&](std::size_t, std::size_t s, std::size_t e) {
                  erase_batch_block(keys.data() + s, e - s, width);
                });
  }

  // --- single-thread block engines -----------------------------------------
  // Serial within a block; public so benches can drive them directly with
  // explicit widths. Each lane's start() prefetches both candidate buckets,
  // so by the time the ring rotates back the resolve step runs on warm
  // lines: a lookup inspects at most two resident slots, a mutating op
  // hands off to the scalar continuation whose first lock/probe/CAS hits
  // the lines just fetched (evictions past that point run the plain scalar
  // chain).

  template <typename K>
  void find_batch_block(const K* keys, std::size_t n, value_type* out,
                        std::size_t width) const {
    if (width > kMaxBatchWidth) width = kMaxBatchWidth;
    if (width < 1) width = 1;
    struct op {
      std::size_t idx;
      std::size_t i1, i2;
      key_type kq;
    };
    std::array<op, kMaxBatchWidth> ring;
    std::size_t issued = 0;
    std::size_t live = 0;
    std::uint64_t t_slots = 0, t_rot = 0, t_hits = 0;

    auto start = [&](op& o) {
      const std::size_t idx = issued++;
      const key_type kq = keys[idx];
      o = op{idx, home1(kq), home2(kq), kq};
      detail::prefetch_ro(&slots_[o.i1]);
      detail::prefetch_ro(&slots_[o.i2]);
    };
    while (live < width && issued < n) start(ring[live++]);

    std::size_t r = 0;
    while (live > 0) {
      op& o = ring[r];
      value_type result = Traits::empty();
      for (const std::size_t s : {o.i1, o.i2}) {
        const value_type c = atomic_load(&slots_[s]);
        ++t_slots;
        if (!Traits::is_empty(c) && Traits::key_equal(Traits::key(c), o.kq)) {
          result = c;
          ++t_hits;
          break;
        }
      }
      out[o.idx] = result;
      if (issued < n) {
        start(o);
      } else {
        ring[r] = ring[--live];
        if (r == live) r = 0;
        continue;
      }
      ++t_rot;
      if (++r >= live) r = 0;
    }
    obs::count(obs::counter::find_ops, n);
    obs::count(obs::counter::find_hits, t_hits);
    obs::count(obs::counter::batch_probe_slots, t_slots);
    obs::count(obs::counter::batch_rotations, t_rot);
    obs::count(obs::counter::batch_blocks);
  }

  template <typename V>
  void insert_batch_block(const V* values, std::size_t n, std::size_t width) {
    if (width > kMaxBatchWidth) width = kMaxBatchWidth;
    if (width < 1) width = 1;
    struct op {
      std::size_t i1, i2;
      value_type v;
    };
    std::array<op, kMaxBatchWidth> ring;
    std::size_t issued = 0;
    std::size_t live = 0;
    std::uint64_t t_rot = 0, t_handoffs = 0;

    auto start = [&](op& o) {
      const value_type v = values[issued++];
      const key_type k = Traits::key(v);
      o = op{home1(k), home2(k), v};
      detail::prefetch_rw(&slots_[o.i1]);
      detail::prefetch_rw(&slots_[o.i2]);
      detail::prefetch_rw(&locks_[o.i1]);
      detail::prefetch_rw(&locks_[o.i2]);
    };
    while (live < width && issued < n) start(ring[live++]);

    std::size_t r = 0;
    while (live > 0) {
      op& o = ring[r];
      ++t_handoffs;
      insert_impl(o.v);  // scalar handoff: iteration 0 runs on warm lines
      if (issued < n) {
        start(o);
      } else {
        ring[r] = ring[--live];
        if (r == live) r = 0;
        continue;
      }
      ++t_rot;
      if (++r >= live) r = 0;
    }
    obs::count(obs::counter::batch_rotations, t_rot);
    obs::count(obs::counter::batch_handoffs, t_handoffs);
    obs::count(obs::counter::batch_blocks);
  }

  template <typename K>
  void erase_batch_block(const K* keys, std::size_t n, std::size_t width) {
    if (width > kMaxBatchWidth) width = kMaxBatchWidth;
    if (width < 1) width = 1;
    struct op {
      std::size_t i1, i2;
      key_type kq;
    };
    std::array<op, kMaxBatchWidth> ring;
    std::size_t issued = 0;
    std::size_t live = 0;
    std::uint64_t t_rot = 0, t_handoffs = 0;

    auto start = [&](op& o) {
      const key_type kq = keys[issued++];
      o = op{home1(kq), home2(kq), kq};
      detail::prefetch_rw(&slots_[o.i1]);
      detail::prefetch_rw(&slots_[o.i2]);
      detail::prefetch_rw(&locks_[o.i1]);
      detail::prefetch_rw(&locks_[o.i2]);
    };
    while (live < width && issued < n) start(ring[live++]);

    std::size_t r = 0;
    while (live > 0) {
      op& o = ring[r];
      ++t_handoffs;
      erase_impl(o.kq);
      if (issued < n) {
        start(o);
      } else {
        ring[r] = ring[--live];
        if (r == live) r = 0;
        continue;
      }
      ++t_rot;
      if (++r >= live) r = 0;
    }
    obs::count(obs::counter::batch_rotations, t_rot);
    obs::count(obs::counter::batch_handoffs, t_handoffs);
    obs::count(obs::counter::batch_blocks);
  }

  // Batch-engine phase hooks: one scope spanning a whole batch, so
  // checked_phases observes batched traffic it would otherwise miss.
  // phase_rt() is the table's single phase-state word (phase epoch +
  // current class, core/phase_runtime.h), shared by scalar and batch scopes.
  phase_runtime& phase_rt() const noexcept { return phase_.runtime(); }

  typename Phase::scope batch_query_scope() const PHCH_REQUIRES_PHASE(query) {
    return typename Phase::scope(phase_, op_kind::query);
  }
  typename Phase::scope batch_insert_scope() PHCH_REQUIRES_PHASE(insert) {
    return typename Phase::scope(phase_, op_kind::insert);
  }
  typename Phase::scope batch_erase_scope() PHCH_REQUIRES_PHASE(erase) {
    return typename Phase::scope(phase_, op_kind::erase);
  }

 private:
  static constexpr std::size_t kMaxEvictions = 10000;

  std::size_t home1(key_type k) const noexcept { return Traits::hash(k) & slots_.mask(); }
  std::size_t home2(key_type k) const noexcept {
    // Independent second hash from a re-mix of the primary hash.
    return hash64(Traits::hash(k) ^ 0xc2b2ae3d27d4eb4fULL) & slots_.mask();
  }

  void lock_pair(std::size_t a, std::size_t b) const {
    if (a == b) {
      locks_[a].lock();
      return;
    }
    if (a > b) std::swap(a, b);  // increasing order prevents deadlock
    locks_[a].lock();
    locks_[b].lock();
  }
  void unlock_pair(std::size_t a, std::size_t b) const {
    locks_[a].unlock();
    if (b != a) locks_[b].unlock();
  }

  // Scalar insert loop, shared by insert() and the batch handoff. Exactly
  // one of insert_commits / insert_dups / insert_aborts is recorded per
  // call (the ledger identity phch_trace checks); eviction-chain steps that
  // re-place a carried victim tick only cuckoo_evictions.
  void insert_impl(value_type v) {
    assert(!Traits::is_empty(v));
    obs::count(obs::counter::insert_ops);
    // `avoid` is the slot the current element was just evicted from, so the
    // chain does not immediately bounce it back.
    std::size_t avoid = capacity();  // invalid
    bool carrying = false;           // v is an evicted victim, already counted
    for (std::size_t iter = 0; iter < kMaxEvictions; ++iter) {
      const key_type k = Traits::key(v);
      const std::size_t i1 = home1(k);
      const std::size_t i2 = home2(k);
      lock_pair(i1, i2);
      // Duplicate key already present? A carried victim can hit this branch
      // too: while it was in flight, a concurrent insert of the same key may
      // have committed a fresh copy. Merging the victim into that copy
      // removes it from the table, so the occupancy it still accounts for is
      // released here.
      for (const std::size_t s : {i1, i2}) {
        const value_type c = slots_[s];
        if (!Traits::is_empty(c) && Traits::key_equal(Traits::key(c), k)) {
          if constexpr (Traits::has_combine) {
            atomic_store(&slots_[s], Traits::combine(c, v));
          }
          unlock_pair(i1, i2);
          if (carrying)
            occupied_.decrement();
          else
            obs::count(obs::counter::insert_dups);
          return;
        }
      }
      // An empty candidate slot?
      for (const std::size_t s : {i1, i2}) {
        if (Traits::is_empty(slots_[s])) {
          atomic_store(&slots_[s], v);
          unlock_pair(i1, i2);
          if (!carrying) {
            occupied_.increment();
            obs::count(obs::counter::insert_commits);
          }
          return;
        }
      }
      // Evict: prefer i1 unless that is where v just came from.
      const std::size_t victim_slot = (i1 == avoid) ? i2 : i1;
      const value_type victim = slots_[victim_slot];
      atomic_store(&slots_[victim_slot], v);
      unlock_pair(i1, i2);
      if (!carrying) {
        occupied_.increment();
        obs::count(obs::counter::insert_commits);
        carrying = true;
      }
      obs::count(obs::counter::cuckoo_evictions);
      v = victim;
      avoid = victim_slot;
    }
    // Eviction chain too long: table effectively full. The carried victim
    // is dropped with the throw, so the occupancy net change is zero.
    if (carrying) occupied_.decrement();
    obs::count(obs::counter::insert_aborts);
    throw table_full_error();
  }

  void erase_impl(key_type kq) {
    obs::count(obs::counter::erase_ops);
    const std::size_t i1 = home1(kq);
    const std::size_t i2 = home2(kq);
    lock_pair(i1, i2);
    bool hit = false;
    for (const std::size_t s : {i1, i2}) {
      const value_type c = slots_[s];
      if (!Traits::is_empty(c) && Traits::key_equal(Traits::key(c), kq)) {
        atomic_store(&slots_[s], Traits::empty());
        hit = true;
        break;
      }
    }
    unlock_pair(i1, i2);
    if (hit) {
      occupied_.decrement();
      obs::count(obs::counter::erase_hits);
    }
  }

  value_type find_impl(key_type kq) const {
    obs::count(obs::counter::find_ops);
    obs::probe_tally tally;
    for (const std::size_t s : {home1(kq), home2(kq)}) {
      const value_type c = atomic_load(&slots_[s]);
      ++tally.slots;
      if (!Traits::is_empty(c) && Traits::key_equal(Traits::key(c), kq)) {
        obs::count(obs::counter::find_hits);
        return c;
      }
    }
    return Traits::empty();
  }

  slot_array<Traits> slots_;
  mutable std::vector<spinlock> locks_;
  striped_counter occupied_;
  mutable Phase phase_;

 public:
  // Phase-capability tokens (utils/phase_caps.h): the static half of the
  // phase contract the Phase policy enforces at runtime.
  PHCH_PHASE_CAPABILITIES();
};

}  // namespace phch
