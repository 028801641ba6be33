// hopscotchHash: re-implementation of Herlihy, Shavit & Tzafrir's hopscotch
// hashing (DISC 2008), the paper's fastest fully-concurrent open-addressing
// competitor, plus the paper's "-PC" variant.
//
// Every bucket b carries a 64-bit hop bitmap: bit d set means slot b+d
// (mod capacity) holds an element whose home bucket is b, so a find touches
// at most one extra cache line. Inserts lock the home bucket's *segment*,
// claim an empty slot with a CAS on a BUSY sentinel, and if the slot is
// further than H = 64 positions from home, repeatedly displace an element
// from the window just below the free slot to bring the hole closer.
//
// Concurrency control, as in the original:
//  - striped segment locks serialize updates to a bucket's hop bitmap;
//  - a per-segment timestamp lets fully-concurrent finds detect a racing
//    displacement and fall back to a linear scan of the hop window.
//
// The phase-concurrent variant (WithTimestamps = false) is the paper's
// hopscotchHash-PC: when finds never overlap updates the timestamp field is
// dead weight, so it is removed entirely.
//
// The table models phase_table / deletable_table and forwards its own batch
// members (batch_forwarding_table / erase_forwarding_table): every
// operation's first touches are the home bucket's hop word and the slots of
// its neighborhood, so the batch path keeps a ring of in-flight operations
// and prefetches that home neighborhood (hop word line, the home slot line
// and the next slot line — where nearly all residents sit at sane load
// factors — plus the segment-lock line for mutating ops) one rotation
// before resolving each operation through the scalar walk on warm lines.
// Occupancy is tracked by a striped counter (approx_size(), exact at phase
// boundaries); count() remains the O(capacity) verification scan.
#pragma once

#include <array>
#include <atomic>
#include <bit>
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

template <typename Traits = int_entry<>, bool WithTimestamps = true,
          typename Phase = unchecked_phases>
class hopscotch_table {
 public:
  using traits = Traits;
  using value_type = typename Traits::value_type;
  using key_type = typename Traits::key_type;

  static constexpr std::size_t kHopRange = 64;  // machine word, as the paper suggests

  explicit hopscotch_table(std::size_t min_capacity)
      : slots_(std::max<std::size_t>(min_capacity, 4 * kHopRange)),
        hop_(slots_.capacity(), 0),
        locks_(slots_.capacity() / kSegmentSize),
        timestamps_(WithTimestamps ? slots_.capacity() / kSegmentSize : 1) {}

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
    parallel_for(0, capacity(), [&](std::size_t i) { hop_[i] = 0; });
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
  // explicit widths. start() prefetches the home neighborhood, so by the
  // time the ring rotates back the scalar walk runs on warm lines.

  template <typename K>
  void find_batch_block(const K* keys, std::size_t n, value_type* out,
                        std::size_t width) const {
    if (width > kMaxBatchWidth) width = kMaxBatchWidth;
    if (width < 1) width = 1;
    struct op {
      std::size_t idx;
      std::size_t b;
      key_type kq;
    };
    std::array<op, kMaxBatchWidth> ring;
    std::size_t issued = 0;
    std::size_t live = 0;
    std::uint64_t t_rot = 0;

    auto start = [&](op& o) {
      const std::size_t idx = issued++;
      const key_type kq = keys[idx];
      o = op{idx, home(kq), kq};
      prefetch_neighborhood_ro(o.b);
    };
    while (live < width && issued < n) start(ring[live++]);

    std::size_t r = 0;
    while (live > 0) {
      op& o = ring[r];
      out[o.idx] = find_impl(o.kq);
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
    obs::count(obs::counter::batch_blocks);
  }

  template <typename V>
  void insert_batch_block(const V* values, std::size_t n, std::size_t width) {
    if (width > kMaxBatchWidth) width = kMaxBatchWidth;
    if (width < 1) width = 1;
    struct op {
      std::size_t b;
      value_type v;
    };
    std::array<op, kMaxBatchWidth> ring;
    std::size_t issued = 0;
    std::size_t live = 0;
    std::uint64_t t_rot = 0, t_handoffs = 0;

    auto start = [&](op& o) {
      const value_type v = values[issued++];
      o = op{home(Traits::key(v)), v};
      prefetch_neighborhood_rw(o.b);
      detail::prefetch_rw(&locks_[segment(o.b)]);
    };
    while (live < width && issued < n) start(ring[live++]);

    std::size_t r = 0;
    while (live > 0) {
      op& o = ring[r];
      ++t_handoffs;
      insert_impl(o.v);  // scalar handoff on a warm home neighborhood
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
      std::size_t b;
      key_type kq;
    };
    std::array<op, kMaxBatchWidth> ring;
    std::size_t issued = 0;
    std::size_t live = 0;
    std::uint64_t t_rot = 0, t_handoffs = 0;

    auto start = [&](op& o) {
      const key_type kq = keys[issued++];
      o = op{home(kq), kq};
      prefetch_neighborhood_rw(o.b);
      detail::prefetch_rw(&locks_[segment(o.b)]);
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
  static constexpr std::size_t kSegmentSize = 256;  // buckets per lock stripe
  static constexpr int kFindRetries = 2;

  std::size_t home(key_type k) const noexcept { return Traits::hash(k) & slots_.mask(); }
  std::size_t segment(std::uint64_t unwrapped) const noexcept {
    return (unwrapped & slots_.mask()) / kSegmentSize;
  }
  value_type* slot(std::uint64_t unwrapped) noexcept { return &slots_[unwrapped & slots_.mask()]; }
  const value_type* slot(std::uint64_t unwrapped) const noexcept {
    return &slots_[unwrapped & slots_.mask()];
  }

  // Home-neighborhood prefetch: the hop word plus the first two slot lines
  // of the window [b, b + H). At sane load factors nearly every resident of
  // bucket b sits within the first dozen positions, so these lines cover
  // the scalar walk that resolves the operation.
  void prefetch_neighborhood_ro(std::size_t b) const noexcept {
    detail::prefetch_ro(&hop_[b]);
    detail::prefetch_ro(&slots_[b]);
    detail::prefetch_ro(&slots_[(b + batch_detail::slots_per_line<value_type>)&slots_.mask()]);
  }
  void prefetch_neighborhood_rw(std::size_t b) const noexcept {
    detail::prefetch_rw(&hop_[b]);
    detail::prefetch_rw(&slots_[b]);
    detail::prefetch_rw(&slots_[(b + batch_detail::slots_per_line<value_type>)&slots_.mask()]);
  }

  std::uint64_t hop_load(std::size_t b) const noexcept {
    return __atomic_load_n(&hop_[b], __ATOMIC_ACQUIRE);
  }
  void hop_store(std::size_t b, std::uint64_t bits) noexcept {
    __atomic_store_n(&hop_[b], bits, __ATOMIC_RELEASE);
  }

  std::uint32_t read_timestamp(std::size_t seg) const noexcept {
    if constexpr (WithTimestamps)
      return timestamps_[seg].load(std::memory_order_acquire);
    else
      return 0;
  }
  void bump_timestamp(std::size_t seg) noexcept {
    if constexpr (WithTimestamps)
      timestamps_[seg].fetch_add(1, std::memory_order_acq_rel);
  }

  // Scalar insert, shared by insert() and the batch handoff. Exactly one of
  // insert_commits / insert_dups / insert_aborts is recorded per call.
  void insert_impl(value_type v) {
    obs::count(obs::counter::insert_ops);
    assert(!Traits::is_empty(v));
    const key_type k = Traits::key(v);
    const std::size_t b = home(k);
    std::lock_guard<spinlock> lg(locks_[segment(b)]);
    // Duplicate check through the hop bitmap (home segment is locked, so
    // bucket b's membership cannot change underneath us).
    if (std::uint64_t bits = hop_load(b)) {
      while (bits != 0) {
        const unsigned d = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        value_type& s = slots_[(b + d) & slots_.mask()];
        const value_type c = atomic_load(&s);
        if (!Traits::is_empty(c) && Traits::key_equal(Traits::key(c), k)) {
          if constexpr (Traits::has_combine) atomic_store(&s, Traits::combine(c, v));
          obs::count(obs::counter::insert_dups);
          return;
        }
      }
    }
    // Claim the first empty slot at or after b with a CAS to BUSY (other
    // segments' inserters compete for the same empty slots).
    std::uint64_t free = b;  // unwrapped position
    for (;;) {
      const value_type c = atomic_load(slot(free));
      if (Traits::is_empty(c) && cas(slot(free), c, Traits::busy())) break;
      ++free;
      if (free - b >= capacity()) {
        obs::count(obs::counter::insert_aborts);
        throw table_full_error();
      }
    }
    // Hopscotch displacement: while the hole is out of range of b, move an
    // element from the window just below the hole into the hole.
    while (free - b >= kHopRange) {
      const std::uint64_t new_free = displace(free, segment(b));
      if (new_free == free) {
        // No movable candidate: the table needs resizing; undo the claim.
        atomic_store(slot(free), Traits::empty());
        obs::count(obs::counter::insert_aborts);
        throw table_full_error();
      }
      free = new_free;
    }
    atomic_store(slot(free), v);
    hop_store(b, hop_load(b) | (1ULL << (free - b)));
    occupied_.increment();
    obs::count(obs::counter::insert_commits);
  }

  void erase_impl(key_type kq) {
    obs::count(obs::counter::erase_ops);
    const std::size_t b = home(kq);
    std::lock_guard<spinlock> lg(locks_[segment(b)]);
    std::uint64_t bits = hop_load(b);
    while (bits != 0) {
      const unsigned d = static_cast<unsigned>(std::countr_zero(bits));
      bits &= bits - 1;
      value_type& s = slots_[(b + d) & slots_.mask()];
      const value_type c = atomic_load(&s);
      if (!Traits::is_empty(c) && Traits::key_equal(Traits::key(c), kq)) {
        bump_timestamp(segment(b));
        atomic_store(&s, Traits::empty());
        hop_store(b, hop_load(b) & ~(1ULL << d));
        bump_timestamp(segment(b));
        occupied_.decrement();
        obs::count(obs::counter::erase_hits);
        return;
      }
    }
  }

  value_type find_impl(key_type kq) const {
    obs::count(obs::counter::find_ops);
    obs::probe_tally tally;
    const std::size_t b = home(kq);
    for (int attempt = 0; attempt < kFindRetries; ++attempt) {
      const std::uint32_t ts0 = read_timestamp(segment(b));
      std::uint64_t bits = hop_load(b);
      while (bits != 0) {
        const unsigned d = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        const value_type c = atomic_load(&slots_[(b + d) & slots_.mask()]);
        ++tally.slots;
        if (!Traits::is_empty(c) && !bits_equal(c, Traits::busy()) &&
            Traits::key_equal(Traits::key(c), kq)) {
          obs::count(obs::counter::find_hits);
          return c;
        }
      }
      if constexpr (!WithTimestamps) return Traits::empty();
      if (read_timestamp(segment(b)) == ts0) return Traits::empty();
      // A displacement raced with us; retry, then fall through to the slow
      // path that scans the whole hop window regardless of bitmaps.
    }
    for (std::size_t d = 0; d < kHopRange; ++d) {
      const value_type c = atomic_load(&slots_[(b + d) & slots_.mask()]);
      ++tally.slots;
      if (!Traits::is_empty(c) && !bits_equal(c, Traits::busy()) &&
          Traits::key_equal(Traits::key(c), kq)) {
        obs::count(obs::counter::find_hits);
        return c;
      }
    }
    return Traits::empty();
  }

  // Tries to move one element from the window (free - H, free) into the
  // BUSY hole at `free`; returns the new (lower) hole position, or `free`
  // unchanged if nothing in the window can move. The caller holds the home
  // segment's lock; the moved element's own segment lock is taken with
  // try_lock to stay deadlock-free across segments.
  std::uint64_t displace(std::uint64_t free, std::size_t held_seg) {
    for (std::uint64_t hb = free - (kHopRange - 1); hb < free; ++hb) {
      const std::size_t seg = segment(hb);
      // Candidate bucket's bitmap; need its segment lock to mutate it.
      std::unique_lock<spinlock> ul;
      if (seg != held_seg) {
        ul = std::unique_lock<spinlock>(locks_[seg], std::try_to_lock);
        if (!ul.owns_lock()) continue;
      }
      std::uint64_t bits = hop_load(hb & slots_.mask());
      while (bits != 0) {
        const unsigned d = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint64_t s = hb + d;
        if (s >= free) break;  // bits are scanned lowest-first
        const value_type w = atomic_load(slot(s));
        if (Traits::is_empty(w) || bits_equal(w, Traits::busy())) continue;
        bump_timestamp(seg);
        atomic_store(slot(free), w);
        hop_store(hb & slots_.mask(),
                  (hop_load(hb & slots_.mask()) & ~(1ULL << d)) | (1ULL << (free - hb)));
        atomic_store(slot(s), Traits::busy());
        bump_timestamp(seg);
        obs::count(obs::counter::hopscotch_displacements);
        return s;
      }
    }
    return free;
  }

  slot_array<Traits> slots_;
  std::vector<std::uint64_t> hop_;
  mutable std::vector<spinlock> locks_;
  std::vector<std::atomic<std::uint32_t>> timestamps_;
  striped_counter occupied_;
  mutable Phase phase_;

 public:
  // Phase-capability tokens (utils/phase_caps.h): the static half of the
  // phase contract the Phase policy enforces at runtime.
  PHCH_PHASE_CAPABILITIES();
};

}  // namespace phch
