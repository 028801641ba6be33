// The policy-based open-addressing core behind the linear-probing tables.
//
// The paper's three linear-probing variants are one algorithm with two
// orthogonal policy choices:
//
//   ordering policy   what a probe may conclude from an occupant
//     prioritized_order  slots keep the history-independent ordering
//                        invariant (Definition 2): an insert displaces
//                        lower-priority occupants, and probes stop early at
//                        the first not-higher-priority slot (linearHash-D,
//                        §3, Figure 1).
//     arrival_order      first-empty-slot placement, so the layout depends
//                        on arrival order; probes stop only at ⊥ or an
//                        equal key (linearHash-ND, after Gao et al.).
//
//   delete policy     how erase removes an entry
//     backshift_delete   hole filling via FindReplacement (Figure 1, lines
//                        11–24): the cluster is repaired in place and the
//                        table carries no garbage.
//     tombstone_delete   the §2 strawman: mark the slot with Traits::busy()
//                        and never reuse it; probes skip tombstones, and
//                        only compact() reclaims them.
//
// probe_engine owns everything the policies share: the slot array, the
// probe/CAS loops (scalar entry points plus the insert_from/erase_from
// continuations the pipelined batch engine resumes into), the striped
// occupancy counter, capacity handling, phase-checking scopes, and the
// ELEMENTS() pack. The concrete tables are thin aliases:
//
//   deterministic_table = probe_engine<prioritized_order, backshift_delete>
//   nd_linear_table     = probe_engine<arrival_order,     backshift_delete>
//   tombstone_table     = probe_engine<arrival_order,     tombstone_delete>
//
// The engine also distills each policy pair into three static probe
// classifiers — classify_find / insert_scan_stop / erase_scan_stop — which
// the batched engines in core/batch_ops.h drive instead of re-implementing
// policy logic, so every policy combination gets software-pipelined batching
// for free. Layouts are bit-identical to the pre-engine tables: the loops
// below are the same control flow, merely parameterized.
//
// Capacity. The caller keeps the table from filling (the paper's
// precondition), yet a full table is a legal state for every operation but
// the insert of a new key, which throws table_full_error. A find that sweeps
// every slot without a stop reports the key absent, a backshift erase whose
// forward scan wraps runs its downward scan over every slot, and
// FindReplacement treats a wrap back to the hole as reaching ⊥.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "phch/core/entry_traits.h"
#include "phch/core/phase_guard.h"
#include "phch/core/table_common.h"
#include "phch/obs/histogram.h"
#include "phch/obs/telemetry.h"
#include "phch/parallel/atomics.h"
#include "phch/parallel/striped_counter.h"
#include "phch/utils/phase_caps.h"

namespace phch {

// --- ordering policies ------------------------------------------------------

// History-independent prioritized linear probing (the paper's contribution).
struct prioritized_order {
  static constexpr bool ordered_probes = true;
};

// First-fit placement, layout depends on arrival order (the ND baseline).
struct arrival_order {
  static constexpr bool ordered_probes = false;
};

// --- delete policies --------------------------------------------------------

// Hole filling by back-shifting (Figure 1 FINDREPLACEMENT); no garbage.
struct backshift_delete {
  static constexpr bool uses_tombstones = false;
};

// Gao-et-al tombstones: erase marks, probes skip, footprint only grows.
struct tombstone_delete {
  static constexpr bool uses_tombstones = true;
};

template <typename Traits, typename Phase, typename Order, typename Delete>
class probe_engine {
 public:
  using traits = Traits;
  using value_type = typename Traits::value_type;
  using key_type = typename Traits::key_type;
  using order_policy = Order;
  using delete_policy = Delete;

  // Probes may stop early on the ordering invariant (batch-engine tag).
  static constexpr bool ordered_probes = Order::ordered_probes;

  // Capacity is rounded up to a power of two. The caller must keep the
  // table from filling (paper precondition); `load_factor()` reports usage.
  explicit probe_engine(std::size_t min_capacity)
      : slots_(min_capacity) {}

  std::size_t capacity() const noexcept { return slots_.capacity(); }

  // Live entries (excludes tombstones), by parallel scan.
  std::size_t count() const {
    if constexpr (Delete::uses_tombstones) {
      return reduce(std::size_t{0}, capacity(), std::size_t{0},
                    std::plus<std::size_t>{},
                    [&](std::size_t i) { return std::size_t{is_present(slots_[i])}; });
    } else {
      return slots_.count();
    }
  }

  // Live-entry count maintained by a cache-line-striped counter so the
  // insert/erase hot paths never fetch_add a shared line (exact at phase
  // boundaries, summed lazily; used by the growable wrapper's load trigger
  // without an O(capacity) scan).
  std::size_t approx_size() const noexcept {
    return static_cast<std::size_t>(occupied_.sum());
  }

  double load_factor() const { return static_cast<double>(count()) / capacity(); }

  void clear() {
    slots_.clear();
    occupied_.reset();
  }

  // --- tombstone-only surface ----------------------------------------------

  // Live entries plus tombstones: the footprint that governs probe lengths.
  std::size_t footprint() const
    requires(Delete::uses_tombstones)
  {
    return reduce(std::size_t{0}, capacity(), std::size_t{0}, std::plus<std::size_t>{},
                  [&](std::size_t i) {
                    return std::size_t{!Traits::is_empty(slots_[i])};
                  });
  }

  // Rebuilds the table, dropping tombstones — the "copy the whole hash
  // table" reclamation §2 describes. Quiescent-point operation.
  void compact()
    requires(Delete::uses_tombstones)
  {
    std::vector<value_type> live = elements();
    clear();
    parallel_for(0, live.size(), [&](std::size_t i) { insert(live[i]); });
  }

  // --- probe classification (the policy pair, distilled) -------------------
  //
  // These three statics are the whole ordering/delete policy as seen by a
  // probe loop. The scalar operations below and the pipelined batch engines
  // in core/batch_ops.h both consume them, so scalar and batched execution
  // agree by construction.

  // Verdict for one slot during a find for kq.
  static probe_verdict classify_find(value_type c, key_type kq) noexcept {
    if (Traits::is_empty(c)) return probe_verdict::miss;
    if constexpr (Order::ordered_probes) {
      // Ordering invariant: the first not-higher-priority slot decides.
      if (Traits::priority_less(kq, Traits::key(c))) return probe_verdict::advance;
      return Traits::key_equal(Traits::key(c), kq) ? probe_verdict::hit
                                                   : probe_verdict::miss;
    } else {
      if (is_present(c) && Traits::key_equal(Traits::key(c), kq)) {
        return probe_verdict::hit;
      }
      return probe_verdict::advance;  // occupied or tombstone: keep scanning
    }
  }

  // True iff an insert of v probing slot contents c has reached a potential
  // commit point (empty slot, duplicate key, or — under the ordering
  // invariant — a not-higher-priority occupant to displace). While false,
  // the probe advances without writing, which is what the batch engine
  // pipelines; the scalar continuation takes over from the first stop.
  static bool insert_scan_stop(value_type c, value_type v) noexcept {
    if (Traits::is_empty(c)) return true;
    if constexpr (Order::ordered_probes) {
      return !Traits::priority_less(Traits::key(v), Traits::key(c));
    } else {
      return is_present(c) && Traits::key_equal(Traits::key(c), Traits::key(v));
    }
  }

  // True iff the forward scan of an erase for kq stops at slot contents c.
  // Backshift erases then run the downward CAS scan from here; tombstone
  // erases resume the scalar mark loop at this position.
  static bool erase_scan_stop(value_type c, key_type kq) noexcept {
    if (Traits::is_empty(c)) return true;
    if constexpr (Order::ordered_probes) {
      return !Traits::priority_less(kq, Traits::key(c));
    } else if constexpr (Delete::uses_tombstones) {
      return is_present(c) && Traits::key_equal(Traits::key(c), kq);
    } else {
      return false;  // without the invariant only ⊥ stops the scan
    }
  }

  // --- insert ---------------------------------------------------------------

  // Outcome of insert_bounded, for the growable wrapper's resize trigger.
  enum class insert_result {
    ok,        // inserted within the probe limit
    lengthy,   // inserted, but the probe sequence exceeded the limit: the
               // table is overfull and should be grown (paper §4 Resizing)
    aborted,   // probe limit hit before the first CAS: nothing was modified;
               // grow and retry
  };

  // INSERT (Figure 1, lines 1-10 for prioritized order; first-fit
  // otherwise). Safe to call concurrently with other inserts only. No return
  // value: commutativity is with respect to table state, and "was it new?"
  // is not well defined under concurrent merging.
  void insert(value_type v) PHCH_REQUIRES_PHASE(insert) {
    obs::latency_sampler lat(hists_);
    insert_impl(v, capacity() + 1, home(Traits::key(v)), 0);
  }

  // Batch-engine continuation (core/batch_ops.h): resume the probe loop at
  // slot i after the pipelined prefix has advanced past `advances` slots
  // without reaching a commit point. The slot at i is re-loaded here, so a
  // stale prefix read only costs a retry, never correctness.
  void insert_from(value_type v, std::size_t i, std::size_t advances)
      PHCH_REQUIRES_PHASE(insert) {
    insert_impl(v, capacity() + 1, i, advances);
  }

  // Insert that detects an overfull table for the growable wrapper via the
  // probe-length trigger. An over-limit probe aborts cleanly if the
  // operation has not yet modified the table; once committed (first
  // successful CAS), a displacement chain cannot be abandoned, so the
  // insert completes and merely reports `lengthy`.
  insert_result insert_bounded(value_type v, std::size_t probe_limit)
      PHCH_REQUIRES_PHASE(insert) {
    obs::latency_sampler lat(hists_);
    return insert_impl(v, probe_limit, home(Traits::key(v)), 0);
  }

 private:
  // CAS with telemetry accounting; identical to phch::cas when obs is off.
  static bool cas_tallied(obs::probe_tally& t, value_type* p, value_type expect,
                          value_type desired) noexcept {
    ++t.cas;
    if (cas(p, expect, desired)) return true;
    ++t.cas_failed;
    return false;
  }

  insert_result insert_impl(value_type v, std::size_t probe_limit, std::size_t i,
                            std::size_t advances) {
    typename Phase::scope guard(phase_, op_kind::insert);
    assert(!Traits::is_empty(v));
    obs::count(obs::counter::insert_ops);
    obs::probe_tally tally;
    // `advances` slots were already walked by the pipelined prefix; the
    // scope reads the tally's final slot count on every exit path below.
    obs::probe_depth_scope depth(&hists_, tally, advances);
    const std::size_t cap = capacity();
    bool committed = false;
    for (;;) {
      const value_type c = atomic_load(&slots_[i]);
      ++tally.slots;
      if (is_present(c) && Traits::key_equal(Traits::key(c), Traits::key(v))) {
        // Duplicate key: merge values per the traits' combine function.
        if constexpr (!Traits::has_combine) {
          obs::count(obs::counter::insert_dups);
          return finish(advances, probe_limit);  // key already present
        } else if constexpr (Order::ordered_probes) {
          // Whole-slot CAS merge; a failed CAS means another insert changed
          // the slot — re-examine it (it may no longer hold this key).
          const value_type merged = Traits::combine(c, v);
          if (bits_equal(merged, c) || cas_tallied(tally, &slots_[i], c, merged)) {
            obs::count(obs::counter::insert_dups);
            return finish(advances, probe_limit);
          }
          continue;
        } else if constexpr (Delete::uses_tombstones) {
          value_type cur = c;
          bool merged_in = false;
          for (;;) {
            const value_type merged = Traits::combine(cur, v);
            if (bits_equal(merged, cur) || cas_tallied(tally, &slots_[i], cur, merged)) {
              merged_in = true;
              break;
            }
            cur = atomic_load(&slots_[i]);
            if (is_tombstone(cur)) break;  // deleted meanwhile; keep probing
          }
          if (merged_in) {
            obs::count(obs::counter::insert_dups);
            return finish(advances, probe_limit);
          }
          // fall through: advance past the tombstone
        } else {
          // Arrival order with back-shift: a stored entry never moves during
          // an insert phase, so only the value word is merged (in place).
          combine_slot(tally, &slots_[i], c, v);
          obs::count(obs::counter::insert_dups);
          return finish(advances, probe_limit);
        }
      } else if (!insert_scan_stop(c, v)) {
        // The occupant keeps the slot; advance (below).
      } else if (cas_tallied(tally, &slots_[i], c, v)) {
        if constexpr (Order::ordered_probes) {
          // The displaced (strictly lower priority) element, possibly ⊥, is
          // now this operation's responsibility.
          committed = true;
          if (Traits::is_empty(c)) {
            occupied_.increment();
            obs::count(obs::counter::insert_commits);
            return finish(advances, probe_limit);
          }
          v = c;  // carry the displaced element onward (advance below)
        } else {
          occupied_.increment();
          obs::count(obs::counter::insert_commits);
          return finish(advances, probe_limit);
        }
      } else {
        continue;  // CAS failure: re-read the same slot and try again
      }
      i = next(i);
      if (++advances > cap) throw table_full_error();
      if (!committed && advances > probe_limit) {
        obs::count(obs::counter::insert_aborts);
        return insert_result::aborted;
      }
    }
  }

  static insert_result finish(std::size_t advances, std::size_t probe_limit) noexcept {
    return advances > probe_limit ? insert_result::lengthy : insert_result::ok;
  }

 public:
  // --- erase ----------------------------------------------------------------

  // DELETE. Safe to call concurrently with other erases only. Backshift
  // (Figure 1, lines 25-41): removes the (single) entry whose key equals
  // `kq`, filling the hole history-independently via FindReplacement.
  // Tombstone: marks the entry's slot with Traits::busy().
  void erase(key_type kq) PHCH_REQUIRES_PHASE(erase) {
    typename Phase::scope guard(phase_, op_kind::erase);
    obs::latency_sampler lat(hists_);
    obs::count(obs::counter::erase_ops);
    if constexpr (Delete::uses_tombstones) {
      tombstone_erase(kq, home(kq), 0);
    } else {
      const std::size_t cap = capacity();
      obs::probe_tally tally;
      obs::probe_depth_scope depth(&hists_, tally);
      // Unwrapped coordinates, offset by one capacity so they never
      // underflow. Initial forward scan (lines 27-29): past every slot the
      // ordering policy says could still precede the key. On a full table
      // the scan may find no stop; after a full wrap the downward scan
      // covers every slot.
      const std::uint64_t i = cap + home(kq);
      std::uint64_t k = i;
      for (;;) {
        ++tally.slots;
        if (erase_scan_stop(atomic_load(slot(k)), kq) || k - i + 1 == cap) break;
        ++k;
      }
      erase_downward(tally, kq, i, k);
    }
  }

  // Batch-engine continuation (core/batch_ops.h): the pipelined engine has
  // already run the initial forward scan, stopping `fwd_advances` slots past
  // the key's home. Backshift runs the downward scan from there; tombstone
  // resumes the scalar mark loop at that position (the slot is re-loaded, so
  // a stale pipelined read only costs a few extra probes).
  void erase_from(key_type kq, std::size_t fwd_advances)
      PHCH_REQUIRES_PHASE(erase) {
    typename Phase::scope guard(phase_, op_kind::erase);
    obs::count(obs::counter::erase_ops);
    if constexpr (Delete::uses_tombstones) {
      tombstone_erase(kq, (home(kq) + fwd_advances) & slots_.mask(), fwd_advances);
    } else {
      obs::probe_tally tally;
      obs::probe_depth_scope depth(&hists_, tally, fwd_advances);
      const std::uint64_t i = capacity() + home(kq);
      erase_downward(tally, kq, i, i + fwd_advances);
    }
  }

 private:
  void tombstone_erase(key_type kq, std::size_t i, std::size_t advances) {
    const std::size_t cap = capacity();
    obs::probe_tally tally;
    obs::probe_depth_scope depth(&hists_, tally, advances);
    for (;;) {
      const value_type c = atomic_load(&slots_[i]);
      ++tally.slots;
      if (Traits::is_empty(c)) return;  // not present
      if (is_present(c) && Traits::key_equal(Traits::key(c), kq)) {
        // Replace with the tombstone; a failed CAS means a concurrent erase
        // got it first (same result).
        if (cas_tallied(tally, &slots_[i], c, Traits::busy())) {
          occupied_.decrement();
          obs::count(obs::counter::erase_hits);
        }
        return;
      }
      i = next(i);
      if (++advances >= cap) return;  // full sweep: not present
    }
  }

  // Downward scan (lines 30-41), from unwrapped position k down to the
  // query key's unwrapped home i.
  void erase_downward(obs::probe_tally& tally, key_type kq, std::uint64_t i,
                      std::uint64_t k) {
    while (k >= i) {
      const value_type c = atomic_load(slot(k));
      ++tally.slots;
      if (Traits::is_empty(c) || !Traits::key_equal(Traits::key(c), kq)) {
        --k;
        continue;
      }
      const auto [j, w] = find_replacement(tally, k);
      if (cas_tallied(tally, slot(k), c, w)) {
        if (!Traits::is_empty(w)) {
          // A second copy of w now exists; this operation becomes an
          // outstanding delete for w (lines 36-39).
          kq = Traits::key(w);
          k = j;
          i = unwrapped_home(w, j);
        } else {
          occupied_.decrement();
          obs::count(obs::counter::erase_hits);
          return;
        }
      } else {
        --k;  // the copy we saw was deleted or moved down; keep scanning
      }
    }
  }

 public:
  // --- find / enumeration ---------------------------------------------------

  // FIND (Figure 1, lines 42-46). Safe concurrently with finds/elements.
  // Returns the stored value for key kq, or Traits::empty() if absent.
  // Under prioritized order the probe stops at the first slot whose priority
  // is not higher than kq — absent keys can be cheaper than in standard
  // linear probing.
  value_type find(key_type kq) const PHCH_REQUIRES_PHASE(query) {
    typename Phase::scope guard(phase_, op_kind::query);
    obs::latency_sampler lat(hists_);
    obs::count(obs::counter::find_ops);
    obs::probe_tally tally;
    obs::probe_depth_scope depth(&hists_, tally);
    const std::size_t cap = capacity();
    std::size_t i = home(kq);
    std::size_t advances = 0;
    for (;;) {
      const value_type c = atomic_load(&slots_[i]);
      ++tally.slots;
      switch (classify_find(c, kq)) {
        case probe_verdict::miss:
          return Traits::empty();
        case probe_verdict::hit:
          obs::count(obs::counter::find_hits);
          return c;
        case probe_verdict::advance:
          break;
      }
      i = next(i);
      if (++advances == cap) return Traits::empty();  // full sweep: absent
    }
  }

  bool contains(key_type kq) const PHCH_REQUIRES_PHASE(query) {
    return !Traits::is_empty(find(kq));
  }

  // ELEMENTS(): the live slots packed in slot order, via the shared
  // pack-based implementation. Under prioritized order the result is a
  // deterministic function of the table's contents (history independence).
  // Same phase class as find.
  std::vector<value_type> elements() const PHCH_REQUIRES_PHASE(query) {
    typename Phase::scope guard(phase_, op_kind::query);
    return packed_elements<Traits>(slots_.data(), capacity(),
                                   [](value_type c) { return is_present(c); });
  }

  // Applies f to each live slot (in parallel); query phase.
  template <typename F>
  void for_each(F&& f) const PHCH_REQUIRES_PHASE(query) {
    typename Phase::scope guard(phase_, op_kind::query);
    parallel_for(0, capacity(), [&](std::size_t s) {
      const value_type c = slots_[s];
      if (is_present(c)) f(c);
    });
  }

  // Raw slot view for tests (layout/ordering-invariant verification).
  const value_type* raw_slots() const noexcept { return slots_.data(); }

  // Address of the key's home slot, for software prefetching in batched
  // operations (see core/batch_ops.h).
  const void* home_address(key_type k) const noexcept { return &slots_[home(k)]; }

  // The table's single phase-state word (core/phase_runtime.h): current
  // operation class plus the monotone phase epoch. Exposed so wrappers —
  // auto_phased_table's room transitions, the trace-ledger validation in
  // tools/phch_trace — read and advance the same state the operation scopes
  // use, instead of keeping a parallel phase word.
  phase_runtime& phase_rt() const noexcept { return phase_.runtime(); }

  // The table's distribution block (probe depth, sampled op latency). The
  // batch engines record pipelined finds here; its totals survive the table
  // in obs::table_hist_totals. Zero-size when telemetry is compiled out.
  obs::table_hists& hists() const noexcept { return hists_; }

  // Batch-engine phase hooks: one scope spanning a whole pipelined block
  // (routed through the same phase_runtime as scalar operations), so
  // checked_phases observes batched traffic it would otherwise miss.
  typename Phase::scope batch_query_scope() const PHCH_REQUIRES_PHASE(query) {
    return typename Phase::scope(phase_, op_kind::query);
  }
  typename Phase::scope batch_insert_scope() PHCH_REQUIRES_PHASE(insert) {
    return typename Phase::scope(phase_, op_kind::insert);
  }
  typename Phase::scope batch_erase_scope() PHCH_REQUIRES_PHASE(erase) {
    return typename Phase::scope(phase_, op_kind::erase);
  }

  // True for a live entry: occupied and (under tombstone deletion) not a
  // tombstone.
  static bool is_present(value_type c) noexcept {
    if (Traits::is_empty(c)) return false;
    if constexpr (Delete::uses_tombstones) return !is_tombstone(c);
    return true;
  }

 private:
  static bool is_tombstone(value_type c) noexcept
    requires(Delete::uses_tombstones)
  {
    return bits_equal(c, Traits::busy());
  }

  std::size_t home(key_type k) const noexcept { return Traits::hash(k) & slots_.mask(); }
  std::size_t next(std::size_t i) const noexcept { return (i + 1) & slots_.mask(); }
  value_type* slot(std::uint64_t unwrapped) noexcept {
    return &slots_[unwrapped & slots_.mask()];
  }
  const value_type* slot(std::uint64_t unwrapped) const noexcept {
    return &slots_[unwrapped & slots_.mask()];
  }

  // Unwrapped home position of element v observed at unwrapped position j:
  // the representative of h(key(v)) in the window (j - capacity, j].
  std::uint64_t unwrapped_home(value_type v, std::uint64_t j) const noexcept {
    const std::uint64_t raw = home(Traits::key(v));
    return j - ((j - raw) & slots_.mask());
  }

  // FINDREPLACEMENT (Figure 1, lines 11-24): locate the element that must
  // fill the hole at unwrapped position k. Scans up to the first candidate
  // that is ⊥ or hashes at-or-before k, then re-scans down because
  // concurrent deletes only move elements toward lower positions. The
  // replacement choice depends only on hash homes, never priorities, which
  // is why both ordering policies share it.
  std::pair<std::uint64_t, value_type> find_replacement(obs::probe_tally& tally,
                                                        std::uint64_t k) const {
    const std::size_t cap = capacity();
    std::uint64_t j = k;
    value_type w;
    do {
      ++j;
      if (j - k == cap) {  // full wrap back to the hole: as if ⊥
        w = Traits::empty();
        break;
      }
      w = atomic_load(slot(j));
      ++tally.slots;
    } while (!Traits::is_empty(w) && unwrapped_home(w, j) > k);
    for (std::uint64_t m = j - 1; m > k; --m) {
      const value_type w2 = atomic_load(slot(m));
      ++tally.slots;
      if (Traits::is_empty(w2) || unwrapped_home(w2, m) <= k) {
        w = w2;
        j = m;
      }
    }
    return {j, w};
  }

  // In-place duplicate-key merge for arrival order: only the value word
  // changes, with hardware xadd when the combine function is + (the paper's
  // linearHash-ND optimization for edge contraction).
  static void combine_slot(obs::probe_tally& tally, value_type* p, value_type seen,
                           value_type incoming) noexcept {
    if constexpr (requires { Traits::combine_inplace(p, incoming); }) {
      Traits::combine_inplace(p, incoming);
    } else {
      value_type cur = seen;
      for (;;) {
        const value_type merged = Traits::combine(cur, incoming);
        if (bits_equal(merged, cur) || cas_tallied(tally, p, cur, merged)) return;
        cur = atomic_load(p);
      }
    }
  }

  slot_array<Traits> slots_;
  striped_counter occupied_;
  mutable Phase phase_;
  [[no_unique_address]] mutable obs::table_hists hists_;

 public:
  // Phase-capability tokens (utils/phase_caps.h): the static half of the
  // phase contract the Phase policy enforces at runtime. Public so callers'
  // phase-region markers can name them in their own annotations.
  PHCH_PHASE_CAPABILITIES();
};

}  // namespace phch
