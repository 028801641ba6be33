// phch_trace: run an instrumented workload with telemetry enabled, check
// the counters against reference operation counts, and export the metrics
// snapshot + chrome://tracing file.
//
//   ./phch_trace -workload dedup|bfs|mixed -n N [-threads P]
//                [-table det|nd|tomb|chained|cuckoo|hopscotch|auto]
//                [-metrics metrics.json] [-trace trace.json]
//
// Exit status: 0 on success, 1 if any counter identity or reference count
// check fails, 2 if the binary was built without -DPHCH_TELEMETRY=ON.
//
// `-table auto` is special: it runs its own mixed workload (phased stages
// plus an uncoordinated mixed stream) on an auto_phased_table and validates
// the exactly-once transition ledger — the wrapped table's phase epoch must
// equal the phase_transitions counter, and every traced phase boundary must
// carry a distinct epoch. It ignores -workload.
//
// The checks are the telemetry layer's end-to-end contract: counter sums
// taken at a quiescent point are *exact*, so
//   dedup:  insert_ops == n, insert_commits == |output|,
//           insert_dups == n - |output|
//   bfs:    insert_commits == reached vertices - 1 (each non-root vertex
//           committed by exactly one WRITEMIN winner)
//   mixed:  find_ops/find_hits == lookups issued, erase_hits == n/2
// and in every workload insert_ops == commits + dups + aborts. For the
// linear-probing families the probe-depth *histogram* obeys the same
// discipline — every operation records exactly one sample — so the ledger
//   Δ hist(probe_depth).count == Δ (find_ops + insert_ops + erase_ops)
// is checked against the counters after every workload.
//
// -table swaps the backend: the same identities must hold for every table
// in the unified stack, so each reference check is written once against the
// concepts layer and instantiated per family. The workload drivers live in
// tools/trace_workloads.h.
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "phch/core/auto_phased_table.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/table_common.h"
#include "phch/obs/export.h"
#include "phch/obs/histogram.h"
#include "phch/obs/telemetry.h"
#include "phch/obs/trace.h"
#include "phch/parallel/scheduler.h"
#include "phch/utils/cmdline.h"
#include "phch/utils/rand.h"
#include "trace_workloads.h"

using namespace phch;

namespace {

int failures = 0;

void expect_eq(const char* what, std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    std::fprintf(stderr, "phch_trace: FAIL %s: got %" PRIu64 ", want %" PRIu64 "\n",
                 what, got, want);
    ++failures;
  } else {
    std::printf("  ok  %-32s %" PRIu64 "\n", what, got);
  }
}

void check_insert_identity(const obs::metrics_snapshot& d) {
  expect_eq("insert_ops == commits+dups+aborts", d[obs::counter::insert_ops],
            d[obs::counter::insert_commits] + d[obs::counter::insert_dups] +
                d[obs::counter::insert_aborts]);
}

// The probe-depth ledger: over the checked window, the linear-probing
// families record exactly one histogram sample per operation (scalar,
// tagged, and software-pipelined paths alike, including dropped
// bounded-wrap erases), so the histogram's population must equal the op
// counters exactly. `before` is the totals snapshot taken when the window
// opened.
void check_probe_ledger(const obs::hist_snapshot& before,
                        const obs::metrics_snapshot& d) {
  const obs::hist_snapshot now =
      obs::table_hist_totals(obs::table_hist::probe_depth);
  expect_eq("probe-depth ledger: hist == ops", now.count - before.count,
            d[obs::counter::find_ops] + d[obs::counter::insert_ops] +
                d[obs::counter::erase_ops]);
}

template <typename Family>
obs::metrics_snapshot run_dedup(std::size_t n) {
  const obs::metrics_snapshot before = obs::snapshot();
  const std::size_t out_size = tools::dedup_workload<Family>(n);
  const obs::metrics_snapshot d = obs::snapshot() - before;
  expect_eq("dedup insert_ops", d[obs::counter::insert_ops], n);
  expect_eq("dedup insert_commits", d[obs::counter::insert_commits], out_size);
  expect_eq("dedup insert_dups", d[obs::counter::insert_dups], n - out_size);
  expect_eq("dedup erase_ops", d[obs::counter::erase_ops], 0);
  expect_eq("dedup find_ops", d[obs::counter::find_ops], 0);
  check_insert_identity(d);
  return d;
}

template <typename Family>
obs::metrics_snapshot run_bfs(std::size_t n) {
  const obs::metrics_snapshot before = obs::snapshot();
  const std::uint64_t reached = tools::bfs_workload<Family>(n);
  const obs::metrics_snapshot d = obs::snapshot() - before;
  // Every reached vertex except the root is inserted by exactly one winner
  // and commits exactly once (duplicate edges surface as insert_dups).
  expect_eq("bfs insert_commits", d[obs::counter::insert_commits], reached - 1);
  expect_eq("bfs erase_ops", d[obs::counter::erase_ops], 0);
  check_insert_identity(d);
  return d;
}

template <typename Family>
obs::metrics_snapshot run_mixed(std::size_t n) {
  const obs::metrics_snapshot before = obs::snapshot();
  const tools::mixed_result r = tools::mixed_workload<Family>(n);
  const obs::metrics_snapshot d = obs::snapshot() - before;
  expect_eq("mixed insert_ops", d[obs::counter::insert_ops], n);
  expect_eq("mixed insert_commits", d[obs::counter::insert_commits], r.unique);
  expect_eq("mixed find_ops", d[obs::counter::find_ops], n);
  expect_eq("mixed find_hits", d[obs::counter::find_hits], r.find_hits);
  expect_eq("mixed erase_ops", d[obs::counter::erase_ops], n / 2);
  expect_eq("mixed erase_hits", d[obs::counter::erase_hits], n / 2);
  check_insert_identity(d);
  return d;
}

// -table auto: mixed workload on the self-phasing wrapper, validating the
// exactly-once transition ledger. Every room transition advances the
// wrapped table's phase epoch through the same phase_runtime word that
// scalar and batch operations use, and the epoch's transition edge is what
// feeds the phase_transitions counter and the tracer — so at a quiescent
// point the three must agree exactly: epoch == counter, and each traced
// phase_begin event carries a distinct epoch (a boundary published twice
// would show up as a duplicate; one missed would break the counter match).
obs::metrics_snapshot run_auto(std::size_t n) {
  auto_phased_table<deterministic_table<int_entry<>>> t(round_up_pow2(4 * n));
  const std::vector<std::uint64_t> keys = tools::distinct_keys(n);

  const obs::hist_snapshot hist_before =
      obs::table_hist_totals(obs::table_hist::probe_depth);
  const obs::metrics_snapshot before = obs::snapshot();
  obs::mark("auto/phased");
  // Structured stages: three clean class boundaries with a known outcome.
  parallel_for(0, n, [&](std::size_t i) { t.insert(keys[i]); });
  std::atomic<std::uint64_t> hits{0};
  parallel_for(0, n, [&](std::size_t i) {
    if (t.contains(keys[i])) hits.fetch_add(1, std::memory_order_relaxed);
  });
  parallel_for(0, n / 2, [&](std::size_t i) { t.erase(keys[i]); });
  obs::mark("auto/mixed");
  // Uncoordinated mixed stream: all workers issue inserts, finds and erases
  // with no phasing of their own; the rooms serialize the classes and the
  // ledger must count every induced boundary exactly once.
  parallel_for(0, n, [&](std::size_t i) {
    const std::uint64_t k = keys[hash64(i) % n];
    switch (hash64(i ^ 0x9e3779b97f4a7c15ULL) & 3) {
      case 0: t.insert(k); break;
      case 1: t.erase(k); break;
      default: (void)t.contains(k); break;
    }
  });
  obs::mark("auto/done");
  const obs::metrics_snapshot d = obs::snapshot() - before;

  expect_eq("auto find_hits after insert", hits.load(), n);
  check_insert_identity(d);
  check_probe_ledger(hist_before, d);  // the wrapped table is linear-probing

  const std::uint64_t epoch = t.underlying().phase_rt().epoch();
  expect_eq("auto ledger: phase_transitions == epoch",
            d[obs::counter::phase_transitions], epoch);
  if (epoch < 4) {
    std::fprintf(stderr,
                 "phch_trace: FAIL auto ledger: epoch %" PRIu64
                 " < 4 structured boundaries\n",
                 epoch);
    ++failures;
  }

  const auto tr = obs::drain_trace();
  std::uint64_t phase_events = 0;
  std::set<std::uint64_t> epochs;
  for (const auto& e : tr.events) {
    if (e.kind != obs::event_kind::phase_begin) continue;
    ++phase_events;
    if (!epochs.insert(e.dur_ns).second) {
      std::fprintf(stderr,
                   "phch_trace: FAIL auto ledger: boundary epoch %" PRIu64
                   " traced twice\n",
                   e.dur_ns);
      ++failures;
    }
  }
  std::printf("  ok  %-32s %" PRIu64 " (all epochs distinct)\n",
              "auto traced boundaries", phase_events);
  std::printf("  ok  %-32s %" PRIu64 "\n", "auto room_waits",
              d[obs::counter::room_waits]);
  return d;
}

// Returns false on an unknown workload name.
template <typename Family>
bool run_workload(const std::string& workload, std::size_t n) {
  const obs::hist_snapshot hist_before =
      obs::table_hist_totals(obs::table_hist::probe_depth);
  obs::metrics_snapshot d;
  if (workload == "dedup") {
    d = run_dedup<Family>(n);
  } else if (workload == "bfs") {
    d = run_bfs<Family>(n);
  } else if (workload == "mixed") {
    d = run_mixed<Family>(n);
  } else {
    return false;
  }
  if constexpr (Family::probe_ledger) check_probe_ledger(hist_before, d);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  cmdline cl(argc, argv);
  const std::string workload = cl.get_string("-workload", "dedup");
  const std::string table = cl.get_string("-table", "det");
  const std::size_t n = static_cast<std::size_t>(cl.get_long("-n", 1000000));
  const std::string metrics_path = cl.get_string("-metrics", "phch_metrics.json");
  const std::string trace_path = cl.get_string("-trace", "phch_trace.json");

  if (!obs::compiled) {
    std::fprintf(stderr,
                 "phch_trace: telemetry is compiled out; reconfigure with "
                 "-DPHCH_TELEMETRY=ON\n");
    return 2;
  }
  obs::set_enabled(true);

  const long threads = cl.get_long("-threads", 0);
  if (threads > 0) scheduler::get().set_num_workers(static_cast<int>(threads));

  std::printf("phch_trace: workload=%s table=%s n=%zu threads=%d\n",
              workload.c_str(), table.c_str(), n, num_workers());
  obs::reset();

  bool known_workload;
  if (table == "auto") {
    run_auto(n);  // self-contained mixed workload; -workload is ignored
    known_workload = true;
  } else if (table == "det") {
    known_workload = run_workload<tools::det_family>(workload, n);
  } else if (table == "nd") {
    known_workload = run_workload<tools::nd_family>(workload, n);
  } else if (table == "tomb") {
    known_workload = run_workload<tools::tomb_family>(workload, n);
  } else if (table == "chained") {
    known_workload = run_workload<tools::chained_family>(workload, n);
  } else if (table == "cuckoo") {
    known_workload = run_workload<tools::cuckoo_family>(workload, n);
  } else if (table == "hopscotch") {
    known_workload = run_workload<tools::hopscotch_family>(workload, n);
  } else {
    std::fprintf(stderr,
                 "phch_trace: unknown table '%s' (want det|nd|tomb|chained|"
                 "cuckoo|hopscotch|auto)\n",
                 table.c_str());
    return 1;
  }
  if (!known_workload) {
    std::fprintf(stderr, "phch_trace: unknown workload '%s'\n", workload.c_str());
    return 1;
  }
  if (num_workers() == 1) {
    expect_eq("cas_failures at p=1", obs::total(obs::counter::cas_failures), 0);
  }

  if (!obs::write_metrics_json(metrics_path.c_str())) {
    std::fprintf(stderr, "phch_trace: cannot write %s\n", metrics_path.c_str());
    return 1;
  }
  if (!obs::write_chrome_trace(trace_path.c_str())) {
    std::fprintf(stderr, "phch_trace: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::printf("phch_trace: wrote %s and %s (%s)\n", metrics_path.c_str(),
              trace_path.c_str(), failures == 0 ? "all checks passed" : "CHECKS FAILED");
  return failures == 0 ? 0 : 1;
}
