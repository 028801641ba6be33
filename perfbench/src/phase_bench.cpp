// Phase-cycle benchmark for the phch tables, driven only through the
// library's public API. See perfbench/README.md for the workloads, the
// metrics and how to read a traced run.
//
//   phase_bench --workload table1-int --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every round's outputs are checked against references computed in set-up;
// any wrong answer or exception makes the run exit non-zero.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "phch/apps/bfs.h"
#include "phch/core/batch_ops.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/nd_linear_table.h"
#include "phch/core/serial_table.h"
#include "phch/core/simd_scan.h"
#include "phch/graph/generators.h"
#include "phch/graph/graph.h"
#include "phch/obs/telemetry.h"
#include "phch/parallel/parallel_for.h"
#include "phch/parallel/primitives.h"
#include "phch/parallel/scheduler.h"
#include "phch/utils/rand.h"
#include "phch/workloads/sequences.h"
#include "trace.h"

extern char** environ;

namespace {

using phch::kv64;
using perfbench::median;
using perfbench::now_ns;
using perfbench::percentile;
using perfbench::timed;
using perfbench::tracer;
using u64 = std::uint64_t;
using times_ns = std::vector<std::pair<std::int64_t, std::int64_t>>;

// One op in kSample is timed individually in the traced run.
constexpr std::size_t kSample = 256;

struct options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  int shift = 0;             // every input size is divided by 2^shift
  bool drop_key = false;     // drop one key from a reference (self-test)
  // Timed phases run with the tag sidecar's reads off (simd::backend::off)
  // unless --tagged-probes is given; see README.md, "Known defect".
  // tag_backend is the backend the library would pick (PHCH_SIMD or the best
  // compiled one), used by the traced tag passes and by --tagged-probes.
  bool tagged_probes = false;
  phch::simd::backend tag_backend = phch::simd::backend::off;
  std::string trace_out;
  std::string git_sha;
};

// --- inputs -------------------------------------------------------------------

// Inputs come from the library's own generators: phch::workloads for the
// randomSeq-int keys, phch::rng (counter-based, a stream per fork) and
// phch::hash64 (a bijection on 64-bit words, so distinct inputs give
// distinct keys) for everything else.
using phch::hash64;

// Fisher-Yates shuffle drawing from a counter-based stream.
template <typename T>
void shuffle(std::vector<T>& v, const phch::rng& r) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[r.ith_rand(i, i)]);
}

// --- output checks --------------------------------------------------------------

// Counts attempted and failed operations. Prints the first difference a
// check finds, and the next few from other checks, so that one failure
// cannot hide another.
class checker {
 public:
  void attempt(u64 n) { attempted_ += n; }
  void fail(u64 n, const std::string& what) {
    failed_ += n;
    if (reports_ < 10) {
      std::printf("%s: %s\n", reports_ == 0 ? "FIRST DIFFERENCE" : "DIFFERENCE", what.c_str());
      std::fflush(stdout);
      ++reports_;
    }
  }
  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }

 private:
  u64 attempted_ = 0;
  u64 failed_ = 0;
  int reports_ = 0;
};

// Failures raised inside parallel loops: a count plus the first message.
struct fault {
  std::atomic<u64> count{0};
  std::mutex m;
  std::string first;
  void note(const std::string& what) {
    count.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> g(m);
    if (first.empty()) first = what;
  }
  void report(checker& ck, const char* phase) {
    if (count.load() != 0) ck.fail(count.load(), std::string(phase) + ": " + first);
  }
};

std::string describe(u64 k) { return std::to_string(k); }
std::string describe(const kv64& p) {
  return "(" + std::to_string(p.k) + ", " + std::to_string(p.v) + ")";
}
u64 item_hash(u64 k) { return hash64(k ^ 0x6a09e667f3bcc909ULL); }
u64 item_hash(const kv64& p) { return hash64(hash64(p.k) + p.v); }
u64 sort_key(u64 k) { return k; }
u64 sort_key(const kv64& p) { return p.k; }

// Order-independent digest of a set: equal sets give equal digests; a
// mismatch is then located exactly by sorting (only on failure).
struct set_digest {
  u64 count = 0;
  u64 sum = 0;
  u64 xr = 0;
  void add(u64 h) {
    ++count;
    sum += h;
    xr ^= hash64(h);
  }
  bool operator==(const set_digest&) const = default;
  u64 word() const { return hash64(count ^ hash64(sum ^ hash64(xr))); }
};

template <typename T>
set_digest digest_set(const T* v, std::size_t n) {
  set_digest d;
  for (std::size_t i = 0; i < n; ++i) d.add(item_hash(v[i]));
  return d;
}

// `want()` materializes the reference set; it runs only on a mismatch.
// Returns the digest of what was checked.
template <typename T, typename Want>
u64 check_set(checker& ck, const char* what, const std::vector<T>& got,
              const set_digest& want_digest, Want&& want) {
  ck.attempt(1);
  const set_digest got_digest = digest_set(got.data(), got.size());
  if (got_digest == want_digest) return got_digest.word();
  std::vector<T> a = got;
  std::vector<T> b = want();
  auto less = [](const T& x, const T& y) { return sort_key(x) < sort_key(y); };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && sort_key(a[i]) == sort_key(b[i]) &&
         item_hash(a[i]) == item_hash(b[i])) {
    ++i;
  }
  std::string msg = std::string(what) + ": elements() has " + std::to_string(a.size()) +
                    " entries, reference " + std::to_string(b.size()) + "; at sorted position " +
                    std::to_string(i) + " got " + (i < a.size() ? describe(a[i]) : "nothing") +
                    ", expected " + (i < b.size() ? describe(b[i]) : "nothing");
  ck.fail(1, msg);
  return got_digest.word();
}

// Order-sensitive digest of an array: a slot array (empty slots included),
// a find_batch output or a parent array.
template <typename T>
u64 digest_ordered(const T* v, std::size_t n) {
  u64 h = n;
  for (std::size_t i = 0; i < n; ++i) {
    if constexpr (std::is_same_v<T, kv64>) {
      h = hash64(h ^ v[i].k);
      h = hash64(h ^ v[i].v);
    } else {
      h = hash64(h ^ static_cast<u64>(v[i]));
    }
  }
  return h;
}

template <typename Table>
u64 check_layout(checker& ck, const char* what, const Table& t, u64 want) {
  ck.attempt(1);
  const u64 got = digest_ordered(t.raw_slots(), t.capacity());
  if (got != want) {
    ck.fail(1, std::string(what) +
                   ": linearHash-D slot layout differs from serialHash-HI on the same keys");
  }
  return got;
}

// --- per-layer measurements from outside the tables ---------------------------------

// Exact probe-shape counts from raw_slots() and home_address(): mean
// displacement of stored entries from their home slot, and the occupied
// run a miss homed at each slot scans before reaching an empty slot.
struct probe_shape {
  u64 entries = 0;
  u64 displacement = 0;
  std::vector<u64> run_hist;

  template <typename Table>
  void add(const Table& t) {
    using T = typename Table::traits;
    using V = typename Table::value_type;
    const V* s = t.raw_slots();
    const std::size_t cap = t.capacity();
    std::size_t empty_at = cap;
    for (std::size_t j = 0; j < cap; ++j) {
      if (T::is_empty(s[j])) {
        empty_at = j;
        continue;
      }
      const auto* home = static_cast<const V*>(t.home_address(T::key(s[j])));
      displacement += (j - static_cast<std::size_t>(home - s)) & (cap - 1);
      ++entries;
    }
    if (empty_at == cap) return;  // full table: runs are unbounded
    u64 run = 0;
    for (std::size_t step = 0; step < cap; ++step) {
      const std::size_t i = (empty_at + cap - step) & (cap - 1);
      run = T::is_empty(s[i]) ? 0 : run + 1;
      if (run >= run_hist.size()) run_hist.resize(run + 1, 0);
      ++run_hist[run];
    }
  }
  double mean() const { return entries ? static_cast<double>(displacement) / entries : 0.0; }
  double run_p99() const {
    u64 total = 0;
    for (u64 c : run_hist) total += c;
    u64 seen = 0;
    for (std::size_t r = 0; r < run_hist.size(); ++r) {
      seen += run_hist[r];
      if (static_cast<double>(seen) >= 0.99 * static_cast<double>(total)) {
        return static_cast<double>(r);
      }
    }
    return 0.0;
  }
};

// Per-op nanoseconds of sampled operations.
std::vector<double> op_ns(const times_ns& t) {
  std::vector<double> ns;
  for (const auto& [s, e] : t) {
    if (e != 0) ns.push_back(static_cast<double>(e - s));
  }
  return ns;
}

// Runs op(keys[i]) for every i in one parallel_for, as one phase span. With
// `samples` non-null, every `every`-th op is also timed and recorded as a
// child span of the phase.
template <typename Op>
double per_op_phase(tracer& tr, const char* name, const char* op_name,
                    const std::vector<u64>& keys, bool extra, Op&& op,
                    std::vector<double>* samples, std::size_t every = kSample) {
  const std::size_t n = keys.size();
  times_ns t;
  std::int32_t id = -1;
  const double s = timed(tr, name, n, extra, [&] {
    id = tr.current();
    if (samples == nullptr) {
      phch::parallel_for(0, n, [&](std::size_t i) { op(keys[i]); });
      return;
    }
    t.assign((n + every - 1) / every, {0, 0});
    phch::parallel_for(0, n, [&](std::size_t i) {
      if (i % every != 0) {
        op(keys[i]);
        return;
      }
      const std::int64_t t0 = now_ns();
      op(keys[i]);
      t[i / every] = {t0, now_ns()};
    });
  });
  if (samples != nullptr) {
    tr.add_ops(op_name, id, t);
    const std::vector<double> ns = op_ns(t);
    samples->insert(samples->end(), ns.begin(), ns.end());
  }
  return s;
}

template <typename Table>
auto inserter(Table& t, fault& f) {
  return [&t, &f](typename Table::value_type v) {
    try {
      t.insert(v);
    } catch (const std::exception& e) {
      f.note(std::string("insert threw ") + e.what());
    }
  };
}
template <typename Table>
auto eraser(Table& t, fault& f) {
  return [&t, &f](typename Table::key_type k) {
    try {
      t.erase(k);
    } catch (const std::exception& e) {
      f.note("erase(" + std::to_string(k) + ") threw " + e.what());
    }
  };
}
template <typename Table>
auto finder(const Table& t, fault& f, bool expect_hit) {
  return [&t, &f, expect_hit](typename Table::key_type k) {
    try {
      if (t.contains(k) != expect_hit) {
        f.note("contains(" + std::to_string(k) + ") returned " + (expect_hit ? "false" : "true"));
      }
    } catch (const std::exception& e) {
      f.note("contains(" + std::to_string(k) + ") threw " + e.what());
    }
  };
}

// Wall time of an empty parallel_for over each range size: the scheduler's
// fixed cost per phase.
double empty_phase_us(const std::vector<std::size_t>& sizes) {
  std::vector<double> us;
  us.reserve(sizes.size());
  for (std::size_t n : sizes) {
    const std::int64_t t0 = now_ns();
    phch::parallel_for(0, n, [](std::size_t) {});
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(us);
}

// --- the metric record -------------------------------------------------------------

struct metric {
  std::string name;
  double value;
  std::string unit;
};

struct record {
  std::vector<metric> metrics;
  std::map<std::string, std::string> info;  // run header and notes
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(metric{name, value, unit});
  }
};

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

// Runs `round(i)` at least `min_rounds` times and until `seconds` of wall
// time (rounds plus their checks) have passed.
template <typename F>
void repeat_rounds(double seconds, std::size_t min_rounds, F&& round) {
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < min_rounds || seconds_since(t0) < seconds; ++i) round(i);
}

void set_workers(int p) { phch::scheduler::get().set_num_workers(p); }
int full_workers() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

// =====================================================================================
// table1-int: the paper's Table 1 cycle on randomSeq-int through the per-op API.
// =====================================================================================

using t1_table = phch::deterministic_table<phch::int_entry<>>;

struct t1_phases {
  double insert = 0, find_hit = 0, find_miss = 0, elements = 0, erase = 0;
  double round() const { return insert + find_hit + find_miss + elements + erase; }
};

// Per-layer measurements a traced table1-int round collects.
struct t1_trace {
  std::vector<double> insert_ns, hit_ns, miss_ns, erase_ns;  // sampled per-op
  std::vector<double> tag_hit[2], tag_miss[2], tag_erase[2];  // [0] default, [1] off
  probe_shape shape;
  bool shape_done = false;
};

class table1_int {
 public:
  table1_int(const options& o, tracer& tr, checker& ck)
      : tr_(tr), ck_(ck), tag_backend_(o.tag_backend) {
    n_ = std::size_t{1} << (23 - o.shift);
    cap_ = std::size_t{1} << (24 - o.shift);
    // randomSeq-int in [1, n] for the inserted keys (seed 1 gives the repo's
    // Table 1 inputs), and an independent one moved to [n + 1, 2n] for misses.
    keys_ = phch::workloads::random_int_seq(n_, o.seed);
    miss_ = phch::workloads::random_int_seq(n_, hash64(o.seed));
    phch::parallel_for(0, n_, [&](std::size_t i) { miss_[i] += n_; });
    std::vector<std::uint8_t> seen(n_ + 1, 0);
    for (u64 k : keys_) seen[k] = 1;
    for (u64 k = 1; k <= n_; ++k) {
      if (seen[k]) ref_.push_back(k);
    }
    {
      phch::serial_table_hi<phch::int_entry<>> hi(cap_);
      for (u64 k : ref_) hi.insert(k);
      ref_layout_ = digest_ordered(hi.raw_slots(), hi.capacity());
    }
    if (o.drop_key) ref_.erase(ref_.begin());
    ref_set_ = digest_set(ref_.data(), ref_.size());
    construct_s_ = timed(tr_, "table_ctor", cap_, false,
                         [&] { t_ = std::make_unique<t1_table>(cap_); });
    round(nullptr);  // warm-up: checked, not timed
  }

  t1_phases round(t1_trace* x) {
    t1_table& t = *t_;
    t1_phases p;
    fault f;
    const std::size_t n = n_;
    p.insert = per_op_phase(tr_, "parallel_for:insert", "insert", keys_, false, inserter(t, f),
                            x ? &x->insert_ns : nullptr);
    ck_.attempt(n);
    f.report(ck_, "table1-int insert");
    outputs_ = check_layout(ck_, "table1-int after insert", t, ref_layout_);
    if (x && !x->shape_done) {
      x->shape.add(t);
      x->shape_done = true;
    }
    fault fh;
    p.find_hit = per_op_phase(tr_, "parallel_for:find_hit", "find_hit", keys_, false,
                              finder(t, fh, true), x ? &x->hit_ns : nullptr);
    ck_.attempt(n);
    fh.report(ck_, "table1-int find hits");
    fault fm;
    p.find_miss = per_op_phase(tr_, "parallel_for:find_miss", "find_miss", miss_, false,
                               finder(t, fm, false), x ? &x->miss_ns : nullptr);
    ck_.attempt(n);
    fm.report(ck_, "table1-int find misses");
    std::vector<u64> el;
    p.elements = timed(tr_, "elements", cap_, false, [&] { el = t.elements(); });
    outputs_ = hash64(outputs_ ^ check_set(ck_, "table1-int after insert", el, ref_set_,
                                           [&] { return ref_; }));
    if (x) tag_deltas(*x);
    fault fe;
    p.erase = per_op_phase(tr_, "parallel_for:erase", "erase", keys_, false, eraser(t, fe),
                           x ? &x->erase_ns : nullptr);
    ck_.attempt(n);
    fe.report(ck_, "table1-int erase");
    outputs_ = hash64(outputs_ ^ check_set(ck_, "table1-int after erase", t.elements(),
                                           set_digest{}, [] { return std::vector<u64>{}; }));
    return p;
  }

  std::size_t n() const { return n_; }
  std::size_t capacity() const { return cap_; }
  double construct_s() const { return construct_s_; }
  const std::vector<u64>& keys() const { return keys_; }
  const std::vector<u64>& ref() const { return ref_; }
  const set_digest& ref_set() const { return ref_set_; }
  u64 ref_layout() const { return ref_layout_; }
  u64 outputs() const { return outputs_; }

 private:
  // Sampled per-op cost with the default SIMD backend and with tags off, on
  // the same table state. Tags written by a concurrent insert phase can
  // disagree with their slots (README.md, "Known defect"), so the table is
  // first rebuilt at p=1, which gives the same layout (checked) with exact
  // tags. The erase samples are re-inserted at p=1 after each pass; history
  // independence restores the exact layout, which is checked.
  void tag_deltas(t1_trace& x) {
    t1_table& t = *t_;
    fault f;
    t.clear();
    set_workers(1);
    per_op_phase(tr_, "tag:rebuild:p1", "insert", keys_, true, inserter(t, f), nullptr);
    set_workers(full_workers());
    ck_.attempt(n_);
    check_layout(ck_, "table1-int after the p=1 rebuild", t, ref_layout_);
    std::vector<u64> hit, miss, er;
    for (std::size_t i = 0; i < n_; i += kSample) {
      hit.push_back(keys_[i]);
      miss.push_back(miss_[i]);
    }
    er = hit;
    std::sort(er.begin(), er.end());
    er.erase(std::unique(er.begin(), er.end()), er.end());
    const phch::simd::backend timed_backend = phch::simd::active();
    const phch::simd::backend def = tag_backend_;
    for (int rep = 0; rep < 2; ++rep) {
      for (int b = 0; b < 2; ++b) {
        phch::simd::set_backend(b == 0 ? def : phch::simd::backend::off);
        per_op_phase(tr_, "tag:find_hit", "find_hit", hit, true, finder(t, f, true),
                     &x.tag_hit[b], 1);
        per_op_phase(tr_, "tag:find_miss", "find_miss", miss, true, finder(t, f, false),
                     &x.tag_miss[b], 1);
      }
    }
    for (int b = 0; b < 2; ++b) {
      phch::simd::set_backend(b == 0 ? def : phch::simd::backend::off);
      per_op_phase(tr_, "tag:erase", "erase", er, true, eraser(t, f), &x.tag_erase[b], 1);
      set_workers(1);
      per_op_phase(tr_, "tag:reinsert", "insert", er, true, inserter(t, f), nullptr);
      set_workers(full_workers());
    }
    phch::simd::set_backend(timed_backend);
    ck_.attempt(4 * (hit.size() + miss.size()) + 4 * er.size());
    f.report(ck_, "table1-int tag-sidecar passes");
    check_layout(ck_, "table1-int after erase+reinsert of the samples", t, ref_layout_);
  }

  tracer& tr_;
  checker& ck_;
  const phch::simd::backend tag_backend_;
  std::size_t n_ = 0, cap_ = 0;
  std::vector<u64> keys_, miss_, ref_;
  set_digest ref_set_;
  u64 ref_layout_ = 0;
  u64 outputs_ = 0;  // digest of the last round's checked outputs
  double construct_s_ = 0;
  std::unique_ptr<t1_table> t_;
};

// =====================================================================================
// batch-highload: batch API on 16-byte min-combining pairs at load 0.875.
// =====================================================================================

using bh_entry = phch::pair_entry<phch::combine_min>;
using bh_table = phch::deterministic_table<bh_entry>;

struct bh_phases {
  double insert = 0, find_hit = 0, find_miss = 0, erase = 0;
  double round() const { return insert + find_hit + find_miss + erase; }
};

struct bh_trace {
  std::vector<double> insert_s, hit_s, miss_s, erase_s;            // batch calls
  std::vector<double> scalar_insert_s, scalar_find_s, scalar_erase_s;
  std::vector<double> tag_hit_s[2], tag_miss_s[2];                 // [0] default, [1] off
  probe_shape shape;
  bool shape_done = false;
};

class batch_highload {
 public:
  batch_highload(const options& o, tracer& tr, checker& ck)
      : tr_(tr), ck_(ck), tag_backend_(o.tag_backend) {
    cap_ = std::size_t{1} << (23 - o.shift);
    make_inputs(o.seed);
    const std::size_t distinct = hit_keys_.size();
    ref_layout_ = serial_hi_layout();
    full_end_ = o.drop_key ? distinct - 1 : distinct;
    full_set_ = digest_hits(0, full_end_);
    rest_set_ = digest_hits(distinct / 2, distinct);
    construct_s_ = timed(tr_, "table_ctor", cap_, false,
                         [&] { t_ = std::make_unique<bh_table>(cap_); });
    round(nullptr);  // warm-up: checked, not timed
  }

  bh_phases round(bh_trace* x) {
    bh_table& t = *t_;
    bh_phases p;
    if (x) {
      x->scalar_insert_s.push_back(timed(tr_, "insert_batch_scalar", pairs_.size(), true, [&] {
        guarded("insert_batch_scalar", pairs_.size(),
                [&] { phch::insert_batch_scalar(t, pairs_); });
      }));
      ck_.attempt(pairs_.size());
      check_layout(ck_, "batch-highload after insert_batch_scalar", t, ref_layout_);
      timed(tr_, "clear", cap_, true, [&] { t.clear(); });
    }
    p.insert = timed(tr_, "insert_batch", pairs_.size(), false, [&] {
      guarded("insert_batch", pairs_.size(), [&] { phch::insert_batch(t, pairs_); });
    });
    ck_.attempt(pairs_.size());
    outputs_ = check_layout(ck_, "batch-highload after insert", t, ref_layout_);
    if (x && !x->shape_done) {
      x->shape.add(t);
      x->shape_done = true;
    }
    std::vector<kv64> hit, miss;
    p.find_hit = timed(tr_, "find_batch:hit", hit_keys_.size(), false,
                       [&] { hit = phch::find_batch(t, hit_keys_); });
    check_hits(hit, "find_batch hits");
    outputs_ = hash64(outputs_ ^ digest_ordered(hit.data(), hit.size()));
    hit = {};
    p.find_miss = timed(tr_, "find_batch:miss", miss_keys_.size(), false,
                        [&] { miss = phch::find_batch(t, miss_keys_); });
    check_misses(miss, "find_batch misses");
    outputs_ = hash64(outputs_ ^ digest_ordered(miss.data(), miss.size()));
    if (x) query_extras(*x);
    outputs_ = hash64(outputs_ ^ check_set(ck_, "batch-highload after insert", t.elements(),
                                           full_set_, [&] { return expected(0, full_end_); }));
    if (x) {
      x->scalar_erase_s.push_back(timed(tr_, "erase_batch_scalar", erase_keys_.size(), true, [&] {
        guarded("erase_batch_scalar", erase_keys_.size(),
                [&] { phch::erase_batch_scalar(t, erase_keys_); });
      }));
      ck_.attempt(erase_keys_.size());
      check_set(ck_, "batch-highload after erase_batch_scalar", t.elements(), rest_set_,
                [&] { return expected(erase_keys_.size(), hit_keys_.size()); });
      const std::vector<kv64> erased = expected(0, erase_keys_.size());
      timed(tr_, "insert_batch:restore", erased.size(), true, [&] {
        guarded("insert_batch", erased.size(), [&] { phch::insert_batch(t, erased); });
      });
      ck_.attempt(erased.size());
      check_layout(ck_, "batch-highload after erase+reinsert", t, ref_layout_);
    }
    p.erase = timed(tr_, "erase_batch", erase_keys_.size(), false, [&] {
      guarded("erase_batch", erase_keys_.size(), [&] { phch::erase_batch(t, erase_keys_); });
    });
    ck_.attempt(erase_keys_.size());
    outputs_ = hash64(outputs_ ^ check_set(ck_, "batch-highload after erase", t.elements(),
                                           rest_set_, [&] {
                                             return expected(erase_keys_.size(), hit_keys_.size());
                                           }));
    t.clear();
    if (x) {
      x->insert_s.push_back(p.insert);
      x->hit_s.push_back(p.find_hit);
      x->miss_s.push_back(p.find_miss);
      x->erase_s.push_back(p.erase);
    }
    return p;
  }

  std::size_t capacity() const { return cap_; }
  std::size_t inserts() const { return pairs_.size(); }
  std::size_t finds() const { return hit_keys_.size(); }
  std::size_t erases() const { return erase_keys_.size(); }
  double construct_s() const { return construct_s_; }
  u64 outputs() const { return outputs_; }

 private:
  template <typename F>
  void guarded(const char* what, std::size_t n, F&& f) {
    try {
      f();
    } catch (const std::exception& e) {
      ck_.fail(n, std::string("batch-highload ") + what + " threw " + e.what());
    }
  }

  // 1.5 * cap pairs over exactly 7/8 * cap distinct keys (load 0.875),
  // shuffled; each distinct key's minimum value is the expected find result.
  void make_inputs(u64 seed) {
    const std::size_t distinct = cap_ / 8 * 7;
    const std::size_t total = cap_ / 2 * 3;
    const phch::rng r(hash64(seed ^ 0xb41c));
    const phch::rng key_rng = r.fork(0), dup_rng = r.fork(1), val_rng = r.fork(2);
    // Distinct keys from consecutive counters of one stream (hash64 is a
    // bijection); the two reserved key words (empty and busy) are dropped.
    // The second half never gets inserted.
    std::vector<u64> key = phch::filter(
        phch::tabulate(2 * distinct + 2, [&](std::size_t j) { return key_rng.ith_rand(j); }),
        [](u64 k) { return k < ~u64{0} - 1; });
    key.resize(2 * distinct);
    // Pair i < distinct carries key i; every later pair repeats a random key.
    auto key_index = [&](std::size_t i) {
      return i < distinct ? i : static_cast<std::size_t>(dup_rng.ith_rand(i, distinct));
    };
    pairs_ = phch::tabulate(total, [&](std::size_t i) {
      return kv64{key[key_index(i)], val_rng.ith_rand(i) >> 1};
    });
    std::vector<u64> minv(distinct, ~u64{0});
    for (std::size_t i = 0; i < total; ++i) {
      u64& m = minv[key_index(i)];
      m = std::min(m, pairs_[i].v);
    }
    shuffle(pairs_, r.fork(3));
    std::vector<std::uint32_t> perm =
        phch::tabulate(distinct, [](std::size_t j) { return static_cast<std::uint32_t>(j); });
    shuffle(perm, r.fork(4));
    hit_keys_.resize(distinct);
    hit_vals_.resize(distinct);
    for (std::size_t i = 0; i < distinct; ++i) {
      hit_keys_[i] = key[perm[i]];
      hit_vals_[i] = minv[perm[i]];
    }
    miss_keys_.assign(key.begin() + static_cast<std::ptrdiff_t>(distinct), key.end());
    erase_keys_.assign(hit_keys_.begin(),
                       hit_keys_.begin() + static_cast<std::ptrdiff_t>(distinct / 2));
  }

  set_digest digest_hits(std::size_t from, std::size_t to) const {
    set_digest d;
    for (std::size_t i = from; i < to; ++i) d.add(item_hash(kv64{hit_keys_[i], hit_vals_[i]}));
    return d;
  }

  // The (key, min value) pairs of hit_keys_[from, to).
  std::vector<kv64> expected(std::size_t from, std::size_t to) const {
    std::vector<kv64> v;
    v.reserve(to - from);
    for (std::size_t i = from; i < to; ++i) v.push_back(kv64{hit_keys_[i], hit_vals_[i]});
    return v;
  }

  // Layout digest of a serialHash-HI table holding every (key, min) pair.
  // Its layout depends only on the key set, so the pairs go in grouped by
  // home slot, which keeps the serial probes in cache.
  u64 serial_hi_layout() const {
    phch::serial_table_hi<bh_entry> hi(cap_);
    const std::size_t buckets = std::min<std::size_t>(cap_, 1 << 16);
    const int shift = std::countr_zero(cap_) - std::countr_zero(buckets);
    std::vector<std::size_t> start(buckets + 1, 0);
    auto bucket = [&](u64 k) { return (bh_entry::hash(k) & (cap_ - 1)) >> shift; };
    for (u64 k : hit_keys_) ++start[bucket(k) + 1];
    for (std::size_t b = 0; b < buckets; ++b) start[b + 1] += start[b];
    std::vector<std::uint32_t> order(hit_keys_.size());
    for (std::size_t i = 0; i < hit_keys_.size(); ++i) {
      order[start[bucket(hit_keys_[i])]++] = static_cast<std::uint32_t>(i);
    }
    for (std::uint32_t i : order) hi.insert(kv64{hit_keys_[i], hit_vals_[i]});
    return digest_ordered(hi.raw_slots(), hi.capacity());
  }

  void check_hits(const std::vector<kv64>& out, const char* what) {
    ck_.attempt(out.size());
    u64 bad = 0;
    std::size_t first = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i].k != hit_keys_[i] || out[i].v != hit_vals_[i]) {
        if (bad++ == 0) first = i;
      }
    }
    if (bad != 0) {
      ck_.fail(bad, std::string("batch-highload ") + what + ": key " + describe(hit_keys_[first]) +
                        " returned " + describe(out[first]) + ", expected " +
                        describe(kv64{hit_keys_[first], hit_vals_[first]}));
    }
  }

  void check_misses(const std::vector<kv64>& out, const char* what) {
    ck_.attempt(out.size());
    u64 bad = 0;
    std::size_t first = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (!bh_entry::is_empty(out[i])) {
        if (bad++ == 0) first = i;
      }
    }
    if (bad != 0) {
      ck_.fail(bad, std::string("batch-highload ") + what + ": absent key " +
                        describe(miss_keys_[first]) + " returned " + describe(out[first]));
    }
  }

  // Traced-only calls on the post-insert state: the scalar reference batch,
  // and find_batch with the default backend and with tags off. Before the
  // tag passes the table is rebuilt at p=1 from the (key, min) pairs, which
  // gives the same layout (checked) with exact tags (README.md, "Known
  // defect").
  void query_extras(bh_trace& x) {
    bh_table& t = *t_;
    std::vector<kv64> out;
    const double hit_s = timed(tr_, "find_batch_scalar:hit", hit_keys_.size(), true,
                               [&] { out = phch::find_batch_scalar(t, hit_keys_); });
    check_hits(out, "find_batch_scalar hits");
    const double miss_s = timed(tr_, "find_batch_scalar:miss", miss_keys_.size(), true,
                                [&] { out = phch::find_batch_scalar(t, miss_keys_); });
    check_misses(out, "find_batch_scalar misses");
    x.scalar_find_s.push_back(hit_s + miss_s);
    const std::vector<kv64> all = expected(0, hit_keys_.size());
    t.clear();
    set_workers(1);
    timed(tr_, "tag:rebuild:p1", all.size(), true,
          [&] { guarded("insert_batch", all.size(), [&] { phch::insert_batch(t, all); }); });
    set_workers(full_workers());
    ck_.attempt(all.size());
    check_layout(ck_, "batch-highload after the p=1 rebuild", t, ref_layout_);
    const phch::simd::backend timed_backend = phch::simd::active();
    const phch::simd::backend def = tag_backend_;
    for (int b = 0; b < 2; ++b) {
      phch::simd::set_backend(b == 0 ? def : phch::simd::backend::off);
      x.tag_hit_s[b].push_back(timed(tr_, "tag:find_batch:hit", hit_keys_.size(), true,
                                     [&] { out = phch::find_batch(t, hit_keys_); }));
      check_hits(out, "find_batch hits (tag pass)");
      x.tag_miss_s[b].push_back(timed(tr_, "tag:find_batch:miss", miss_keys_.size(), true,
                                      [&] { out = phch::find_batch(t, miss_keys_); }));
      check_misses(out, "find_batch misses (tag pass)");
    }
    phch::simd::set_backend(timed_backend);
  }

  tracer& tr_;
  checker& ck_;
  const phch::simd::backend tag_backend_;
  std::size_t cap_ = 0;
  std::vector<kv64> pairs_;                  // the insert batch
  std::vector<u64> hit_keys_, hit_vals_;     // each distinct key once, with its min
  std::vector<u64> miss_keys_, erase_keys_;
  std::size_t full_end_ = 0;                 // reference set: hits [0, full_end_)
  set_digest full_set_, rest_set_;
  u64 ref_layout_ = 0;
  u64 outputs_ = 0;  // digest of the last round's checked outputs
  double construct_s_ = 0;
  std::unique_ptr<bh_table> t_;
};

// =====================================================================================
// bfs-grid: Table 7's hash BFS on a 3D torus grid.
// =====================================================================================

using bfs_table = phch::deterministic_table<phch::int_entry<std::uint32_t>>;
using phch::graph::vertex_id;

struct bfs_trace {
  std::vector<double> elements_s, filter_s, insert_s, ctor_s;  // per replay round
  std::vector<std::size_t> phase_sizes;                        // first replay round
  std::size_t levels = 0;  // of the last replay round
  std::size_t phases = 0;  // the last replay round's own phase calls, 8 per level
  std::size_t max_capacity = 0;
  probe_shape shape;
  bool shape_done = false;
};

class bfs_grid {
 public:
  bfs_grid(const options& o, tracer& tr, checker& ck) : tr_(tr), ck_(ck) {
    const std::size_t d = std::size_t{128} >> (o.shift / 3);
    g_ = phch::graph::csr_graph::from_edges(d * d * d, phch::graph::grid3d_edges(d));
    ref_ = phch::apps::array_bfs(g_, root_);
    if (o.drop_key) ref_[root_ == 0 ? 1 : 0] = phch::apps::kNotReached;
    round();  // warm-up: checked, not timed
  }

  double round() {
    std::vector<std::int64_t> parents;
    const double s = timed(tr_, "hash_bfs", g_.num_vertices(), false, [&] {
      try {
        parents = phch::apps::hash_bfs<bfs_table>(g_, root_);
      } catch (const std::exception& e) {
        ck_.fail(1, std::string("bfs-grid hash_bfs threw ") + e.what());
      }
    });
    check_parents(parents, "hash_bfs");
    last_hash_ = std::move(parents);
    return s;
  }

  u64 outputs() const { return outputs_; }

  double array_round() {
    std::vector<std::int64_t> parents;
    const double s = timed(tr_, "array_bfs", g_.num_vertices(), true,
                           [&] { parents = phch::apps::array_bfs(g_, root_); });
    check_parents(parents, "array_bfs");
    return s;
  }

  // hash_bfs's level loop, replayed from outside with the same public calls
  // so each call is its own span. Returns the round time of the workload's
  // own calls.
  double replay(bfs_trace& x) {
    constexpr vertex_id kHole = std::numeric_limits<vertex_id>::max();
    const bool first = x.phase_sizes.empty();
    double elements_s = 0, filter_s = 0, insert_s = 0, ctor_s = 0, total = 0;
    std::size_t phases = 0, levels = 0;
    auto phase = [&](const char* name, std::size_t items, auto&& f) {
      ++phases;
      if (first) x.phase_sizes.push_back(items);
      const double s = timed(tr_, name, items, false, f);
      total += s;
      return s;
    };
    std::vector<std::int64_t> parents(g_.num_vertices(), phch::apps::kNotReached);
    parents[root_] = phch::apps::encode_visited(root_);
    std::vector<vertex_id> frontier{root_};
    try {
      while (!frontier.empty()) {
        ++levels;
        std::vector<std::size_t> offsets;
        phase("tabulate", frontier.size(), [&] {
          offsets = phch::tabulate(frontier.size(),
                                   [&](std::size_t i) { return g_.degree(frontier[i]); });
        });
        std::size_t total_degree = 0;
        phase("scan_add_inplace", offsets.size(),
              [&] { total_degree = phch::scan_add_inplace(offsets); });
        const std::size_t cap = phch::round_up_pow2(2 * (total_degree + 2));
        std::unique_ptr<bfs_table> table;
        ctor_s += phase("table_ctor", cap, [&] { table = std::make_unique<bfs_table>(cap); });
        x.max_capacity = std::max(x.max_capacity, table->capacity());
        std::vector<vertex_id> candidates(total_degree, kHole);
        phase("relax_frontier", frontier.size(), [&] {
          phch::apps::detail::relax_frontier(g_, frontier, parents, offsets,
                                             [&](vertex_id w, std::size_t slot) {
                                               candidates[slot] = w;
                                             });
        });
        std::vector<vertex_id> winners;
        filter_s += phase("filter", candidates.size(), [&] {
          winners = phch::filter(candidates, [&](vertex_id w) { return w != kHole; });
        });
        insert_s += phase("insert_batch", winners.size(),
                          [&] { phch::insert_batch(*table, winners); });
        if (!x.shape_done) x.shape.add(*table);
        elements_s += phase("elements", table->capacity(), [&] { frontier = table->elements(); });
        phase("parallel_for", frontier.size(), [&] {
          phch::parallel_for(0, frontier.size(), [&](std::size_t i) {
            const vertex_id w = frontier[i];
            parents[w] = phch::apps::encode_visited(parents[w]);
          });
        });
      }
    } catch (const std::exception& e) {
      ck_.fail(1, std::string("bfs-grid replay threw ") + e.what());
    }
    x.shape_done = true;
    check_parents(parents, "replayed hash_bfs");
    ck_.attempt(1);
    if (parents != last_hash_) ck_.fail(1, "bfs-grid: replayed level loop differs from hash_bfs");
    x.elements_s.push_back(elements_s);
    x.filter_s.push_back(filter_s);
    x.insert_s.push_back(insert_s);
    x.ctor_s.push_back(ctor_s);
    x.phases = phases;
    x.levels = levels;
    return total;
  }

 private:
  void check_parents(const std::vector<std::int64_t>& got, const char* what) {
    ck_.attempt(1);
    outputs_ = digest_ordered(reinterpret_cast<const u64*>(got.data()), got.size());
    if (got == ref_) return;
    std::size_t i = 0;
    while (i < got.size() && i < ref_.size() && got[i] == ref_[i]) ++i;
    ck_.fail(1, std::string("bfs-grid ") + what + ": parent of vertex " + std::to_string(i) +
                    " is " + (i < got.size() ? std::to_string(got[i]) : "missing") +
                    ", array_bfs gives " + (i < ref_.size() ? std::to_string(ref_[i]) : "nothing"));
  }

  tracer& tr_;
  checker& ck_;
  phch::graph::csr_graph g_;
  static constexpr vertex_id root_ = 0;  // Table 7 searches from vertex 0
  std::vector<std::int64_t> ref_;
  std::vector<std::int64_t> last_hash_;  // parents from the last hash_bfs round
  u64 outputs_ = 0;                      // digest of the last checked parents
};

// =====================================================================================
// Run header, metric sets and the two run modes.
// =====================================================================================

std::string read_first(const std::string& path) {
  std::ifstream f(path);
  std::string s;
  std::getline(f, s);
  return s;
}

// "2048K" / "8 MiB" style sizes from sysfs, in bytes; 0 when unreadable.
u64 cache_bytes(const std::string& s) {
  if (s.empty()) return 0;
  char* end = nullptr;
  const u64 v = std::strtoull(s.c_str(), &end, 10);
  if (end != nullptr && (*end == 'K' || *end == 'k')) return v << 10;
  if (end != nullptr && (*end == 'M' || *end == 'm')) return v << 20;
  return v;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

void add_header(record& rec, const options& o) {
  auto& h = rec.info;
  if (!o.git_sha.empty()) h["git_sha"] = o.git_sha;
  h["compiler"] = PB_COMPILER;
  h["cxx_flags"] = PB_CXX_FLAGS;
  h["build_type"] = PB_BUILD_TYPE;
  h["telemetry_compiled"] = phch::obs::compiled ? "true" : "false";
  {
    std::ifstream f("/proc/cpuinfo");
    for (std::string line; std::getline(f, line);) {
      if (line.rfind("model name", 0) == 0) {
        const auto c = line.find(':');
        if (c != std::string::npos) h["cpu_model"] = line.substr(c + 2);
        break;
      }
    }
  }
  h["nproc"] = std::to_string(std::thread::hardware_concurrency());
  h["workers"] = std::to_string(phch::num_workers());
  u64 l2 = 0, llc = 0;
  int llc_level = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_first(dir + "level");
    if (level.empty()) continue;
    if (read_first(dir + "type") == "Instruction") continue;
    const int lv = std::atoi(level.c_str());
    const u64 sz = cache_bytes(read_first(dir + "size"));
    if (lv == 2) l2 = sz;
    if (lv > llc_level) {
      llc_level = lv;
      llc = sz;
    }
  }
  if (l2 != 0) h["l2_bytes"] = std::to_string(l2);
  if (llc != 0) h["llc_bytes"] = std::to_string(llc);
  h["simd_backend"] = phch::simd::backend_name(phch::simd::active());
  h["tag_pass_backend"] = phch::simd::backend_name(o.tag_backend);
  h["batch_width"] = std::to_string(phch::batch_width());
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PHCH_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      if (eq != nullptr) h["env." + std::string(*e, static_cast<std::size_t>(eq - *e))] = eq + 1;
    }
  }
  h["workload"] = o.workload;
  h["seed"] = std::to_string(o.seed);
  h["seconds"] = std::to_string(o.seconds);
  h["trace"] = o.trace ? "1" : "0";
  if (o.shift != 0) h["size_shift"] = std::to_string(o.shift);
}

std::string hex(u64 x) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

std::string join(const std::vector<double>& v) {
  std::string s;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof buf, "%s%.6g", s.empty() ? "" : ",", x);
    s += buf;
  }
  return s;
}

void note_outputs(record& rec, const char* workload, u64 digest) {
  rec.info[std::string("checked_outputs.") + workload] = hex(digest);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// The untraced run builds its workload this many times and reports the
// median set-up time.
constexpr int kSetups = 3;

// Builds the workload `setups` times (dropping each), times every build, and
// keeps the last one. The build includes input generation, the reference
// answers, the table constructor and one checked warm-up round.
template <typename W>
std::unique_ptr<W> build(const options& o, tracer& tr, checker& ck, int setups,
                         std::vector<double>& setup_s) {
  std::unique_ptr<W> w;
  for (int i = 0; i < setups; ++i) {
    w.reset();
    const std::int64_t t0 = now_ns();
    w = std::make_unique<W>(o, tr, ck);
    setup_s.push_back(seconds_since(t0));
  }
  return w;
}

// --- untraced run: the end-to-end metrics ----------------------------------------------

void run_plain(const options& o, record& rec, checker& ck) {
  tracer off(false);
  std::vector<double> setup_s;
  std::vector<double> round_s, ins, hit, miss, era;
  auto rate = [](std::size_t ops, double s) { return static_cast<double>(ops) / s * 1e-6; };
  if (o.workload == "table1-int") {
    auto w = build<table1_int>(o, off, ck, kSetups, setup_s);
    const std::size_t n = w->n();
    repeat_rounds(o.seconds, 3, [&](std::size_t) {
      const t1_phases p = w->round(nullptr);
      round_s.push_back(p.round());
      ins.push_back(rate(n, p.insert));
      hit.push_back(rate(n, p.find_hit));
      miss.push_back(rate(n, p.find_miss));
      era.push_back(rate(n, p.erase));
    });
    note_outputs(rec, "table1-int", w->outputs());
  } else if (o.workload == "batch-highload") {
    auto w = build<batch_highload>(o, off, ck, kSetups, setup_s);
    repeat_rounds(o.seconds, 3, [&](std::size_t) {
      const bh_phases p = w->round(nullptr);
      round_s.push_back(p.round());
      ins.push_back(rate(w->inserts(), p.insert));
      hit.push_back(rate(w->finds(), p.find_hit));
      miss.push_back(rate(w->finds(), p.find_miss));
      era.push_back(rate(w->erases(), p.erase));
    });
    note_outputs(rec, "batch-highload", w->outputs());
  } else {
    auto w = build<bfs_grid>(o, off, ck, kSetups, setup_s);
    repeat_rounds(o.seconds, 3, [&](std::size_t) { round_s.push_back(w->round()); });
    note_outputs(rec, "bfs-grid", w->outputs());
  }
  rec.info["rounds"] = std::to_string(round_s.size());
  rec.info["round_s_samples"] = join(round_s);
  rec.info["setup_s_samples"] = join(setup_s);
  rec.info["setups"] = std::to_string(setup_s.size());
  rec.add("round_s", median(round_s), "s");
  if (!ins.empty()) {
    rec.info["insert_mops_samples"] = join(ins);
    rec.info["find_hit_mops_samples"] = join(hit);
    rec.info["find_miss_mops_samples"] = join(miss);
    rec.info["erase_mops_samples"] = join(era);
    rec.add("insert_mops", median(ins), "Mop/s");
    rec.add("find_hit_mops", median(hit), "Mop/s");
    rec.add("find_miss_mops", median(miss), "Mop/s");
    rec.add("erase_mops", median(era), "Mop/s");
  }
  rec.add("peak_rss_mb", peak_rss_mb(), "MiB");
  rec.add("setup_s", median(setup_s), "s");
}

// --- traced run: the per-layer metrics --------------------------------------------------
//
// Every per-layer metric is defined on one workload's inputs (README.md). A
// traced run of workload W measures W's own round metrics (self speed-up,
// trace overhead, probe shape, constructor, tag bytes) and then every other
// layer metric on the workload that defines it, so all traced runs report the
// same metric set.

struct own_metrics {
  std::vector<double> untraced, traced;  // round seconds
  double p1 = 0;                         // one round at p=1
  probe_shape shape;
  double construct_ms = 0;
  double tag_bytes = 0;
};

// One traced round: a "round" span that parents the round's phase spans.
template <typename F>
double traced_round(tracer& tr, std::int32_t i, F&& round) {
  tr.set_round(i);
  const std::int32_t id = tr.open("round", 0, false);
  const double s = round();
  tr.close(id);
  tr.set_round(-1);
  return s;
}

// The workload's own rounds: untraced ones (tracing paused, no sampling),
// one untraced round at p=1, then traced ones.
template <typename Trace, typename Round>
void own_rounds(const options& o, tracer& tr, Trace& x, own_metrics& m, Round&& round) {
  const double budget = o.seconds / 3;
  tr.pause(true);
  repeat_rounds(budget, 3, [&](std::size_t) { m.untraced.push_back(round(nullptr)); });
  set_workers(1);
  m.p1 = round(nullptr);
  set_workers(full_workers());
  tr.pause(false);
  repeat_rounds(budget, 2, [&](std::size_t i) {
    m.traced.push_back(traced_round(tr, static_cast<std::int32_t>(i), [&] { return round(&x); }));
  });
}

void run_traced(const options& o, record& rec, checker& ck, tracer& tr) {
  own_metrics own;
  const int p = full_workers();
  // table1-int: sampled per-op costs, per-op tag deltas, and the shape
  // ratios against linearHash-ND and serialHash-HI on the same inputs.
  t1_trace t1x;
  double d_ins = 0, d_hit = 0, nd_ins = 0, nd_hit = 0;
  double d_ins_p1 = 0, d_hit_p1 = 0, hi_ins = 0, hi_hit = 0;
  {
    std::vector<double> setup_s;
    auto w = build<table1_int>(o, tr, ck, 1, setup_s);
    auto round = [&](t1_trace* x) { return w->round(x).round(); };
    if (o.workload == "table1-int") {
      own_rounds(o, tr, t1x, own, round);
      own.shape = t1x.shape;
      own.construct_ms = w->construct_s() * 1e3;
      own.tag_bytes = static_cast<double>(w->capacity());  // one tag byte per slot
    } else {
      traced_round(tr, 0, [&] { return round(&t1x); });
    }
    note_outputs(rec, "table1-int", w->outputs());
    const std::vector<u64>& keys = w->keys();
    const std::size_t cap = w->capacity();
    std::vector<double> di, dh, ni, nh;
    for (int rep = 0; rep < 2; ++rep) {
      {
        t1_table t(cap);
        fault f;
        di.push_back(per_op_phase(tr, "shape:D:insert", "insert", keys, true, inserter(t, f),
                                  nullptr));
        dh.push_back(per_op_phase(tr, "shape:D:find_hit", "find_hit", keys, true,
                                  finder(t, f, true), nullptr));
        f.report(ck, "shape linearHash-D");
        check_layout(ck, "shape linearHash-D", t, w->ref_layout());
      }
      {
        phch::nd_linear_table<phch::int_entry<>> t(cap);
        fault f;
        ni.push_back(per_op_phase(tr, "shape:ND:insert", "insert", keys, true, inserter(t, f),
                                  nullptr));
        nh.push_back(per_op_phase(tr, "shape:ND:find_hit", "find_hit", keys, true,
                                  finder(t, f, true), nullptr));
        f.report(ck, "shape linearHash-ND");
        check_set(ck, "shape linearHash-ND", t.elements(), w->ref_set(),
                  [&] { return w->ref(); });
      }
      ck.attempt(4 * keys.size());
    }
    d_ins = median(di);
    d_hit = median(dh);
    nd_ins = median(ni);
    nd_hit = median(nh);
    set_workers(1);
    {
      t1_table t(cap);
      fault f;
      d_ins_p1 = per_op_phase(tr, "shape:D:insert:p1", "insert", keys, true, inserter(t, f),
                              nullptr);
      d_hit_p1 = per_op_phase(tr, "shape:D:find_hit:p1", "find_hit", keys, true,
                              finder(t, f, true), nullptr);
      f.report(ck, "shape linearHash-D p=1");
    }
    {
      phch::serial_table_hi<phch::int_entry<>> hi(cap);
      hi_ins = timed(tr, "shape:HI:insert", keys.size(), true, [&] {
        for (u64 k : keys) hi.insert(k);
      });
      u64 bad = 0;
      hi_hit = timed(tr, "shape:HI:find_hit", keys.size(), true, [&] {
        for (u64 k : keys) bad += hi.contains(k) ? 0 : 1;
      });
      if (bad != 0) ck.fail(bad, "shape serialHash-HI: inserted keys not found");
      ck.attempt(4 * keys.size());
      ck.attempt(1);
      if (digest_ordered(hi.raw_slots(), hi.capacity()) != w->ref_layout()) {
        ck.fail(1, "shape serialHash-HI: layout differs from the set-up reference");
      }
    }
    set_workers(p);
  }
  // batch-highload: batch engine costs, ratios to the scalar reference
  // batches, and whole-batch tag deltas.
  bh_trace bhx;
  {
    std::vector<double> setup_s;
    auto w = build<batch_highload>(o, tr, ck, 1, setup_s);
    auto round = [&](bh_trace* x) { return w->round(x).round(); };
    if (o.workload == "batch-highload") {
      own_rounds(o, tr, bhx, own, round);
      own.shape = bhx.shape;
      own.construct_ms = w->construct_s() * 1e3;
      own.tag_bytes = static_cast<double>(w->capacity());
    } else {
      traced_round(tr, 0, [&] { return round(&bhx); });
    }
    note_outputs(rec, "batch-highload", w->outputs());
    const double per = 1e9;
    rec.add("batch_ops.insert_ns", median(bhx.insert_s) * per / w->inserts(), "ns");
    rec.add("batch_ops.find_hit_ns", median(bhx.hit_s) * per / w->finds(), "ns");
    rec.add("batch_ops.find_miss_ns", median(bhx.miss_s) * per / w->finds(), "ns");
    rec.add("batch_ops.erase_ns", median(bhx.erase_s) * per / w->erases(), "ns");
    std::vector<double> find_s;
    for (std::size_t i = 0; i < bhx.hit_s.size(); ++i) {
      find_s.push_back(bhx.hit_s[i] + bhx.miss_s[i]);
    }
    rec.add("batch_ops.insert_vs_scalar", median(bhx.insert_s) / median(bhx.scalar_insert_s),
            "ratio");
    rec.add("batch_ops.find_vs_scalar", median(find_s) / median(bhx.scalar_find_s), "ratio");
    rec.add("batch_ops.erase_vs_scalar", median(bhx.erase_s) / median(bhx.scalar_erase_s),
            "ratio");
    rec.add("tag_sidecar.batch_find_hit_delta_ns",
            (median(bhx.tag_hit_s[0]) - median(bhx.tag_hit_s[1])) * per / w->finds(), "ns");
    rec.add("tag_sidecar.batch_find_miss_delta_ns",
            (median(bhx.tag_miss_s[0]) - median(bhx.tag_miss_s[1])) * per / w->finds(), "ns");
  }
  // bfs-grid: the replayed level loop (phase count and sizes, pack and filter
  // spans, per-level batch inserts) and hash_bfs against array_bfs.
  bfs_trace bfx;
  {
    std::vector<double> setup_s;
    auto w = build<bfs_grid>(o, tr, ck, 1, setup_s);
    if (o.workload == "bfs-grid") {
      // Traced and untraced rounds both run the replay, so that
      // trace.overhead_pct compares the same code with and without spans.
      auto round = [&](bfs_trace* x) {
        bfs_trace scratch;
        return w->replay(x ? *x : scratch);
      };
      own_rounds(o, tr, bfx, own, round);
      own.shape = bfx.shape;
      own.construct_ms = median(bfx.ctor_s) * 1e3;
      own.tag_bytes = static_cast<double>(bfx.max_capacity);
    } else {
      for (int i = 0; i < 2; ++i) traced_round(tr, i, [&] { return w->replay(bfx); });
    }
    note_outputs(rec, "bfs-grid", w->outputs());
    std::vector<double> hash_s, array_s;
    for (int i = 0; i < 3; ++i) {
      hash_s.push_back(w->round());
      array_s.push_back(w->array_round());
    }
    rec.add("scheduler.empty_phase_us", empty_phase_us(bfx.phase_sizes), "us");
    // The replay's call count is 8 per level, a constant of the grid; the
    // library's internal parallel_for calls are not visible from outside
    // (README.md, "Dropped"), so it is a header note, not a metric.
    rec.info["bfs_levels"] = std::to_string(bfx.levels);
    rec.info["replay_phase_calls"] = std::to_string(bfx.phases);
    rec.add("primitives.elements_ms", median(bfx.elements_s) * 1e3, "ms");
    rec.add("primitives.filter_ms", median(bfx.filter_s) * 1e3, "ms");
    rec.add("batch_ops.bfs_insert_ms", median(bfx.insert_s) * 1e3, "ms");
    rec.add("apps.hash_over_array", median(hash_s) / median(array_s), "ratio");
  }
  rec.add("scheduler.self_speedup", own.p1 / median(own.untraced), "ratio");
  const char* ops[4] = {"insert", "find_hit", "find_miss", "erase"};
  const std::vector<double>* samples[4] = {&t1x.insert_ns, &t1x.hit_ns, &t1x.miss_ns,
                                           &t1x.erase_ns};
  for (int i = 0; i < 4; ++i) {
    rec.add(std::string("probe_engine.") + ops[i] + "_ns_p50", percentile(*samples[i], 0.5), "ns");
    rec.add(std::string("probe_engine.") + ops[i] + "_ns_p99", percentile(*samples[i], 0.99), "ns");
  }
  rec.add("probe_engine.displacement_mean", own.shape.mean(), "slots");
  rec.add("probe_engine.miss_run_p99", own.shape.run_p99(), "slots");
  rec.add("probe_engine.construct_ms", own.construct_ms, "ms");
  rec.add("tag_sidecar.find_hit_delta_ns", median(t1x.tag_hit[0]) - median(t1x.tag_hit[1]), "ns");
  rec.add("tag_sidecar.find_miss_delta_ns", median(t1x.tag_miss[0]) - median(t1x.tag_miss[1]),
          "ns");
  rec.add("tag_sidecar.erase_delta_ns", median(t1x.tag_erase[0]) - median(t1x.tag_erase[1]), "ns");
  rec.add("tag_sidecar.bytes", own.tag_bytes, "bytes");
  rec.add("shape.d_over_nd_insert", d_ins / nd_ins, "ratio");
  rec.add("shape.d_over_nd_find_hit", d_hit / nd_hit, "ratio");
  rec.add("shape.d_over_serial_hi_insert_p1", d_ins_p1 / hi_ins, "ratio");
  rec.add("shape.d_over_serial_hi_find_hit_p1", d_hit_p1 / hi_hit, "ratio");
  rec.add("trace.overhead_pct",
          (median(own.traced) - median(own.untraced)) / median(own.untraced) * 100.0, "%");
  rec.info["rounds"] = std::to_string(own.untraced.size());
  rec.info["traced_rounds"] = std::to_string(own.traced.size());
  rec.info["trace_sample_every"] = std::to_string(kSample);
}

// --- main -----------------------------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "phase_bench: %s\nusage: phase_bench --workload table1-int|batch-highload|bfs-grid "
               "--seed N --seconds S --trace 0|1 [--size-shift K] "
               "[--drop-reference-key] [--tagged-probes] [--trace-out FILE] [--git-sha SHA]\n",
               why);
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(value().c_str());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--size-shift") o.shift = std::atoi(value().c_str());
    else if (a == "--drop-reference-key") o.drop_key = true;
    else if (a == "--tagged-probes") o.tagged_probes = true;
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--git-sha") o.git_sha = value();
    else usage(("unknown argument " + a).c_str());
  }
  if (o.workload != "table1-int" && o.workload != "batch-highload" && o.workload != "bfs-grid") {
    usage("unknown workload");
  }
  if (o.shift < 0 || o.shift > 12) usage("--size-shift must be in [0, 12]");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  o.tag_backend = phch::simd::active();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const options o = parse(argc, argv);
  set_workers(full_workers());
  if (!o.tagged_probes) phch::simd::set_backend(phch::simd::backend::off);
  record rec;
  checker ck;
  tracer tr(o.trace);
  try {
    if (o.trace) run_traced(o, rec, ck, tr);
    else run_plain(o, rec, ck);
  } catch (const std::exception& e) {
    ck.fail(1, std::string("uncaught exception: ") + e.what());
  }
  add_header(rec, o);
  const double ratio =
      ck.attempted() ? static_cast<double>(ck.failed()) / static_cast<double>(ck.attempted()) : 0.0;

  std::string header = "{";
  for (const auto& [k, v] : rec.info) {
    header += (header.size() > 1 ? ", \"" : "\"") + json_escape(k) + "\": \"" +
              json_escape(v) + "\"";
  }
  std::printf("header: %s}\n", header.c_str());
  for (const metric& m : rec.metrics) {
    std::printf("%-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-40s %14.6g ratio (%llu of %llu)\n", "failed_ops_ratio", ratio,
              static_cast<unsigned long long>(ck.failed()),
              static_cast<unsigned long long>(ck.attempted()));
  if (o.trace) {
    std::printf("layer self time (ms, summed over spans):\n");
    for (const auto& [name, row] : tr.self_times()) {
      std::printf("  %-32s %8zu spans %12.3f total %12.3f self\n", name.c_str(), row.count,
                  row.total_ms, row.self_ms);
    }
    if (!o.trace_out.empty()) {
      if (tr.write(o.trace_out)) std::printf("spans written to %s\n", o.trace_out.c_str());
      else std::printf("could not write spans to %s\n", o.trace_out.c_str());
    }
  }
  const bool correct = ck.failed() == 0 && ck.attempted() > 0;
  std::string js = "{\"correct\": " + std::string(correct ? "true" : "false") +
                   ", \"attempted\": " + std::to_string(ck.attempted()) +
                   ", \"failed\": " + std::to_string(ck.failed()) + ", \"metrics\": {";
  for (std::size_t i = 0; i < rec.metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", rec.metrics[i].value);
    js += (i ? ", \"" : "\"") + rec.metrics[i].name + "\": {\"value\": " + buf +
          ", \"unit\": \"" + rec.metrics[i].unit + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
