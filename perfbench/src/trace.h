// In-memory span recorder for the traced run, plus the small statistics the
// benchmark reports.
//
// A span is one call the benchmark makes into a library layer: a round, a
// phase call inside it (a parallel_for, a batch call, elements(), a table
// constructor), or one sampled operation inside a phase. Each span records
// its name, start and end, its parent span and the round it belongs to.
// Phase-level spans are opened and closed on the main thread; sampled
// operations are timed by the workers into preallocated slots and attached
// to their phase afterwards. Nothing is written until the run ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Nearest-rank percentile, q in [0, 1].
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t r = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (r >= v.size()) r = v.size() - 1;
  return v[r];
}

struct span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index into the span list, -1 for a root
  std::int32_t round;   // -1 outside rounds (set-up, reference sections)
  std::uint64_t items;  // elements the call processed
  bool extra;           // measurement-only call: not part of the workload
};

class tracer {
 public:
  explicit tracer(bool on) : on_(on) {}

  void set_round(std::int32_t r) noexcept { round_ = r; }
  // While paused nothing is recorded: the untraced rounds of a traced run.
  void pause(bool paused) noexcept { paused_ = paused; }
  std::int32_t current() const noexcept { return stack_.empty() ? -1 : stack_.back(); }

  std::int32_t open(const char* name, std::uint64_t items, bool extra) {
    if (!on_ || paused_) return -1;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(span{name, now_ns(), 0, current(), round_, items, extra});
    stack_.push_back(id);
    return id;
  }

  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  // Sampled operations timed by workers: start/end pairs, 0 = not sampled.
  void add_ops(const char* name, std::int32_t parent,
               const std::vector<std::pair<std::int64_t, std::int64_t>>& t) {
    if (!on_ || paused_) return;
    for (const auto& [s, e] : t) {
      if (e != 0) spans_.push_back(span{name, s, e, parent, round_, 1, false});
    }
  }

  // Self time per span name: each span's duration minus the part of it that
  // its children cover (children of a phase run in parallel and overlap, so
  // the covered part is the union of their intervals, not their sum).
  struct self_row {
    std::size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, self_row> self_times() const {
    std::vector<std::vector<std::int32_t>> kids(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::int32_t parent = spans_[i].parent;
      if (parent >= 0) {
        kids[static_cast<std::size_t>(parent)].push_back(static_cast<std::int32_t>(i));
      }
    }
    std::map<std::string, self_row> rows;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      iv.clear();
      for (std::int32_t k : kids[i]) {
        const span& c = spans_[static_cast<std::size_t>(k)];
        iv.emplace_back(std::max(c.start_ns, s.start_ns), std::min(c.end_ns, s.end_ns));
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0;
      std::int64_t reach = s.start_ns;
      for (const auto& [a, b] : iv) {
        const std::int64_t lo = std::max(a, reach);
        if (b > lo) {
          covered += b - lo;
          reach = b;
        }
      }
      self_row& r = rows[s.name];
      ++r.count;
      r.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      r.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6;
    }
    return rows;
  }

  // One JSON object per line with the keys id, name, start_ns, end_ns,
  // parent, round, items and extra.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"round\":%d,\"items\":%llu,\"extra\":%s}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.round,
                   static_cast<unsigned long long>(s.items), s.extra ? "true" : "false");
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  bool paused_ = false;
  std::int32_t round_ = -1;
  std::vector<span> spans_;
  std::vector<std::int32_t> stack_;
};

// Times one call into a layer. With tracing on it is also a span whose
// parent is whatever span is open on the main thread.
template <typename F>
double timed(tracer& tr, const char* name, std::uint64_t items, bool extra, F&& f) {
  const std::int32_t id = tr.open(name, items, extra);
  const std::int64_t t0 = now_ns();
  f();
  const std::int64_t t1 = now_ns();
  tr.close(id);
  return static_cast<double>(t1 - t0) * 1e-9;
}

}  // namespace perfbench
