// Remove duplicates (§5): insert every element of the input into a table in
// parallel, then return ELEMENTS(). With a deterministic table, the output
// *order* is the same on every run — the property that distinguishes this
// from merely returning the right set.
#pragma once

#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/table_concepts.h"
#include "phch/obs/trace.h"

namespace phch::apps {

// Table is any phase_table whose value_type matches In. The whole input is
// one insert phase, routed through the batched engine: linear-probing
// tables get software-pipelined multi-probe inserts (core/batch_ops.h),
// others a plain parallel insert loop. Under PHCH_TELEMETRY the two phases
// (insert, elements) are bracketed by marks, so the metrics JSON reports
// per-phase counter deltas, and each phase is a trace span.
template <phase_table Table, typename In>
std::vector<typename Table::value_type> remove_duplicates(const std::vector<In>& input,
                                                          std::size_t table_capacity) {
  Table table(table_capacity);
  obs::mark("dedup/start");
  {
    obs::span sp("dedup:insert");
    sp.b = input.size();
    insert_batch(table, input);
  }
  obs::mark("dedup/inserted");
  std::vector<typename Table::value_type> out;
  {
    obs::span sp("dedup:elements");
    out = table.elements();
    sp.b = out.size();
  }
  obs::mark("dedup/elements");
  return out;
}

}  // namespace phch::apps
