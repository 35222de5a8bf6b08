// In-memory span recording for the traced run. Spans are taken by the
// benchmark around its own calls into the program's public layer functions;
// nothing inside the program is instrumented. Each client thread owns one
// SpanLog, so recording takes no lock; logs are read only after the threads
// have joined.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/util.h"

namespace perfbench {

struct Span {
  const char* name;  // a string literal: spans of one layer share the pointer
  int32_t parent;    // index in the same log, -1 for an operation's root
  uint32_t op;       // operation id (index in the workload's list)
  int64_t start_ns;
  int64_t end_ns;
};

class SpanLog {
 public:
  int32_t Open(const char* name, uint32_t op, int32_t parent) {
    spans_.push_back({name, parent, op, ToNs(Clock::now()), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id) { spans_[id].end_ns = ToNs(Clock::now()); }
  int32_t Record(const char* name, uint32_t op, int32_t parent,
                 int64_t start_ns, int64_t end_ns) {
    spans_.push_back({name, parent, op, start_ns, end_ns});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of spans named `name`, per operation, in seconds
  /// (one entry per operation that has such a span).
  std::vector<double> PerOpSeconds(const std::string& name) const {
    std::map<uint32_t, double> per_op;
    for (const Span& s : spans_) {
      if (name == s.name) per_op[s.op] += (s.end_ns - s.start_ns) / 1e9;
    }
    std::vector<double> out;
    out.reserve(per_op.size());
    for (const auto& [op, seconds] : per_op) out.push_back(seconds);
    return out;
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span: opened at construction, closed at destruction.
class ScopedTrace {
 public:
  ScopedTrace(SpanLog* log, const char* name, uint32_t op,
              int32_t parent = -1)
      : log_(log), id_(log->Open(name, op, parent)) {}
  ~ScopedTrace() { log_->Close(id_); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

/// One row of the per-layer table: a span name's count, total time and
/// self time (its time minus the part its child spans cover).
struct LayerRow {
  std::string name;
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  bool root = false;
};

struct LayerTable {
  std::vector<LayerRow> rows;
  double root_total_s = 0.0;  // summed duration of every operation's root
  double self_sum_s = 0.0;    // summed self time of every span

  /// Share of operation time not covered by any layer span (root self time).
  double unattributed_share() const {
    double glue = 0.0;
    for (const LayerRow& r : rows) {
      if (r.root) glue += r.self_s;
    }
    return root_total_s > 0 ? glue / root_total_s : 0.0;
  }
};

inline LayerTable BuildLayerTable(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, LayerRow> rows;
  LayerTable table;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_s(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_s[s.parent] += (s.end_ns - s.start_ns) / 1e9;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      double d = (s.end_ns - s.start_ns) / 1e9;
      LayerRow& row = rows[s.name];
      row.name = s.name;
      row.count += 1;
      row.total_s += d;
      row.self_s += d - child_s[i];
      row.root = row.root || s.parent < 0;
      table.self_sum_s += d - child_s[i];
      if (s.parent < 0) table.root_total_s += d;
    }
  }
  for (auto& [name, row] : rows) table.rows.push_back(row);
  return table;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
