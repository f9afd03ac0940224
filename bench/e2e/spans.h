// Spans recorded by the benchmark around its own calls into each layer
// (nothing inside the program is instrumented). A span has a name, a
// start and end on the MonotonicNowNs clock, a parent span and a request
// id; spans stay in memory and are written as JSON lines when the run
// ends. A layer's self time is its span's duration minus its children's.

#ifndef GANC_BENCH_E2E_SPANS_H_
#define GANC_BENCH_E2E_SPANS_H_

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"

namespace ganc::e2e {

struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< 0 = not part of a request (set-up, offline)
};

/// Append-only span buffer owned by one thread. Ids are unique across
/// logs built with distinct `log_index` values.
class SpanLog {
 public:
  explicit SpanLog(uint64_t log_index) : next_id_((log_index << 40) + 1) {}

  uint64_t Add(const char* name, uint64_t start_ns, uint64_t end_ns,
               uint64_t parent = 0, uint64_t request = 0) {
    spans_.push_back({name, start_ns, end_ns, next_id_, parent, request});
    return next_id_++;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Sum of self times (ns) per span name over all `logs`.
inline std::map<std::string, double> ComputeSelfTimes(
    const std::vector<const SpanLog*>& logs) {
  std::unordered_map<uint64_t, double> child_ns;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.parent != 0) {
        child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
  }
  std::map<std::string, double> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      const auto it = child_ns.find(s.id);
      const double children = it == child_ns.end() ? 0.0 : it->second;
      out[s.name] += static_cast<double>(s.end_ns - s.start_ns) - children;
    }
  }
  return out;
}

/// Writes the spans as JSON lines. Request spans are thinned to every
/// `request_stride`-th request to keep the file small; spans outside
/// requests are always written.
inline void WriteSpansJsonl(const std::string& path,
                            const std::string& workload,
                            const std::vector<const SpanLog*>& logs,
                            uint64_t request_stride) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) Die("cannot write " + path);
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.request != 0 && s.request % request_stride != 0) continue;
      os << Json()
                .Str("workload", workload)
                .Str("name", s.name)
                .Int("id", static_cast<int64_t>(s.id))
                .Int("parent", static_cast<int64_t>(s.parent))
                .Int("request", static_cast<int64_t>(s.request))
                .Int("start_ns", static_cast<int64_t>(s.start_ns))
                .Int("end_ns", static_cast<int64_t>(s.end_ns))
                .str()
         << '\n';
    }
  }
}

}  // namespace ganc::e2e

#endif  // GANC_BENCH_E2E_SPANS_H_
