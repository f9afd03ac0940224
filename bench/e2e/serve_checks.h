// Correctness checks on served responses, the stream digest, and the
// quality of the served lists (Table III definitions from
// eval/metrics.cc, applied to every list a phase served).

#ifndef GANC_BENCH_E2E_SERVE_CHECKS_H_
#define GANC_BENCH_E2E_SERVE_CHECKS_H_

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "loadgen.h"
#include "serve/protocol.h"
#include "serve/recommendation_service.h"
#include "serve_inputs.h"
#include "util/stats.h"

namespace ganc::e2e {

/// One phase's requests and what happened to them, in send order.
struct Phase {
  std::string name;
  std::vector<Request> reqs;
  std::vector<Outcome> outs;
};

enum class Verb { kTopN, kConsume, kPublish };

inline Verb VerbOf(const std::string& line) {
  if (line.rfind("TOPN ", 0) == 0) return Verb::kTopN;
  if (line.rfind("CONSUME ", 0) == 0) return Verb::kConsume;
  return Verb::kPublish;
}

/// Value of `key=` in a request line ("" when absent).
inline std::string Field(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return "";
  const size_t start = pos + needle.size();
  return line.substr(start, line.find(' ', start) - start);
}

inline std::vector<ItemId> ParseIds(const std::string& csv) {
  std::vector<ItemId> ids;
  size_t start = 0;
  while (start < csv.size()) {
    size_t end = csv.find(',', start);
    if (end == std::string::npos) end = csv.size();
    ids.push_back(
        static_cast<ItemId>(std::stol(csv.substr(start, end - start))));
    start = end + 1;
  }
  return ids;
}

/// Checks a TOPN reply has the form "OK user=U n=10 items=..." with
/// kListLen distinct in-range ids; fills `items`.
inline bool WellFormedTopN(const std::string& response, UserId user,
                           int32_t num_items, std::vector<ItemId>* items) {
  const std::string head = "OK user=" + std::to_string(user) +
                           " n=" + std::to_string(kListLen) + " items=";
  if (response.rfind(head, 0) != 0) return false;
  const std::string csv = response.substr(head.size());
  if (csv.empty() ||
      csv.find_first_not_of("0123456789,") != std::string::npos) {
    return false;
  }
  *items = ParseIds(csv);
  std::vector<ItemId> sorted = *items;
  std::sort(sorted.begin(), sorted.end());
  return sorted.size() == kListLen &&
         std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end() &&
         sorted.front() >= 0 && sorted.back() < num_items;
}

/// Whether a reply has the form its request asks for: a TOPN list (see
/// WellFormedTopN), "OK consumed=<count>" or "OK version=...". Byte
/// exactness is the sampled recomputation's job.
inline bool Served(const Request& r, const std::string& resp,
                   int32_t num_items) {
  std::vector<ItemId> items;
  switch (VerbOf(r.line)) {
    case Verb::kTopN:
      return WellFormedTopN(resp, std::stoi(Field(r.line, "user")),
                            num_items, &items);
    case Verb::kConsume: {
      const size_t count = ParseIds(Field(r.line, "items")).size();
      return resp == "OK consumed=" + std::to_string(count);
    }
    case Verb::kPublish:
      return resp.rfind("OK version=", 0) == 0;
  }
  return false;
}

/// Tallies of one check pass over a run's phases.
struct CheckTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t malformed = 0;
  uint64_t errors = 0;      ///< ERR replies
  uint64_t verified = 0;    ///< TOPN replies recomputed in-process
  uint64_t mismatched = 0;  ///< ... that differed byte for byte
};

/// Checks every reply of every phase and recomputes every 64th TOPN per
/// connection through an in-process service with no batching, cache or
/// store. Session exclusions come from the benchmark's own record of the
/// CONSUMEs sent before that TOPN (a session lives on one connection, so
/// send order within a phase is the order the server saw).
inline CheckTally CheckPhases(const std::vector<const Phase*>& phases,
                              const ServeInputs& in, ServeMode mode,
                              WorkloadResult* result) {
  constexpr uint64_t kVerifyStride = 64;
  ServiceConfig sc;
  sc.micro_batching = false;
  sc.cache_capacity = 0;
  sc.domain_metrics = false;
  sc.metrics = std::make_shared<MetricsRegistry>();
  std::unique_ptr<RecommendationService> reference =
      mode == ServeMode::kSession
          ? Check(RecommendationService::LoadPipelineService(in.artifact,
                                                             in.train, sc),
                  "reference pipeline service")
          : Check(RecommendationService::LoadModelService(in.artifact,
                                                          in.train, sc),
                  "reference model service");
  CheckTally t;
  std::map<std::string, std::set<ItemId>> consumed;
  std::map<int, uint64_t> topn_seen;  // TOPNs per connection
  std::vector<ItemId> expected;
  for (const Phase* p : phases) {
    for (size_t i = 0; i < p->reqs.size(); ++i) {
      const Request& r = p->reqs[i];
      const std::string& resp = p->outs[i].response;
      ++t.attempted;
      if (!Served(r, resp, in.train.num_items())) {
        ++t.failed;
        ++t.malformed;
        if (resp.rfind("ERR", 0) == 0) ++t.errors;
        result->Problem(p->name + ": bad reply to '" + r.line + "': " + resp);
        continue;
      }
      const Verb verb = VerbOf(r.line);
      if (verb == Verb::kConsume) {
        const std::vector<ItemId> ids = ParseIds(Field(r.line, "items"));
        consumed[Field(r.line, "session")].insert(ids.begin(), ids.end());
      }
      if (verb != Verb::kTopN || topn_seen[r.conn]++ % kVerifyStride != 0) {
        continue;
      }
      const UserId u = std::stoi(Field(r.line, "user"));
      const std::string session = Field(r.line, "session");
      std::vector<ItemId> excl;
      if (!session.empty()) {
        const std::set<ItemId>& s = consumed[session];
        excl.assign(s.begin(), s.end());
      }
      Check(reference->TopNInto(u, kListLen, excl, &expected),
            "reference TopN");
      ++t.verified;
      const std::string want = FormatTopNResponse(u, kListLen, expected);
      if (want != resp) {
        ++t.failed;
        ++t.mismatched;
        result->Problem(p->name + ": '" + r.line + "' served '" + resp +
                        "', reference '" + want + "'");
      }
    }
  }
  return t;
}

/// FNV-1a over a phase's TOPN and CONSUME replies in schedule order.
/// Schedules are fixed by the seed and replies are deterministic, so two
/// runs of the same code and seed print the same digest.
inline void DigestPhase(const Phase& p, Fnv1a* h) {
  for (size_t i = 0; i < p.reqs.size(); ++i) {
    if (VerbOf(p.reqs[i].line) != Verb::kPublish) h->Add(p.outs[i].response);
  }
}

/// Quality of the lists a phase served, weighted by request (what users
/// were shown): LTAccuracy = long-tail share of slots, Coverage =
/// distinct items over the catalog, Gini over item frequencies.
struct ServedQuality {
  double lt_accuracy = 0.0;
  double coverage = 0.0;
  double gini = 0.0;
};

inline ServedQuality QualityOf(const Phase& p, const ServeInputs& in) {
  std::vector<double> freq(static_cast<size_t>(in.train.num_items()), 0.0);
  double slots = 0.0, tail = 0.0;
  std::vector<ItemId> items;
  for (size_t i = 0; i < p.reqs.size(); ++i) {
    if (VerbOf(p.reqs[i].line) != Verb::kTopN) continue;
    const UserId u = std::stoi(Field(p.reqs[i].line, "user"));
    if (!WellFormedTopN(p.outs[i].response, u, in.train.num_items(), &items)) {
      continue;
    }
    for (const ItemId it : items) {
      ++freq[static_cast<size_t>(it)];
      slots += 1.0;
      if (in.tail.Contains(it)) tail += 1.0;
    }
  }
  ServedQuality q;
  size_t distinct = 0;
  for (const double f : freq) distinct += f > 0.0;
  q.lt_accuracy = slots > 0.0 ? tail / slots : 0.0;
  q.coverage = static_cast<double>(distinct) / static_cast<double>(freq.size());
  q.gini = GiniCoefficient(freq);
  return q;
}

}  // namespace ganc::e2e

#endif  // GANC_BENCH_E2E_SERVE_CHECKS_H_
