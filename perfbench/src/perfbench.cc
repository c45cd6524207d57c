// perfbench: runs one named workload against the prefrep library
// through its public API with a single closed-loop client, checks every
// answer against the benchmark's own oracle (model.h), and prints the
// metrics as one JSON object on the last line of standard output.
//
//   perfbench --workload serve_hot|pref_adhoc|update_stream
//                    --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around every layer call (trace.h), writes them to
// --trace-out, and prints the per-layer metrics. The end-to-end latencies
// and query_qps count only the operations that ran while the host slowed
// the client, its usual state (speed.h). Per-class latency summaries and
// the whole-run figures go to standard error.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "constraints/conflict_index.h"
#include "constraints/fd.h"
#include "core/families.h"
#include "cqa/aggregation.h"
#include "cqa/planner.h"
#include "graph/components.h"
#include "model.h"
#include "priority/priority.h"
#include "query/parser.h"
#include "query/prepared.h"
#include "relational/database.h"
#include "relational/delta.h"
#include "repair/repair.h"
#include "server/session.h"
#include "server/snapshot.h"
#include "speed.h"
#include "sql/sql.h"
#include "trace.h"

namespace perfbench {
namespace {

using prefrep::CqaPlan;
using prefrep::CqaTier;
using prefrep::CqaVerdict;
using prefrep::Database;
using prefrep::DatabaseDelta;
using prefrep::OpenAnswer;
using prefrep::Priority;
using prefrep::Session;
using prefrep::SessionCacheStats;
using prefrep::Snapshot;
using prefrep::Tuple;
using prefrep::Value;

// Generous: no request of these workloads comes near it, so a request
// that passes it points at a fault and counts as failed.
constexpr std::chrono::seconds kRequestDeadline{5};
// Set-ups per run: at least this many, and more until they add up to
// kSetupSeconds; the run reports their median.
constexpr int kSetupRepeats = 5;
constexpr double kSetupSeconds = 1.0;
// Update batches per chain; every chain starts again from the base version,
// so the id layout a batch meets does not drift with the length of the run.
constexpr int kChainLength = 40;

double CurrentRssMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Heap in use: glibc's allocated arena bytes plus mmapped chunks, over all
// arenas.
double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string RelName(int rel) { return "R" + std::to_string(rel); }

prefrep::RepairFamily ToLib(Family f) {
  switch (f) {
    case Family::kRep: return prefrep::RepairFamily::kAll;
    case Family::kSRep: return prefrep::RepairFamily::kSemiGlobal;
    case Family::kGRep: return prefrep::RepairFamily::kGlobal;
    case Family::kCRep: return prefrep::RepairFamily::kCommon;
  }
  return prefrep::RepairFamily::kAll;
}

Tuple TupleOf(const Row& row) {
  return Tuple::Of(Value::Name("K" + std::to_string(row.k)),
                   Value::Number(row.v), Value::Number(row.w));
}

// ---------------------------------------------------------------------------
// Requests and their oracle answers.

struct Atom {
  int rel = 0;
  int k = 0;
  int64_t v = 0;
  int64_t w = 0;
};

std::string AtomText(const Atom& a) {
  return "R" + std::to_string(a.rel) + "(K" + std::to_string(a.k) + ", " +
         std::to_string(a.v) + ", " + std::to_string(a.w) + ")";
}

enum class Kind { kVerdict, kOpen, kAggregate };
enum class Shape { kAtom, kAnd, kOr, kNot };

struct Request {
  Kind kind = Kind::kVerdict;
  Family family = Family::kRep;
  int priority = -1;  // index into the version's priorities; -1: empty
  int cls = 0;        // request class, for per-class statistics
  // Verdicts: a Boolean combination of one or two ground atoms.
  Shape shape = Shape::kAtom;
  Atom a;
  Atom b;
  // Open (SQL) requests and aggregates: the relation; open requests also
  // name one key group.
  int rel = 0;
  int k = 0;
  bool star = false;  // SELECT * (quantifier-free) vs SELECT r.V
  bool sum = false;   // SUM(V) vs COUNT(V)
  std::string text;   // query text or SQL; set by Finish()

  Request& Finish() {
    switch (kind) {
      case Kind::kVerdict:
        text = shape == Shape::kNot ? "not " + AtomText(a) : AtomText(a);
        if (shape == Shape::kAnd) text += " and " + AtomText(b);
        if (shape == Shape::kOr) text += " or " + AtomText(b);
        break;
      case Kind::kOpen:
        text = std::string("SELECT ") + (star ? "*" : "r.V") + " FROM R" +
               std::to_string(rel) + " r WHERE r.K = 'K" + std::to_string(k) +
               "'";
        break;
      case Kind::kAggregate:
        text = std::string(sum ? "SUM" : "COUNT") + "(R" +
               std::to_string(rel) + ".V)";
        break;
    }
    return *this;
  }
  std::vector<int> Relations() const {
    if (kind != Kind::kVerdict) return {rel};
    std::vector<int> rels = {a.rel};
    if ((shape == Shape::kAnd || shape == Shape::kOr) && b.rel != a.rel) {
      rels.push_back(b.rel);
    }
    return rels;
  }
};

// COUNT(V) of relation `rel` under Rep.
Request RepCount(int rel, int cls) {
  Request r;
  r.kind = Kind::kAggregate;
  r.cls = cls;
  r.rel = rel;
  return r.Finish();
}

CqaVerdict ExpectedVerdict(const Oracle& oracle, const Request& r) {
  std::vector<Atom> atoms = {r.a};
  if (r.shape == Shape::kAnd || r.shape == Shape::kOr) atoms.push_back(r.b);
  // The groups the atoms name and the classes each may keep.
  std::vector<std::pair<int, int>> groups;
  std::vector<int> group_of;
  for (const Atom& atom : atoms) {
    const std::pair<int, int> key{atom.rel, atom.k};
    auto it = std::find(groups.begin(), groups.end(), key);
    group_of.push_back(static_cast<int>(it - groups.begin()));
    if (it == groups.end()) groups.push_back(key);
  }
  std::vector<std::vector<int64_t>> choices;
  for (const auto& [rel, k] : groups) {
    const Oracle::Group* g = oracle.Find(rel, k);
    choices.push_back(g == nullptr ? std::vector<int64_t>{-1}
                                   : oracle.Kept(*g, r.family));
  }
  bool seen_true = false;
  bool seen_false = false;
  std::vector<size_t> pos(choices.size(), 0);
  for (;;) {
    auto holds = [&](size_t i) {
      const Atom& atom = atoms[i];
      return choices[group_of[i]][pos[group_of[i]]] == atom.v &&
             oracle.HasFact(atom.rel, atom.k, atom.v, atom.w);
    };
    bool value = holds(0);
    if (r.shape == Shape::kAnd) value = value && holds(1);
    if (r.shape == Shape::kOr) value = value || holds(1);
    if (r.shape == Shape::kNot) value = !value;
    (value ? seen_true : seen_false) = true;
    size_t d = 0;
    while (d < pos.size() && ++pos[d] == choices[d].size()) pos[d++] = 0;
    if (d == pos.size()) break;
  }
  if (seen_true && seen_false) return CqaVerdict::kUndetermined;
  return seen_true ? CqaVerdict::kCertainlyTrue : CqaVerdict::kCertainlyFalse;
}

OpenAnswer ExpectedAnswer(const Oracle& oracle, const Request& r) {
  OpenAnswer answer;
  answer.variables = r.star ? std::vector<std::string>{"r.K", "r.V", "r.W"}
                            : std::vector<std::string>{"r.V"};
  const Oracle::Group* g = oracle.Find(r.rel, r.k);
  if (g == nullptr) return answer;
  const std::vector<int64_t> kept = oracle.Kept(*g, r.family);
  // A certain answer holds in every kept repair; classes are disjoint.
  if (kept.size() != 1) return answer;
  if (!r.star) {
    answer.rows.push_back(Tuple::Of(Value::Number(kept[0])));
    return answer;
  }
  for (const Row* row : oracle.ClassRows(*g, kept[0])) {
    answer.rows.push_back(TupleOf(*row));
  }
  return answer;
}

// ---------------------------------------------------------------------------
// Statistics.

struct Samples {
  std::vector<double> values;
  void Add(double v) { values.push_back(v); }
  double P(double q) const { return Quantile(values, q); }
  double Mean() const {
    double total = 0;
    for (double v : values) total += v;
    return values.empty() ? 0 : total / static_cast<double>(values.size());
  }
};

// End-to-end samples, each with its request class (queries) and the speed
// probe's interval it ran in (speed.h).
struct Timed {
  std::vector<double> values;
  std::vector<int> cls;
  std::vector<int> interval;
  void Add(double v, int in_interval, int request_class = 0) {
    values.push_back(v);
    interval.push_back(in_interval);
    cls.push_back(request_class);
  }
  // The samples from the intervals that count (speed.h).
  Timed Counted(const SpeedProbe& speed) const {
    Timed out;
    for (size_t i = 0; i < values.size(); ++i) {
      if (speed.Counts(interval[i])) out.Add(values[i], interval[i], cls[i]);
    }
    return out;
  }
  double P(double q) const { return Quantile(values, q); }
};

struct CacheTotals {
  uint64_t prepared_hits = 0, prepared_misses = 0;
  uint64_t plan_hits = 0, plan_misses = 0;
  uint64_t result_hits = 0, result_misses = 0;
  uint64_t seeded_results = 0, seed_dropped = 0;
  void Absorb(const SessionCacheStats& s) {
    prepared_hits += s.prepared_hits;
    prepared_misses += s.prepared_misses;
    plan_hits += s.plan_hits;
    plan_misses += s.plan_misses;
    result_hits += s.result_hits;
    result_misses += s.result_misses;
    seeded_results += s.seeded_results;
    seed_dropped += s.seed_dropped;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// {"name": {"value": v, "unit": "u"}, ...}
std::string MetricsJson(
    const std::vector<std::tuple<std::string, double, const char*>>& metrics) {
  std::string json = "{";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    json += std::string(i == 0 ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  return json + "}";
}

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadConfig {
  const char* name;
  InstanceShape shape;
  int ranking_priorities;  // P0 ranks by timestamp, the rest at random
  int update_relation;     // the relation every batch goes to
  int64_t read_slice_ms;   // reads between two batches; 0: batches only
  int catalogue;           // serve_hot: distinct requests; 0 otherwise
};

const WorkloadConfig kWorkloads[] = {
    {"serve_hot", {4, 92, 4, 9}, 4, 3, 30, 400},
    {"pref_adhoc", {4, 60, 4, 8}, 4, 3, 30, 0},
    {"update_stream", {4, 92, 4, 9}, 1, 1, 0, 0},
};

// One database version as the client holds it.
struct Version {
  std::shared_ptr<const Snapshot> snapshot;
  std::unique_ptr<Session> session;
  std::vector<Priority> priorities;
  Priority empty;  // the empty priority over this version's graph
  Instance model;
  std::vector<std::vector<int64_t>> ranks;  // per priority, per row
};

class Bench {
 public:
  Bench(const WorkloadConfig& config, uint64_t seed, double seconds,
        bool trace)
      : config_(config),
        seed_(seed),
        seconds_(seconds),
        tracer_(trace),
        read_rng_(seed * 1000003 + 17),
        update_rng_(seed * 1000003 + 29) {}

  int Run(const std::string& trace_out);

 private:
  // Set-up: rows -> Database -> Snapshot -> priorities -> warm session.
  void Setup(const Instance& base,
             const std::vector<std::vector<int64_t>>& ranks);
  void WarmUp(Version& v);
  // Traced run: the heap a fresh session takes while its result cache
  // fills, split into the result cache and the prepared-query masters.
  void MeasureResultCache();
  // The requests that fill a fresh session: the catalogue, or the first
  // `count` ad-hoc requests of a stream of their own.
  std::vector<Request> FillRequests(size_t count);
  // Serves read requests from the base session until `until_ns`.
  void ReadSlice(int64_t until_ns);
  // One update batch: stage, derive, seed a session, rebuild the priority,
  // then the fresh answer and the follow-up requests.
  void RunBatch();

  // Runs one request against `v` and checks it; returns its latency (µs)
  // or nullopt when it failed. Latency covers the parse and the session
  // call; in the traced run the mirrored layer calls come after it.
  std::optional<double> Execute(Version& v, const Oracle& oracle,
                                const Request& r);
  void MirrorQuery(const Version& v, const prefrep::Query& query,
                   const Request& r, prefrep::CqaRequest kind, int parent);

  // A verdict request on one or two ground atoms, the first on `rel`.
  Request RandomAtomRequest(BenchRng& rng, const Instance& model,
                            Family family, int priority, int rel, int cls);
  Atom RandomAtom(BenchRng& rng, const Instance& model, int rel);
  std::vector<Request> AdhocRequest(BenchRng& rng, const Instance& model);
  std::vector<Request> FollowUps(const Instance& model,
                                 const std::vector<Row>& inserted);
  void BuildCatalogue(const Instance& model);

  void Fail(const std::string& what) {
    if (correct_) {
      std::fprintf(stderr, "perfbench: MISMATCH %s\n", what.c_str());
    }
    correct_ = false;
  }
  void Retire(std::unique_ptr<Session> session) {
    if (session != nullptr) caches_.Absorb(session->cache_stats());
  }

  const WorkloadConfig& config_;
  uint64_t seed_;
  double seconds_;
  Tracer tracer_;
  // Separate streams, so that the requests and the batches a seed gives do
  // not depend on how the run interleaves them.
  BenchRng read_rng_;
  BenchRng update_rng_;

  Version base_;
  std::vector<std::unique_ptr<Oracle>> base_oracles_;  // per priority
  Request intact_;  // a query on a relation the batches leave intact
  std::vector<Request> catalogue_;
  std::vector<double> zipf_cdf_;
  std::vector<Request> pending_;  // rest of the current ad-hoc round

  // Update chain state.
  std::unique_ptr<Version> chain_prev_;
  std::optional<Row> chain_fresh_row_;
  int chain_batch_ = 0;
  int64_t fresh_values_ = 0;

  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t op_id_ = 0;

  // End-to-end samples.
  SpeedProbe speed_;
  Samples setup_s_;
  Timed query_us_;
  Timed update_ms_;
  Timed fresh_ms_;
  int64_t queries_done_ = 0;
  double query_phase_s_ = 0;
  std::vector<std::string> class_names_;
  std::map<int, int64_t> class_hits_;  // cache hits per class, all phases

  // Per-layer accumulators (traced run).
  CacheTotals caches_;
  int64_t requests_ = 0;
  int64_t executed_ = 0;
  int64_t executed_tier2_ = 0;
  Samples repairs_examined_;
  Samples components_materialized_;
  double relevant_components_ = 0;
  double materialized_components_ = 0;
  double adjacency_shared_ = 0;
  double adjacency_total_ = 0;
  Samples components_rebuilt_;
  Samples fresh_edges_;
  Samples priority_arcs_;
  Samples priority_mb_;
  double result_cache_mb_ = 0;
  double prepared_cache_mb_ = 0;
  uint64_t result_cache_entries_ = 0;
  Samples ask_hit_us_;
  std::vector<int> ask_miss_spans_;
};

// ---------------------------------------------------------------------------

Atom Bench::RandomAtom(BenchRng& rng, const Instance& model, int rel) {
  // Three in four atoms name a stored fact; the rest a random (v, w) pair
  // in that fact's group, which is usually absent or in another class.
  for (;;) {
    const Row& row =
        model.rows[static_cast<size_t>(rng.Below(
            static_cast<int64_t>(model.rows.size())))];
    if (row.rel != rel) continue;
    Atom atom{rel, row.k, row.v, row.w};
    if (rng.Chance(0.25)) {
      atom.v = rng.Below(4);
      atom.w = rng.Below(config_.shape.max_group);
    }
    return atom;
  }
}

Request Bench::RandomAtomRequest(BenchRng& rng, const Instance& model,
                                 Family family, int priority, int rel,
                                 int cls) {
  Request r;
  r.kind = Kind::kVerdict;
  r.family = family;
  r.priority = priority;
  r.cls = cls;
  const int64_t pick = rng.Below(10);
  r.shape = pick < 5   ? Shape::kAtom
            : pick < 7 ? Shape::kAnd
            : pick < 9 ? Shape::kOr
                       : Shape::kNot;
  r.a = RandomAtom(rng, model, rel);
  r.b = RandomAtom(rng, model, static_cast<int>(rng.Below(model.relations)));
  r.Finish();
  return r;
}

std::optional<double> Bench::Execute(Version& v, const Oracle& oracle,
                                     const Request& r) {
  ++attempted_;
  ++requests_;
  tracer_.SetOp(++op_id_);
  const Priority& priority =
      r.priority < 0 ? v.empty : v.priorities[r.priority];
  prefrep::EvalOptions options;
  options.deadline = kRequestDeadline;
  const prefrep::RepairFamily family = ToLib(r.family);
  SpanScope request_span(tracer_, "request");
  bool ok = false;
  bool hit = false;
  CqaPlan executed;
  int64_t t0 = 0;
  int64_t t1 = 0;
  if (r.kind == Kind::kAggregate) {
    t0 = NowNs();
    const prefrep::AggregateFunction fn =
        r.sum ? prefrep::AggregateFunction::kSum
              : prefrep::AggregateFunction::kCount;
    const int call = tracer_.Begin("server.aggregate");
    auto range = v.session->Aggregate(RelName(r.rel), "V", fn, priority,
                                      family, options, &executed);
    tracer_.End(call);
    t1 = NowNs();
    ok = range.ok();
    if (ok) {
      const auto [lo, hi] = oracle.AggregateRange(r.rel, r.family, r.sum);
      if (!range->has_value || range->empty_possible || range->lo != lo ||
          range->hi != hi) {
        Fail(r.text + " under " + FamilyName(r.family) + ": got " +
             range->ToString());
      }
    }
    if (tracer_.enabled() && ok) {
      prefrep::ExecutionContext context;
      prefrep::CqaPlannerOptions planner;
      planner.parallel.context = &context;
      const int64_t m0 = NowNs();
      auto mirrored = prefrep::PlannedAggregateRange(
          v.snapshot->problem(), priority, family, RelName(r.rel), "V", fn,
          planner);
      tracer_.Add("cqa.aggregate", m0, NowNs(), call);
      if (!mirrored.ok()) Fail("mirrored " + r.text);
    }
  } else {
    t0 = NowNs();
    std::unique_ptr<prefrep::Query> query;
    {
      SpanScope parse(tracer_,
                      r.kind == Kind::kOpen ? "sql.parse" : "query.parse");
      auto parsed = r.kind == Kind::kOpen
                        ? prefrep::ParseSql(v.snapshot->db(), r.text)
                        : prefrep::ParseQuery(r.text);
      if (parsed.ok()) query = std::move(*parsed);
    }
    if (query == nullptr) {
      Fail("parse " + r.text);
      ++failed_;
      return std::nullopt;
    }
    const int call = tracer_.Begin("server.ask");
    if (r.kind == Kind::kVerdict) {
      auto verdict =
          v.session->Ask(*query, priority, family, options, &executed, &hit);
      tracer_.End(call);
      t1 = NowNs();
      ok = verdict.ok();
      if (ok && *verdict != ExpectedVerdict(oracle, r)) {
        Fail(r.text + " under " + FamilyName(r.family) + ": got " +
             std::string(prefrep::CqaVerdictName(*verdict)));
      }
    } else {
      auto answers = v.session->Answers(*query, priority, family, options,
                                        &executed, &hit);
      tracer_.End(call);
      t1 = NowNs();
      ok = answers.ok();
      if (ok) {
        const OpenAnswer expected = ExpectedAnswer(oracle, r);
        if (answers->variables != expected.variables ||
            answers->rows != expected.rows) {
          Fail(r.text + " under " + FamilyName(r.family) + ": got " +
               std::to_string(answers->rows.size()) + " rows");
        }
      }
    }
    if (tracer_.enabled() && ok) {
      if (hit) {
        ask_hit_us_.Add(tracer_.DurationUs(call));
      } else {
        MirrorQuery(v, *query, r,
                    r.kind == Kind::kOpen ? prefrep::CqaRequest::kOpenAnswers
                                          : prefrep::CqaRequest::kVerdict,
                    call);
        ask_miss_spans_.push_back(call);
      }
    }
  }
  if (!ok) {
    ++failed_;
    return std::nullopt;
  }
  if (hit) ++class_hits_[r.cls];
  if (!hit) {
    ++executed_;
    if (executed.tier == CqaTier::kEnumeration) ++executed_tier2_;
  }
  return static_cast<double>(t1 - t0) / 1e3;
}

void Bench::MirrorQuery(const Version& v, const prefrep::Query& query,
                        const Request& r, prefrep::CqaRequest kind,
                        int parent) {
  const Snapshot& snap = *v.snapshot;
  const Priority& priority =
      r.priority < 0 ? v.empty : v.priorities[r.priority];
  const prefrep::RepairFamily family = ToLib(r.family);

  int64_t t = NowNs();
  auto compiled = prefrep::PreparedQuery::Compile(snap.db(), query);
  tracer_.Add("query.compile", t, NowNs(), parent);
  if (!compiled.ok()) return Fail("mirrored compile " + r.text);

  t = NowNs();
  const CqaPlan plan =
      prefrep::ExplainPlan(snap.problem(), priority, family, query, kind);
  tracer_.Add("cqa.plan", t, NowNs(), parent);

  prefrep::ExecutionContext context;
  prefrep::CqaPlannerOptions planner;
  planner.prepared = &*compiled;
  planner.precomputed_plan = &plan;
  planner.parallel.context = &context;
  const char* tier_name = plan.tier == CqaTier::kEnumeration ? "cqa.tier2"
                          : plan.tier == CqaTier::kGroundFastPath
                              ? "cqa.tier1"
                              : "cqa.tier0";
  t = NowNs();
  const bool ran =
      kind == prefrep::CqaRequest::kVerdict
          ? prefrep::PlannedConsistentAnswer(snap.problem(), priority, family,
                                             query, planner)
                .ok()
          : prefrep::PlannedConsistentAnswers(snap.problem(), priority,
                                              family, query, planner)
                .ok();
  const int tier_span = tracer_.Add(tier_name, t, NowNs(), parent);
  if (!ran) return Fail("mirrored execution " + r.text);
  if (plan.tier != CqaTier::kEnumeration) return;
  repairs_examined_.Add(
      static_cast<double>(context.stats().repairs_examined()));

  // The core, graph and priority layers. At threads = 1 the tier-2 engine
  // runs EnumeratePreferredRepairs, which decomposes the graph, projects
  // the priority per component and materializes each component's family
  // before streaming their product; MaterializeComponentFamilyLists does
  // the same three steps without the product, so it stands in for them.
  t = NowNs();
  auto lists = prefrep::MaterializeComponentFamilyLists(
      snap.graph(), priority, plan.effective_family,
      prefrep::ParallelOptions{});
  const int lists_span =
      tracer_.Add("core.family_lists", t, NowNs(), tier_span);
  if (lists.has_value()) {
    const std::vector<int> rels = r.Relations();
    double relevant = 0;
    for (const prefrep::GraphComponent& c : lists->decomposition.components()) {
      const int rel = snap.db().RelationIndexOf(c.vertices.front());
      relevant += std::find(rels.begin(), rels.end(), rel) != rels.end();
    }
    const double materialized = static_cast<double>(lists->choices.size());
    components_materialized_.Add(materialized);
    relevant_components_ += relevant;
    materialized_components_ += materialized;
  }
  t = NowNs();
  prefrep::ComponentDecomposition decomposition(snap.graph());
  tracer_.Add("graph.decompose", t, NowNs(), lists_span);
  t = NowNs();
  const std::vector<Priority> projected =
      prefrep::ProjectPriorities(decomposition, priority);
  tracer_.Add("priority.project", t, NowNs(), lists_span);
  if (projected.size() != decomposition.components().size()) {
    Fail("mirrored projection");
  }
}

// ---------------------------------------------------------------------------
// Set-up.

std::vector<Priority> BuildPriorities(
    Tracer& tracer, const Snapshot& snap,
    const std::vector<std::vector<int64_t>>& ranks, Samples* arcs,
    Samples* mb) {
  std::vector<Priority> out;
  for (const std::vector<int64_t>& rank : ranks) {
    const double rss0 = CurrentRssMb();
    {
      SpanScope span(tracer, "priority.build");
      out.push_back(Priority::FromRanking(snap.graph(), rank));
    }
    if (tracer.enabled()) {
      mb->Add(std::max(0.0, CurrentRssMb() - rss0));
      arcs->Add(out.back().arc_count());
    }
  }
  return out;
}

void Bench::Setup(const Instance& base,
                  const std::vector<std::vector<int64_t>>& ranks) {
  Version v;
  const int64_t t0 = NowNs();
  {
    SpanScope setup(tracer_, "setup");
    Database db;
    std::vector<prefrep::FunctionalDependency> fds;
    {
      SpanScope load(tracer_, "relational.load");
      for (int r = 0; r < base.relations; ++r) {
        prefrep::Schema schema(
            RelName(r), {{"K", prefrep::ValueType::kName},
                         {"V", prefrep::ValueType::kNumber},
                         {"W", prefrep::ValueType::kNumber}});
        if (!db.AddRelation(schema).ok()) Fail("AddRelation");
        auto fd = prefrep::FunctionalDependency::Parse(schema, "K -> V");
        if (!fd.ok()) Fail("FD");
        fds.push_back(*fd);
      }
      for (const Row& row : base.rows) {
        if (!db.Insert(RelName(row.rel), TupleOf(row),
                       prefrep::TupleMeta{0, row.ts})
                 .ok()) {
          Fail("Insert");
        }
      }
    }
    const int create = tracer_.Begin("server.snapshot_create");
    auto snap = Snapshot::Create(std::move(db), fds);
    tracer_.End(create);
    if (!snap.ok()) {
      Fail("Snapshot::Create: " + snap.status().ToString());
      return;
    }
    v.snapshot = *snap;
    if (tracer_.enabled()) {
      const int64_t m0 = NowNs();
      auto problem =
          prefrep::RepairProblem::Create(&v.snapshot->db(), v.snapshot->fds());
      tracer_.Add("repair.problem_create", m0, NowNs(), create);
      if (!problem.ok()) Fail("mirrored RepairProblem::Create");
    }
    v.priorities = BuildPriorities(tracer_, *v.snapshot, ranks,
                                   &priority_arcs_, &priority_mb_);
    v.empty = Priority::Empty(v.snapshot->graph());
    v.session = std::make_unique<Session>(v.snapshot);
    v.model = base;
    v.ranks = ranks;
    WarmUp(v);
  }
  setup_s_.Add(static_cast<double>(NowNs() - t0) / 1e9);
  Retire(std::move(base_.session));
  base_ = std::move(v);
}

void Bench::WarmUp(Version& v) {
  const Oracle& ts_oracle = *base_oracles_[0];
  // Queries on an untouched relation that the update batches leave intact.
  Execute(v, ts_oracle, intact_);
  if (!catalogue_.empty()) {
    for (const Request& r : catalogue_) {
      Execute(v, *base_oracles_[std::max(0, r.priority)], r);
    }
  } else {
    // Touch every request path so the measured phase starts warm; every
    // set-up warms with the same requests.
    BenchRng warm_rng(seed_ * 1000003 + 41);
    for (int i = 0; i < 2; ++i) {
      for (const Request& r : AdhocRequest(warm_rng, v.model)) {
        Execute(v, *base_oracles_[std::max(0, r.priority)], r);
      }
    }
  }
}

std::vector<Request> Bench::FillRequests(size_t count) {
  if (!catalogue_.empty()) return catalogue_;
  std::vector<Request> out;
  BenchRng fill_rng(seed_ * 1000003 + 53);
  while (out.size() < count) {
    for (const Request& r : AdhocRequest(fill_rng, base_.model)) {
      if (out.size() < count) out.push_back(r);
    }
  }
  return out;
}

void Bench::MeasureResultCache() {
  // A fresh session on the base snapshot serves the catalogue (serve_hot)
  // or ad-hoc rounds until its result cache is full, untraced, so that no
  // span is allocated meanwhile. Heap in use, not resident memory: the heap
  // reuses what the run has freed, so resident memory barely grows.
  // The requests are drawn before the first reading and only counted
  // during the fill, so that they add nothing to the heap in between.
  const uint64_t entries = prefrep::SessionOptions{}.max_cache_entries;
  const std::vector<Request> requests = FillRequests(2 * entries);
  std::unique_ptr<Session> warm = std::move(base_.session);
  base_.session = std::make_unique<Session>(base_.snapshot);
  tracer_.set_enabled(false);
  size_t used = 0;
  const double heap0 = HeapInUseMb();
  while (used < requests.size() &&
         base_.session->cache_stats().result_misses < entries && correct_) {
    const Request& r = requests[used++];
    Execute(base_, *base_oracles_[std::max(0, r.priority)], r);
  }
  const double cached_mb = HeapInUseMb() - heap0;
  result_cache_entries_ = base_.session->cache_stats().result_misses;
  tracer_.set_enabled(true);
  Retire(std::move(base_.session));
  base_.session = std::move(warm);

  // The session also kept one compiled master per query text. Compiling
  // each of those texts once more, and keeping the results, measures them;
  // what remains of the growth is the result cache (and the small plans).
  std::vector<std::pair<std::string, bool>> texts;  // (text, is SQL)
  for (size_t i = 0; i < used; ++i) {
    const Request& r = requests[i];
    if (r.kind != Kind::kAggregate) {
      texts.emplace_back(r.text, r.kind == Kind::kOpen);
    }
  }
  std::sort(texts.begin(), texts.end());
  texts.erase(std::unique(texts.begin(), texts.end()), texts.end());
  std::vector<prefrep::PreparedQuery> masters;
  masters.reserve(texts.size());
  const double heap1 = HeapInUseMb();
  for (const auto& [text, sql] : texts) {
    auto parsed = sql ? prefrep::ParseSql(base_.snapshot->db(), text)
                      : prefrep::ParseQuery(text);
    if (!parsed.ok()) return Fail("parse " + text);
    auto compiled =
        prefrep::PreparedQuery::Compile(base_.snapshot->db(), **parsed);
    if (!compiled.ok()) return Fail("compile " + text);
    masters.push_back(std::move(*compiled));
  }
  prepared_cache_mb_ = HeapInUseMb() - heap1;
  result_cache_mb_ = cached_mb - prepared_cache_mb_;
}

void Bench::BuildCatalogue(const Instance& model) {
  intact_ = RandomAtomRequest(read_rng_, model, Family::kRep, -1, 0, 0);
  intact_.shape = Shape::kAtom;
  intact_.Finish();
  if (config_.catalogue == 0) return;
  class_names_ = {"rep-empty hit", "pref hit", "sql pref hit"};
  // Class by catalogue position, so every seed gets the same class shares
  // under the Zipf skew (item i has weight 1/(i+1)).
  const Family prefs[] = {Family::kSRep, Family::kGRep, Family::kCRep};
  double total = 0;
  for (int i = 0; i < config_.catalogue; ++i) {
    const int rel = i % config_.shape.relations;
    const Family family = prefs[(i / 4) % 3];
    const int priority = (i / 12) % config_.ranking_priorities;
    Request r;
    if (i % 5 == 4) {
      r = RandomAtomRequest(read_rng_, model, Family::kRep, -1, rel, 0);
    } else if (i % 20 == 7) {
      r.kind = Kind::kOpen;
      r.family = family;
      r.priority = priority;
      r.cls = 2;
      r.rel = rel;
      r.k = static_cast<int>(
          read_rng_.Below(config_.shape.groups_per_relation));
      r.Finish();
    } else {
      r = RandomAtomRequest(read_rng_, model, family, priority, rel, 1);
    }
    catalogue_.push_back(r);
    total += 1.0 / (i + 1);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
}

std::vector<Request> Bench::AdhocRequest(BenchRng& rng,
                                         const Instance& model) {
  // One round of 20 requests in fixed class shares, shuffled. Rep ground
  // requests are the cheapest class and hold 60%, so the median falls well
  // inside it; the tier-2 classes hold the top 30%, where the p90 falls.
  const Family prefs[] = {Family::kSRep, Family::kGRep, Family::kCRep};
  const int relations = config_.shape.relations;
  auto rel = [&] { return static_cast<int>(rng.Below(relations)); };
  auto priority = [&] {
    return static_cast<int>(rng.Below(config_.ranking_priorities));
  };
  auto pref = [&] { return prefs[rng.Below(3)]; };
  std::vector<Request> out;
  for (int i = 0; i < 12; ++i) {
    // Two atoms, so the request space dwarfs the caches.
    Request r = RandomAtomRequest(rng, model, Family::kRep, -1, rel(), 0);
    r.shape = rng.Chance(0.5) ? Shape::kAnd : Shape::kOr;
    out.push_back(r.Finish());
  }
  for (int i = 0; i < 3; ++i) {
    out.push_back(RandomAtomRequest(rng, model, pref(), priority(), rel(), 4));
  }
  for (int i = 0; i < 3; ++i) {
    Request sql;
    sql.kind = Kind::kOpen;
    sql.star = i == 0;
    sql.cls = sql.star ? 1 : 5;
    sql.family = sql.star ? Family::kRep : pref();
    sql.priority = sql.star ? -1 : priority();
    sql.rel = rel();
    sql.k = static_cast<int>(rng.Below(config_.shape.groups_per_relation));
    out.push_back(sql.Finish());
  }
  for (int i = 0; i < 2; ++i) {
    Request agg;
    agg.kind = Kind::kAggregate;
    agg.cls = i == 0 ? 2 : 3;
    agg.family = i == 0 ? Family::kRep : pref();
    agg.priority = i == 0 ? -1 : priority();
    agg.sum = i == 1 && rng.Chance(0.5);
    agg.rel = rel();
    out.push_back(agg.Finish());
  }
  rng.Shuffle(out);
  return out;
}

// ---------------------------------------------------------------------------
// Measured phases.

void Bench::ReadSlice(int64_t until_ns) {
  const int64_t start = NowNs();
  speed_.Read(true);
  while (NowNs() < until_ns) {
    speed_.MaybeRead(true);
    const Request* r = nullptr;
    if (!catalogue_.empty()) {
      const double u = read_rng_.Unit();
      const size_t i = static_cast<size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
          zipf_cdf_.begin());
      r = &catalogue_[std::min(i, catalogue_.size() - 1)];
    } else {
      if (pending_.empty()) {
        pending_ = AdhocRequest(read_rng_, base_.model);
        std::reverse(pending_.begin(), pending_.end());
      }
      r = &pending_.back();
    }
    const Oracle& oracle = *base_oracles_[std::max(0, r->priority)];
    const std::optional<double> us = Execute(base_, oracle, *r);
    if (us.has_value()) {
      query_us_.Add(*us, speed_.interval(), r->cls);
      ++queries_done_;
    }
    if (catalogue_.empty()) pending_.pop_back();
  }
  query_phase_s_ += static_cast<double>(NowNs() - start) / 1e9;
}

void Bench::RunBatch() {
  const int rel = config_.update_relation;
  const std::string rel_name = RelName(rel);
  const bool counts_queries = config_.read_slice_ms == 0;
  // A chain of batches from the base version; chain_prev_ is the version
  // the next batch derives from (the base when null).
  if (chain_batch_ == kChainLength) {
    if (chain_prev_ != nullptr) Retire(std::move(chain_prev_->session));
    chain_prev_.reset();
    chain_fresh_row_.reset();
    chain_batch_ = 0;
  }
  const int batch = chain_batch_++;
  const Version& parent = chain_prev_ != nullptr ? *chain_prev_ : base_;
  auto cur = std::make_unique<Version>();
  cur->model = parent.model;
  // The batch: two V replacements in `rel`; every eighth batch also
  // inserts a fact with a W value new to the database and deletes the
  // previous such fact.
  std::vector<Row> deleted;
  std::vector<Row> inserted;
  while (deleted.size() < 2) {
    const Row& row = cur->model.rows[static_cast<size_t>(
        update_rng_.Below(static_cast<int64_t>(cur->model.rows.size())))];
    if (row.rel != rel || row.w >= 1000) continue;
    if (!deleted.empty() && SameFact(deleted[0], row)) continue;
    deleted.push_back(row);
    Row next = row;
    next.v = (row.v + 1 + update_rng_.Below(3)) % 4;
    next.ts = cur->model.next_ts++;
    inserted.push_back(next);
  }
  if (batch % 8 == 7) {
    if (chain_fresh_row_.has_value()) deleted.push_back(*chain_fresh_row_);
    const int k =
        static_cast<int>(update_rng_.Below(config_.shape.groups_per_relation));
    const Row fresh{rel, k, update_rng_.Below(4), 1000 + fresh_values_++,
                    cur->model.next_ts++};
    inserted.push_back(fresh);
    chain_fresh_row_ = fresh;
  }

  // A reading of its own, so that no interval holds both reads and a batch.
  speed_.Read(counts_queries);
  ++attempted_;
  tracer_.SetOp(++op_id_);
  const int64_t t0 = NowNs();
  const int batch_span = tracer_.Begin("batch");
  DatabaseDelta delta(&parent.snapshot->db());
  bool staged = true;
  {
    SpanScope stage(tracer_, "relational.delta_stage");
    for (const Row& row : deleted) {
      staged = staged && delta.Delete(rel_name, TupleOf(row)).ok();
    }
    for (const Row& row : inserted) {
      staged = staged && delta.Insert(rel_name, TupleOf(row),
                                      prefrep::TupleMeta{0, row.ts})
                             .ok();
    }
  }
  const int derive_span = tracer_.Begin("server.derive");
  auto derived = Snapshot::Derive(parent.snapshot, delta);
  tracer_.End(derive_span);
  if (!staged || !derived.ok()) {
    tracer_.End(batch_span);
    Fail("update batch: " + (derived.ok() ? std::string("staging")
                                          : derived.status().ToString()));
    ++failed_;
    chain_batch_ = kChainLength;  // restart from the base
    return;
  }
  cur->snapshot = *derived;
  {
    SpanScope seed(tracer_, "server.session_seed");
    cur->session = std::make_unique<Session>(cur->snapshot, *parent.session);
  }
  const int64_t t1 = NowNs();
  // The new version's priority, from the stored timestamps.
  std::vector<int64_t> ranks(
      static_cast<size_t>(cur->snapshot->db().tuple_count()));
  for (size_t id = 0; id < ranks.size(); ++id) {
    ranks[id] = cur->snapshot->db().MetaOf(static_cast<int>(id)).timestamp;
  }
  cur->priorities = BuildPriorities(tracer_, *cur->snapshot, {ranks},
                                    &priority_arcs_, &priority_mb_);
  const int64_t t2 = NowNs();
  tracer_.End(batch_span);
  cur->empty = Priority::Empty(cur->snapshot->graph());

  if (tracer_.enabled()) {
    // Layers Derive reaches internally, called beside it.
    prefrep::DeltaRemap remap;
    int64_t m = NowNs();
    auto new_db = delta.Apply(&remap);
    tracer_.Add("relational.delta_apply", m, NowNs(), derive_span);
    m = NowNs();
    prefrep::ValueCensus census = parent.snapshot->census();
    census.Apply(delta);
    tracer_.Add("relational.census", m, NowNs(), derive_span);
    if (new_db.ok()) {
      std::vector<std::pair<prefrep::TupleId, prefrep::TupleId>> edges;
      m = NowNs();
      auto index = prefrep::FdConflictIndex::Derive(
          parent.snapshot->conflict_index(), parent.snapshot->fds(), delta,
          *new_db, remap, &edges);
      tracer_.Add("constraints.index_derive", m, NowNs(), derive_span);
      if (!index.ok()) Fail("mirrored FdConflictIndex::Derive");
      fresh_edges_.Add(static_cast<double>(edges.size()));
    } else {
      Fail("mirrored DatabaseDelta::Apply");
    }
    const prefrep::ConflictGraph& g = cur->snapshot->graph();
    const prefrep::ConflictGraph& pg = parent.snapshot->graph();
    for (int u = 0; u < std::min(g.vertex_count(), pg.vertex_count()); ++u) {
      adjacency_shared_ += g.SharesAdjacencyWith(pg, u) ? 1 : 0;
    }
    adjacency_total_ += g.vertex_count();
    components_rebuilt_.Add(cur->snapshot->delta_info()->rebuilt_components);
  }

  // The client's own copy of the rows follows the batch; the derived
  // snapshot's conflict graph must match it.
  cur->model.Apply(deleted, inserted);
  cur->ranks.assign(1, {});
  for (const Row& row : cur->model.rows) cur->ranks[0].push_back(row.ts);
  const Oracle oracle(cur->model, cur->ranks[0]);
  const GraphCounts expected = oracle.Counts();
  const GraphCounts got{
      cur->snapshot->graph().edge_count(),
      static_cast<int64_t>(cur->snapshot->decomposition().components().size()),
      cur->snapshot->decomposition().isolated().Count()};
  if (!(expected == got) || cur->snapshot->db().tuple_count() !=
                                static_cast<int>(cur->model.rows.size())) {
    Fail("derived snapshot counts: " + cur->snapshot->Describe());
  }

  // The fresh answer: a preference query on the updated relation.
  Request fresh;
  fresh.family = Family::kCRep;
  fresh.priority = 0;
  fresh.a = Atom{rel, inserted[0].k, inserted[0].v, inserted[0].w};
  fresh.Finish();
  const std::optional<double> fresh_us = Execute(*cur, oracle, fresh);
  if (fresh_us.has_value()) {
    update_ms_.Add(static_cast<double>(t1 - t0) / 1e6, speed_.interval());
    fresh_ms_.Add(static_cast<double>(t2 - t0) / 1e6 + *fresh_us / 1e3,
                  speed_.interval());
    if (counts_queries) ++queries_done_;
  }
  if (counts_queries) {
    for (const Request& r : FollowUps(cur->model, inserted)) {
      speed_.MaybeRead(true);
      const std::optional<double> us = Execute(*cur, oracle, r);
      if (us.has_value()) {
        query_us_.Add(*us, speed_.interval(), r.cls);
        ++queries_done_;
      }
    }
  } else {
    // The read workloads take their query metrics from the read slices, so
    // their batches skip the follow-ups but one COUNT, which keeps the
    // aggregation layer on every workload's path.
    Execute(*cur, oracle, RepCount(rel, 0));
  }
  if (chain_prev_ != nullptr) Retire(std::move(chain_prev_->session));
  chain_prev_ = std::move(cur);
}

std::vector<Request> Bench::FollowUps(const Instance& model,
                                      const std::vector<Row>& inserted) {
  // Twelve requests: one on a relation the batch left intact (a seeded
  // cache hit unless the batch changed the active domain); six Rep ground
  // queries the planner sends to tier 1, where the median falls; one Rep
  // SQL query and one COUNT range (tier 1); and three preference requests
  // on footprints the batch invalidated (tier 2), where the p90 falls.
  const int rel = config_.update_relation;
  const int relations = config_.shape.relations;
  const Family prefs[] = {Family::kSRep, Family::kGRep, Family::kCRep};
  std::vector<Request> out = {intact_};
  for (int i = 0; i < 6; ++i) {
    out.push_back(RandomAtomRequest(update_rng_, model, Family::kRep, -1,
                                    (rel + i) % relations, 1));
  }
  Request sql;
  sql.kind = Kind::kOpen;
  sql.star = true;
  sql.cls = 2;
  sql.rel = rel;
  sql.k = inserted[0].k;
  out.push_back(sql.Finish());
  out.push_back(RepCount(rel, 3));
  for (int i = 0; i < 3; ++i) {
    Request r = RandomAtomRequest(update_rng_, model, prefs[i], 0,
                                  (rel + i) % relations, 4);
    if (i == 0) {
      r.shape = Shape::kAtom;
      r.a = Atom{rel, inserted[1].k, inserted[1].v, inserted[1].w};
      r.Finish();
    }
    out.push_back(r);
  }
  return out;
}

int Bench::Run(const std::string& trace_out) {
  // Rows and rankings depend only on the seed.
  BenchRng data_rng(seed_);
  const Instance base = Instance::Generate(config_.shape, data_rng);
  std::vector<std::vector<int64_t>> ranks;
  for (int p = 0; p < config_.ranking_priorities; ++p) {
    std::vector<int64_t> rank(base.rows.size());
    for (size_t i = 0; i < rank.size(); ++i) {
      rank[i] = p == 0 ? base.rows[i].ts : static_cast<int64_t>(i);
    }
    if (p > 0) data_rng.Shuffle(rank);
    ranks.push_back(std::move(rank));
  }
  if (config_.read_slice_ms == 0) {
    class_names_ = {"intact", "rep ground t1", "sql rep t1", "count rep t1",
                    "pref t2"};
  } else if (config_.catalogue == 0) {
    class_names_ = {"rep ground t1", "sql rep t1", "count rep t1",
                    "agg pref t2",   "pref ground t2", "sql pref t2"};
  }
  // The oracles read `base`, which outlives every phase.
  for (size_t p = 0; p < ranks.size(); ++p) {
    base_oracles_.push_back(std::make_unique<Oracle>(base, ranks[p]));
  }
  BuildCatalogue(base);
  double setup_total = 0;
  for (int i = 0;
       (i < kSetupRepeats || setup_total < kSetupSeconds) && correct_; ++i) {
    Setup(base, ranks);
    if (!correct_) break;
    setup_total += setup_s_.values.back();
  }

  // The measured phase: read slices with one update batch after each, or
  // update batches alone. A wrong answer in set-up skips it.
  const int64_t start = NowNs();
  const int64_t end =
      start + (correct_ ? static_cast<int64_t>(seconds_ * 1e9) : 0);
  while (NowNs() < end) {
    if (config_.read_slice_ms > 0) {
      ReadSlice(std::min(end, NowNs() + config_.read_slice_ms * 1000000));
    }
    if (NowNs() < end) RunBatch();
  }
  speed_.Read(false);  // closes the last interval
  speed_.Finish();
  if (config_.read_slice_ms == 0) {
    query_phase_s_ = static_cast<double>(NowNs() - start) / 1e9;
  }
  if (chain_prev_ != nullptr) Retire(std::move(chain_prev_->session));
  // After the measured phase, so that the fill's heap traffic cannot touch
  // a timed span.
  if (tracer_.enabled() && correct_) MeasureResultCache();
  Retire(std::move(base_.session));

  // The reported samples: those from the intervals that count.
  const Timed query = query_us_.Counted(speed_);
  const Timed update = update_ms_.Counted(speed_);
  const Timed fresh = fresh_ms_.Counted(speed_);
  std::map<int, Samples> class_us;
  for (size_t i = 0; i < query.values.size(); ++i) {
    class_us[query.cls[i]].Add(query.values[i]);
  }
  for (const auto& [cls, samples] : class_us) {
    std::fprintf(stderr,
                 "class %-14s n=%-7zu share=%.3f p50=%.1fus p90=%.1fus "
                 "hits=%lld\n",
                 cls < static_cast<int>(class_names_.size())
                     ? class_names_[cls].c_str()
                     : "?",
                 samples.values.size(),
                 Ratio(static_cast<double>(samples.values.size()),
                       static_cast<double>(query.values.size())),
                 samples.P(0.5), samples.P(0.9),
                 static_cast<long long>(class_hits_[cls]));
  }
  for (const auto& [cls, samples] : class_us) {
    std::fprintf(stderr, "  deciles:");
    for (int q = 1; q < 10; ++q) {
      std::fprintf(stderr, " %.0f", samples.P(q / 10.0));
    }
    std::fprintf(stderr, "  (%s)\n", class_names_[cls].c_str());
  }
  // The class of the request at each reported rank.
  std::vector<std::pair<double, int>> ranked;
  for (size_t i = 0; i < query.values.size(); ++i) {
    ranked.emplace_back(query.values[i], query.cls[i]);
  }
  std::sort(ranked.begin(), ranked.end());
  for (double q : {0.5, 0.9}) {
    if (ranked.empty()) break;
    const int cls = ranked[static_cast<size_t>(q * (ranked.size() - 1))].second;
    std::fprintf(stderr, "query p%.0f falls in class %s\n", q * 100,
                 class_names_[cls].c_str());
  }
  std::string setups;
  for (double v : setup_s_.values) setups += " " + std::to_string(v);
  std::fprintf(stderr,
               "queries=%zu (%zu counted) batches=%zu (%zu counted) "
               "setups_s=[%s ] phase=%.2fs\n",
               query_us_.values.size(), query.values.size(),
               update_ms_.values.size(), update.values.size(), setups.c_str(),
               query_phase_s_);
  std::fprintf(stderr,
               "speed: slowed intervals %.1f%% of the measured phase, %s; "
               "%lld readings, fastest %.4f ms\n",
               100 * speed_.slowed_share(),
               speed_.slowed_only() ? "they count" : "every interval counts",
               static_cast<long long>(speed_.readings()), speed_.fastest_ms());
  if (tracer_.enabled()) {
    std::fprintf(stderr,
                 "result cache: %llu entries, %.3f MB; prepared masters "
                 "%.3f MB\n",
                 static_cast<unsigned long long>(result_cache_entries_),
                 result_cache_mb_, prepared_cache_mb_);
  }

  using Metric = std::tuple<std::string, double, const char*>;
  const auto end_to_end_of = [&](const Timed& q, const Timed& u,
                                 const Timed& f, double qps) {
    return std::vector<Metric>{
        {"setup_s", setup_s_.P(0.5), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"query_p50_us", q.P(0.5), "us"},
        {"query_p90_us", q.P(0.9), "us"},
        {"query_qps", qps, "1/s"},
        {"update_p50_ms", u.P(0.5), "ms"},
        {"update_p90_ms", u.P(0.9), "ms"},
        {"fresh_answer_p50_ms", f.P(0.5), "ms"},
        {"fresh_answer_p90_ms", f.P(0.9), "ms"},
    };
  };
  // update_stream counts its fresh answers among the requests.
  const bool reads_only = config_.read_slice_ms > 0;
  const double counted_queries = static_cast<double>(
      query.values.size() + (reads_only ? 0 : fresh.values.size()));
  const std::vector<Metric> end_to_end = end_to_end_of(
      query, update, fresh,
      Ratio(counted_queries, speed_.CountedSeconds(reads_only)));
  std::fprintf(stderr, "end_to_end over the whole run: %s\n",
               MetricsJson(end_to_end_of(query_us_, update_ms_, fresh_ms_,
                                         Ratio(static_cast<double>(
                                                   queries_done_),
                                               query_phase_s_)))
                   .c_str());
  std::vector<Metric> metrics;
  if (!tracer_.enabled()) {
    metrics = end_to_end;
  } else {
    const std::vector<int64_t> self = tracer_.SelfTimes();
    const auto p50 = [&](const char* name) {
      return tracer_.DurationP50Us(name);
    };
    std::vector<double> miss_self;
    for (int span : ask_miss_spans_) miss_self.push_back(self[span] / 1e3);
    const CacheTotals& c = caches_;
    metrics = {
        {"query.parse_us", p50("query.parse"), "us"},
        {"sql.parse_us", p50("sql.parse"), "us"},
        {"query.compile_us", p50("query.compile"), "us"},
        {"query.compiles_per_request",
         Ratio(static_cast<double>(c.prepared_misses),
               static_cast<double>(requests_)),
         "ratio"},
        {"cqa.plan_us", p50("cqa.plan"), "us"},
        {"cqa.tier1_us", p50("cqa.tier1"), "us"},
        {"cqa.tier2_us", p50("cqa.tier2"), "us"},
        {"cqa.aggregate_us", p50("cqa.aggregate"), "us"},
        {"cqa.tier2_share",
         Ratio(static_cast<double>(executed_tier2_),
               static_cast<double>(executed_)),
         "ratio"},
        {"cqa.repairs_examined", repairs_examined_.Mean(), "count"},
        {"core.family_lists_us", p50("core.family_lists"), "us"},
        {"core.components_materialized", components_materialized_.Mean(),
         "count"},
        {"core.relevant_component_ratio",
         Ratio(relevant_components_, materialized_components_), "ratio"},
        {"graph.decompose_us", p50("graph.decompose"), "us"},
        {"graph.adjacency_shared_ratio",
         Ratio(adjacency_shared_, adjacency_total_), "ratio"},
        {"graph.components_rebuilt", components_rebuilt_.Mean(), "count"},
        {"priority.build_ms", p50("priority.build") / 1e3, "ms"},
        {"priority.arcs", priority_arcs_.Mean(), "count"},
        {"priority.mb", priority_mb_.P(1.0), "MB"},
        {"priority.project_us", p50("priority.project"), "us"},
        {"relational.delta_stage_us", p50("relational.delta_stage"), "us"},
        {"relational.delta_apply_us", p50("relational.delta_apply"), "us"},
        {"relational.census_us", p50("relational.census"), "us"},
        {"constraints.index_derive_us", p50("constraints.index_derive"),
         "us"},
        {"constraints.fresh_edges", fresh_edges_.Mean(), "count"},
        {"repair.problem_create_ms", p50("repair.problem_create") / 1e3,
         "ms"},
        {"server.snapshot_create_ms", p50("server.snapshot_create") / 1e3,
         "ms"},
        {"server.derive_us", p50("server.derive"), "us"},
        {"server.derive_self_us", tracer_.SelfP50Us("server.derive"), "us"},
        {"server.session_seed_us", p50("server.session_seed"), "us"},
        {"server.seed_survival_ratio",
         Ratio(static_cast<double>(c.seeded_results),
               static_cast<double>(c.seeded_results + c.seed_dropped)),
         "ratio"},
        {"server.ask_hit_us", ask_hit_us_.P(0.5), "us"},
        {"server.ask_miss_self_us", Quantile(miss_self, 0.5), "us"},
        {"server.result_hit_ratio",
         Ratio(static_cast<double>(c.result_hits),
               static_cast<double>(c.result_hits + c.result_misses)),
         "ratio"},
        {"server.prepared_hit_ratio",
         Ratio(static_cast<double>(c.prepared_hits),
               static_cast<double>(c.prepared_hits + c.prepared_misses)),
         "ratio"},
        {"server.plan_hit_ratio",
         Ratio(static_cast<double>(c.plan_hits),
               static_cast<double>(c.plan_hits + c.plan_misses)),
         "ratio"},
        {"server.result_cache_mb", result_cache_mb_, "MB"},
        {"server.prepared_cache_mb", prepared_cache_mb_, "MB"},
    };
  }

  // The end-to-end figures of this run go to standard error in both modes,
  // so the traced run's overhead on them can be read off.
  std::fprintf(stderr, "end_to_end%s: %s\n",
               tracer_.enabled() ? " (traced)" : "",
               MetricsJson(end_to_end).c_str());
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": " + MetricsJson(metrics) + "}";
  if (tracer_.enabled() && !trace_out.empty() && !tracer_.Write(trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
  }
  std::printf("%s\n", json.c_str());
  return correct_ ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  std::optional<uint64_t> seed;
  std::optional<double> seconds;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!seed.has_value() || !seconds.has_value()) {
    std::fprintf(stderr, "perfbench: --seed and --seconds are required\n");
    return 2;
  }
  for (const perfbench::WorkloadConfig& config : perfbench::kWorkloads) {
    if (workload == config.name) {
      perfbench::Bench bench(config, *seed, *seconds, trace);
      return bench.Run(trace_out);
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", workload.c_str());
  return 2;
}
