// query_shell: an interactive shell over the resident server facade
// (server/session.h). Data definition (relation/insert/load/fd) stages a
// working database; the first query builds an immutable Snapshot and a
// Session over it, and every later query goes through the session's
// result cache — repeat a query to watch the cache column flip from miss
// to hit.
//
// Updates after that first snapshot take the incremental path: 'insert'
// and 'delete' stage into a DatabaseDelta against the current snapshot,
// and 'apply' runs Snapshot::Derive — the successor snapshot shares
// untouched relations and clean components with its parent, and the new
// session seeds its result cache from the old one ('cache' shows what
// survived). Schema-level DDL (relation/fd/load) still marks the staging
// area dirty and rebuilds from scratch on the next query (the server's
// invalidation contract: a cache never goes stale because snapshots
// never change).
//
// Commands are listed by 'help' (generated from the command registry
// below). Ctrl-C cancels the query in flight (cooperatively, via the
// query's ExecutionContext) instead of killing the shell.
//
// Example session:
//   relation Mgr Name:name Dept:name Salary:number Reports:number
//   insert Mgr Mary,R&D,40000,3,@1,@-1
//   ...
//   fd Mgr Dept -> Name Salary Reports
//   ask exists x,y,z . Mgr(Mary,x,y,z)

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "base/exec_context.h"
#include "base/strings.h"
#include "cleaning/cleaning.h"
#include "graph/dot.h"
#include "query/parser.h"
#include "relational/csv.h"
#include "relational/delta.h"
#include "repair/metrics.h"
#include "server/session.h"
#include "sql/sql.h"

using namespace prefrep;

namespace {

// The context of the query currently executing, if any. The SIGINT
// handler may only touch this pointer and call RequestCancel() through
// it — both are lock-free atomics, so the handler is async-signal-safe.
std::atomic<ExecutionContext*> g_active_context{nullptr};

void HandleSigint(int) {
  ExecutionContext* context = g_active_context.load(std::memory_order_acquire);
  if (context != nullptr) {
    context->RequestCancel();
    return;
  }
  // No query in flight: stay alive and nudge (write() is signal-safe).
  constexpr char kMsg[] = "\n(interrupt; type 'quit' to exit)\n> ";
  [[maybe_unused]] ssize_t n = write(STDOUT_FILENO, kMsg, sizeof(kMsg) - 1);
}

void InstallSigintHandler() {
  struct sigaction action = {};
  action.sa_handler = HandleSigint;
  sigemptyset(&action.sa_mask);
  // SA_RESTART keeps the prompt's blocking getline() from failing when a
  // stray Ctrl-C arrives between queries.
  action.sa_flags = SA_RESTART;
  sigaction(SIGINT, &action, nullptr);
}

// Publishes a query's context to the SIGINT handler for its duration.
class ScopedActiveContext {
 public:
  explicit ScopedActiveContext(ExecutionContext* context) {
    g_active_context.store(context, std::memory_order_release);
  }
  ~ScopedActiveContext() {
    g_active_context.store(nullptr, std::memory_order_release);
  }
  ScopedActiveContext(const ScopedActiveContext&) = delete;
  ScopedActiveContext& operator=(const ScopedActiveContext&) = delete;
};

class Timer {
 public:
  double Ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

class Shell {
 public:
  int Run();

 private:
  // One registry row per command: dispatch, usage and help text all come
  // from this table ('help' renders it, so it can never go stale).
  struct Command {
    const char* name;
    const char* usage;
    const char* help;
    Status (Shell::*handler)(const std::string& args);
  };
  static const Command kCommands[];

  Status Dispatch(const std::string& line);
  Status Help(const std::string&);

  Status DeclareRelation(const std::string& args) {
    std::istringstream in(args);
    std::string name;
    in >> name;
    std::vector<Attribute> attributes;
    std::string spec;
    while (in >> spec) {
      size_t colon = spec.find(':');
      if (colon == std::string::npos) {
        return Status::InvalidArgument("attribute spec needs name:type");
      }
      std::string type = spec.substr(colon + 1);
      if (type != "name" && type != "number") {
        return Status::InvalidArgument("type must be 'name' or 'number'");
      }
      attributes.push_back(Attribute{
          spec.substr(0, colon),
          type == "name" ? ValueType::kName : ValueType::kNumber});
    }
    PREFREP_ASSIGN_OR_RETURN(Schema schema,
                             Schema::Create(name, std::move(attributes)));
    PREFREP_RETURN_IF_ERROR(db_.AddRelation(schema));
    dirty_ = true;
    std::printf("declared %s\n", schema.ToString().c_str());
    return Status::Ok();
  }

  // Parses "<Name> v1,v2,...[,@src,@ts]" against the relation's schema.
  Status ParseTupleArgs(const std::string& args, const Database& db,
                        std::string* name, Tuple* tuple, TupleMeta* meta) {
    std::istringstream in(args);
    in >> *name;
    std::string csv;
    std::getline(in, csv);
    PREFREP_ASSIGN_OR_RETURN(const Relation* rel, db.relation(*name));
    const Schema& schema = rel->schema();

    std::vector<std::string> fields(StrSplit(StripWhitespace(csv), ','));
    // Optional trailing @source, @ts fields.
    while (!fields.empty() && !fields.back().empty() &&
           StripWhitespace(fields.back())[0] == '@') {
      std::string_view field = StripWhitespace(fields.back());
      PREFREP_ASSIGN_OR_RETURN(int64_t v, ParseInt64(field.substr(1)));
      if (meta->timestamp == TupleMeta::kNoTimestamp &&
          fields.size() == static_cast<size_t>(schema.arity()) + 2) {
        meta->timestamp = v;
      } else {
        meta->source_id = static_cast<int>(v);
      }
      fields.pop_back();
    }
    if (static_cast<int>(fields.size()) != schema.arity()) {
      return Status::InvalidArgument("expected " +
                                     std::to_string(schema.arity()) +
                                     " values");
    }
    std::vector<Value> values;
    for (int i = 0; i < schema.arity(); ++i) {
      std::string_view field = StripWhitespace(fields[i]);
      if (schema.attribute(i).type == ValueType::kNumber) {
        PREFREP_ASSIGN_OR_RETURN(int64_t v, ParseInt64(field));
        values.push_back(Value::Number(v));
      } else {
        values.push_back(Value::Name(std::string(field)));
      }
    }
    *tuple = Tuple(std::move(values));
    return Status::Ok();
  }

  // Lazily creates the pending delta against the current snapshot.
  DatabaseDelta& PendingDelta() {
    if (delta_ == nullptr) {
      delta_ = std::make_unique<DatabaseDelta>(&snapshot_->db());
    }
    return *delta_;
  }

  Status Insert(const std::string& args) {
    // Before the first snapshot (or after schema DDL) inserts stage into
    // the working database directly; afterwards they stage into the
    // pending delta for the incremental 'apply' path.
    if (dirty_ || session_ == nullptr) {
      std::string name;
      Tuple tuple;
      TupleMeta meta;
      PREFREP_RETURN_IF_ERROR(ParseTupleArgs(args, db_, &name, &tuple, &meta));
      PREFREP_ASSIGN_OR_RETURN(TupleId id,
                               db_.Insert(name, std::move(tuple), meta));
      dirty_ = true;
      std::printf("inserted tuple %d\n", id);
      return Status::Ok();
    }
    std::string name;
    Tuple tuple;
    TupleMeta meta;
    PREFREP_RETURN_IF_ERROR(
        ParseTupleArgs(args, snapshot_->db(), &name, &tuple, &meta));
    PREFREP_RETURN_IF_ERROR(
        PendingDelta().Insert(name, std::move(tuple), meta));
    std::printf("staged insert (%s; 'apply' to derive)\n",
                delta_->Describe().c_str());
    return Status::Ok();
  }

  Status Delete(const std::string& args) {
    PREFREP_RETURN_IF_ERROR(Refresh());
    std::string name;
    Tuple tuple;
    TupleMeta meta;
    PREFREP_RETURN_IF_ERROR(
        ParseTupleArgs(args, snapshot_->db(), &name, &tuple, &meta));
    // Delete resolves against the post-delta state: deleting values that
    // match a pending insert un-stages that insert instead.
    const int inserts_before = PendingDelta().insert_count();
    PREFREP_RETURN_IF_ERROR(PendingDelta().Delete(name, tuple));
    std::printf("%s (%s; 'apply' to derive)\n",
                delta_->insert_count() < inserts_before
                    ? "un-staged pending insert"
                    : "staged delete",
                delta_->Describe().c_str());
    return Status::Ok();
  }

  // Applies the pending delta through Snapshot::Derive: the successor
  // shares untouched relations and clean components with the parent, and
  // the new session seeds its result cache from the old one.
  Status Apply(const std::string&) {
    if (delta_ == nullptr || delta_->empty()) {
      return Status::InvalidArgument(
          "no staged changes ('insert'/'delete' after a query stage a "
          "delta)");
    }
    std::unique_ptr<ExecutionContext> context = MakeContext();
    ScopedActiveContext active(context.get());
    Timer timer;
    PREFREP_ASSIGN_OR_RETURN(std::shared_ptr<const Snapshot> derived,
                             Snapshot::Derive(snapshot_, *delta_,
                                              context.get()));
    auto session = std::make_unique<Session>(derived, *session_);
    snapshot_ = std::move(derived);
    session_ = std::move(session);
    db_ = snapshot_->db();  // copy-on-write: shared storage, cheap
    priority_ = std::make_unique<Priority>(Priority::Empty(snapshot_->graph()));
    delta_.reset();
    std::printf("(derived %s in %.2f ms; priority reset)\n",
                snapshot_->Describe().c_str(), timer.Ms());
    std::printf("cache: %s\n", session_->cache_stats().ToString().c_str());
    return Status::Ok();
  }

  Status Load(const std::string& args) {
    std::istringstream in(args);
    std::string name, path, mode;
    in >> name >> path >> mode;
    std::ifstream file(path);
    if (!file) return Status::NotFound("cannot open '" + path + "'");
    std::stringstream buffer;
    buffer << file.rdbuf();
    CsvOptions options;
    options.with_provenance = (mode == "withmeta");
    PREFREP_ASSIGN_OR_RETURN(int count,
                             LoadCsv(db_, name, buffer.str(), options));
    dirty_ = true;
    std::printf("loaded %d tuple(s)\n", count);
    return Status::Ok();
  }

  Status AddFd(const std::string& args) {
    std::istringstream in(args);
    std::string name;
    in >> name;
    std::string text;
    std::getline(in, text);
    PREFREP_ASSIGN_OR_RETURN(const Relation* rel, db_.relation(name));
    PREFREP_ASSIGN_OR_RETURN(
        FunctionalDependency fd,
        FunctionalDependency::Parse(rel->schema(), StripWhitespace(text)));
    fds_.push_back(fd);
    dirty_ = true;
    std::printf("added FD %s on %s\n",
                fd.ToString(rel->schema()).c_str(), name.c_str());
    return Status::Ok();
  }

  // Builds a fresh immutable Snapshot (from a copy of the staging
  // database) and a Session over it whenever DDL dirtied the staging
  // area. The old session — with its cache — is dropped; its snapshot
  // would be stale.
  Status Refresh() {
    if (!dirty_ && session_ != nullptr) return Status::Ok();
    // A staged delta borrows the OLD snapshot's database; a full rebuild
    // invalidates it.
    if (delta_ != nullptr && !delta_->empty()) {
      std::printf("(discarding unapplied %s)\n", delta_->Describe().c_str());
    }
    delta_.reset();
    PREFREP_ASSIGN_OR_RETURN(std::shared_ptr<const Snapshot> snapshot,
                             Snapshot::Create(db_, fds_));
    snapshot_ = std::move(snapshot);
    session_ = std::make_unique<Session>(snapshot_);
    priority_ = std::make_unique<Priority>(Priority::Empty(snapshot_->graph()));
    dirty_ = false;
    std::printf("(built %s; priority reset)\n",
                snapshot_->Describe().c_str());
    return Status::Ok();
  }

  Status SetPriority(const std::string& args) {
    PREFREP_RETURN_IF_ERROR(Refresh());
    std::istringstream in(args);
    std::string kind;
    in >> kind;
    if (kind == "source") {
      std::string csv;
      in >> csv;
      std::vector<int64_t> ranks;
      for (const std::string& part : StrSplit(csv, ',')) {
        PREFREP_ASSIGN_OR_RETURN(int64_t r, ParseInt64(StripWhitespace(part)));
        ranks.push_back(r);
      }
      PREFREP_ASSIGN_OR_RETURN(
          Priority p,
          PriorityFromSourceReliability(snapshot_->problem(), ranks));
      *priority_ = std::move(p);
    } else if (kind == "timestamp") {
      std::string mode;
      in >> mode;
      *priority_ =
          PriorityFromTimestamps(snapshot_->problem(), mode != "oldest");
    } else if (kind == "edge") {
      int winner = 0, loser = 0;
      if (!(in >> winner >> loser)) {
        return Status::InvalidArgument("usage: priority edge <w> <l>");
      }
      PREFREP_ASSIGN_OR_RETURN(
          Priority p, priority_->Extend(snapshot_->graph(),
                                        {{winner, loser}}));
      *priority_ = std::move(p);
    } else {
      return Status::InvalidArgument("usage: priority source|timestamp|edge");
    }
    std::printf("priority = %s\n", priority_->ToString().c_str());
    return Status::Ok();
  }

  Status SetFamily(const std::string& args) {
    if (args == "rep") {
      family_ = RepairFamily::kAll;
    } else if (args == "l") {
      family_ = RepairFamily::kLocal;
    } else if (args == "s") {
      family_ = RepairFamily::kSemiGlobal;
    } else if (args == "g") {
      family_ = RepairFamily::kGlobal;
    } else if (args == "c") {
      family_ = RepairFamily::kCommon;
    } else {
      return Status::InvalidArgument("family must be rep|l|s|g|c");
    }
    std::printf("family = %s\n",
                std::string(RepairFamilyName(family_)).c_str());
    return Status::Ok();
  }

  Status ShowConflicts(const std::string&) {
    PREFREP_RETURN_IF_ERROR(Refresh());
    for (auto [u, v] : snapshot_->graph().edges()) {
      std::printf("  %d: %s  <->  %d: %s\n", u,
                  db_.DescribeTuple(u).c_str(), v,
                  db_.DescribeTuple(v).c_str());
    }
    return Status::Ok();
  }

  Status ShowStats(const std::string&) {
    PREFREP_RETURN_IF_ERROR(Refresh());
    RepairSpaceMetrics metrics =
        ComputeRepairSpaceMetrics(snapshot_->problem(), priority_.get());
    std::printf("%s", metrics.ToString().c_str());
    return Status::Ok();
  }

  Status ShowDot(const std::string&) {
    PREFREP_RETURN_IF_ERROR(Refresh());
    std::printf("%s", ToDot(snapshot_->graph(), priority_.get(), [&](int id) {
                  return db_.TupleOf(id).ToString();
                }).c_str());
    return Status::Ok();
  }

  Status ShowRepairs(const std::string& args) {
    PREFREP_RETURN_IF_ERROR(Refresh());
    size_t limit = 20;
    if (!args.empty()) {
      PREFREP_ASSIGN_OR_RETURN(int64_t v, ParseInt64(args));
      limit = static_cast<size_t>(v);
    }
    std::unique_ptr<ExecutionContext> context = MakeContext();
    ScopedActiveContext active(context.get());
    ParallelOptions options;
    options.context = context.get();
    size_t shown = 0;
    EnumeratePreferredRepairs(snapshot_->graph(), *priority_, family_,
                              options, [&](const DynamicBitset& repair) {
                                if (context->ShouldStop()) return false;
                                std::printf("  %s\n",
                                            repair.ToString().c_str());
                                return ++shown < limit;
                              });
    if (context->interrupted()) return context->StatusWithStats();
    std::printf("(%zu %s repair(s) shown, limit %zu)\n", shown,
                std::string(RepairFamilyName(family_)).c_str(), limit);
    return Status::Ok();
  }

  Status SetTimeout(const std::string& args) {
    PREFREP_ASSIGN_OR_RETURN(int64_t ms, ParseInt64(StripWhitespace(args)));
    if (ms < 0) return Status::InvalidArgument("timeout must be >= 0 ms");
    timeout_ms_ = ms;
    if (timeout_ms_ == 0) {
      std::printf("timeout off\n");
    } else {
      std::printf("timeout = %lld ms per query\n",
                  static_cast<long long>(timeout_ms_));
    }
    return Status::Ok();
  }

  Status SetBudget(const std::string& args) {
    PREFREP_ASSIGN_OR_RETURN(int64_t mb, ParseInt64(StripWhitespace(args)));
    if (mb < 0) return Status::InvalidArgument("budget must be >= 0 MB");
    budget_mb_ = static_cast<size_t>(mb);
    if (budget_mb_ == 0) {
      std::printf("budget = default (%zu MB)\n",
                  ExecutionLimits{}.component_list_budget_bytes >> 20);
    } else {
      std::printf("budget = %zu MB of materialized repair lists\n",
                  budget_mb_);
    }
    return Status::Ok();
  }

  Status ShowDatabase(const std::string&) {
    std::printf("%s", db_.ToString().c_str());
    return Status::Ok();
  }

  Status ShowCache(const std::string&) {
    PREFREP_RETURN_IF_ERROR(Refresh());
    std::printf("%s\n", snapshot_->Describe().c_str());
    std::printf("cache: %s\n", session_->cache_stats().ToString().c_str());
    return Status::Ok();
  }

  // One fresh context per query — interrupts latch, so contexts are
  // single-use. Carries the shell's timeout/budget knobs.
  std::unique_ptr<ExecutionContext> MakeContext() const {
    ExecutionLimits limits;
    if (budget_mb_ > 0) {
      limits.component_list_budget_bytes = budget_mb_ << 20;
    }
    auto context = std::make_unique<ExecutionContext>(limits);
    if (timeout_ms_ > 0) {
      context->SetDeadlineAfter(std::chrono::milliseconds(timeout_ms_));
    }
    return context;
  }

  Status Ask(const std::string& args) {
    PREFREP_RETURN_IF_ERROR(Refresh());
    PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> query, ParseQuery(args));
    std::unique_ptr<ExecutionContext> context = MakeContext();
    ScopedActiveContext active(context.get());
    EvalOptions options;
    options.context = context.get();
    CqaPlan executed;
    bool cache_hit = false;
    Timer timer;
    PREFREP_ASSIGN_OR_RETURN(
        CqaVerdict verdict,
        session_->Ask(*query, *priority_, family_, options, &executed,
                      &cache_hit));
    std::printf("%s under %s  [%s, %.2f ms, cache %s]\n",
                std::string(CqaVerdictName(verdict)).c_str(),
                std::string(RepairFamilyName(family_)).c_str(),
                std::string(CqaTierName(executed.tier)).c_str(), timer.Ms(),
                cache_hit ? "hit" : "miss");
    return Status::Ok();
  }

  Status Answers(const std::string& args) {
    PREFREP_RETURN_IF_ERROR(Refresh());
    PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> query, ParseQuery(args));
    return RunAnswers(*query);
  }

  Status Explain(const std::string& args) {
    PREFREP_RETURN_IF_ERROR(Refresh());
    PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> query, ParseQuery(args));
    CqaRequest request = query->IsClosed() ? CqaRequest::kVerdict
                                           : CqaRequest::kOpenAnswers;
    CqaPlan plan = session_->Explain(*query, *priority_, family_, request);
    std::printf("%s\n", plan.ToString().c_str());
    if (plan.tier == CqaTier::kEnumeration) {
      std::printf("%s\n", ExplainComponentSplit(snapshot_->problem(),
                                                 *priority_, family_, *query)
                               .ToString()
                               .c_str());
    }
    return Status::Ok();
  }

  Status Sql(const std::string& args) {
    PREFREP_RETURN_IF_ERROR(Refresh());
    PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> query,
                             ParseSql(db_, args));
    return RunAnswers(*query);
  }

  // Shared by 'answers' and 'sql': certain answers through the session.
  Status RunAnswers(const Query& query) {
    std::unique_ptr<ExecutionContext> context = MakeContext();
    ScopedActiveContext active(context.get());
    EvalOptions options;
    options.context = context.get();
    CqaPlan executed;
    bool cache_hit = false;
    Timer timer;
    PREFREP_ASSIGN_OR_RETURN(
        OpenAnswer answer,
        session_->Answers(query, *priority_, family_, options, &executed,
                          &cache_hit));
    std::printf("certain answers (%s):  [%s, %.2f ms, cache %s]\n",
                StrJoin(answer.variables, ", ").c_str(),
                std::string(CqaTierName(executed.tier)).c_str(), timer.Ms(),
                cache_hit ? "hit" : "miss");
    for (const Tuple& row : answer.rows) {
      std::printf("  %s\n", row.ToString().c_str());
    }
    std::printf("(%zu row(s))\n", answer.rows.size());
    return Status::Ok();
  }

  Database db_;
  std::vector<FunctionalDependency> fds_;
  std::shared_ptr<const Snapshot> snapshot_;
  // Pending incremental changes staged against snapshot_->db(); consumed
  // by 'apply', discarded by a full rebuild.
  std::unique_ptr<DatabaseDelta> delta_;
  std::unique_ptr<Session> session_;
  std::unique_ptr<Priority> priority_;
  RepairFamily family_ = RepairFamily::kGlobal;
  bool dirty_ = true;
  int64_t timeout_ms_ = 0;  // 0 = no deadline
  size_t budget_mb_ = 0;    // 0 = ExecutionLimits default
};

const Shell::Command Shell::kCommands[] = {
    {"relation", "relation <Name> <attr:name|number> ...",
     "declare a relation", &Shell::DeclareRelation},
    {"insert", "insert <Name> v1,v2,...[,@src,@ts]",
     "insert a tuple (staged into a delta once a snapshot exists)",
     &Shell::Insert},
    {"delete", "delete <Name> v1,v2,...",
     "stage a delete into the pending delta", &Shell::Delete},
    {"apply", "apply",
     "derive the successor snapshot from the staged delta", &Shell::Apply},
    {"load", "load <Name> <csv-file> [withmeta]", "bulk load CSV",
     &Shell::Load},
    {"fd", "fd <Name> <A B -> C D>", "add a functional dependency",
     &Shell::AddFd},
    {"priority", "priority source|timestamp|edge ...",
     "set the priority (source ranks / timestamps / one edge)",
     &Shell::SetPriority},
    {"family", "family rep|l|s|g|c", "pick the repair family",
     &Shell::SetFamily},
    {"conflicts", "conflicts", "show conflict edges", &Shell::ShowConflicts},
    {"stats", "stats", "repair-space metrics", &Shell::ShowStats},
    {"dot", "dot", "conflict graph in DOT format", &Shell::ShowDot},
    {"repairs", "repairs [limit]", "list (preferred) repairs",
     &Shell::ShowRepairs},
    {"ask", "ask <first-order query>",
     "closed-query verdict (tier, time, cache hit/miss)", &Shell::Ask},
    {"answers", "answers <first-order query>", "open-query certain answers",
     &Shell::Answers},
    {"explain", "explain <first-order query>", "show the CQA planner tier",
     &Shell::Explain},
    {"sql", "sql <SELECT ...>", "SQL certain answers", &Shell::Sql},
    {"timeout", "timeout <ms>", "per-query deadline (0 = off)",
     &Shell::SetTimeout},
    {"budget", "budget <mb>", "repair-list byte budget (0 = default)",
     &Shell::SetBudget},
    {"show", "show", "dump the database", &Shell::ShowDatabase},
    {"cache", "cache", "session cache statistics", &Shell::ShowCache},
    {"help", "help", "this list", &Shell::Help},
};

Status Shell::Dispatch(const std::string& line) {
  std::istringstream in(line);
  std::string command;
  in >> command;
  std::string rest;
  std::getline(in, rest);
  std::string args(StripWhitespace(rest));
  for (const Command& entry : kCommands) {
    if (command == entry.name) return (this->*entry.handler)(args);
  }
  return Status::InvalidArgument("unknown command '" + command +
                                 "' (try 'help')");
}

Status Shell::Help(const std::string&) {
  for (const Command& entry : kCommands) {
    std::printf("%-38s %s\n", entry.usage, entry.help);
  }
  std::printf("%-38s %s\n", "quit",
              "exit (Ctrl-C cancels a running query)");
  return Status::Ok();
}

int Shell::Run() {
  std::string line;
  std::printf("prefrep shell — type 'help' for commands\n");
  while (true) {
    std::printf("> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string_view trimmed = StripWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (trimmed == "quit" || trimmed == "exit") break;
    Status status = Dispatch(std::string(trimmed));
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
    }
  }
  return 0;
}

}  // namespace

int main() {
  InstallSigintHandler();
  return Shell().Run();
}
