// precis_perfbench: one workload of the précis benchmark per process.
//
//   precis_perfbench --workload serve_zipf|precis_cold|sharded_cold|churn
//                    --seed N --seconds S --trace 0|1 [--setup-only]
//                    [--out-dir DIR]
//
// Builds the 34,000-movie dataset and the workload's serving stack, runs
// whole rounds of the workload's fixed operation list for S seconds, checks
// the outputs independently, and prints one JSON result line last on
// stdout. --trace 1 replays the list with spans around each public layer
// call and prints the per-layer metrics instead; --setup-only builds the
// stack and prints only its set-up time. perfbench/run.py wraps this binary
// (build, set-up repeats) and is the command to run.

#include <sched.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/checks.h"
#include "bench/inputs.h"
#include "bench/trace.h"
#include "bench/util.h"
#include "common/task_pool.h"
#include "datagen/movies_dataset.h"
#include "datagen/movies_templates.h"
#include "precis/constraints.h"
#include "precis/engine.h"
#include "precis/json_export.h"
#include "server/http.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/request_parse.h"
#include "service/precis_service.h"
#include "shard/sharded_engine.h"
#include "translator/translator.h"

namespace perfbench {
namespace {

using precis::Result;
using precis::Status;

// ---------------------------------------------------------------------------
// Workload shape. README.md explains each choice.

constexpr size_t kMovies = 34000;  // the paper's "over 34k films"
constexpr size_t kShards = 4;

// serve_zipf: HTTP/1.1 over loopback into the precis_serve shape.
constexpr size_t kServeClients = 2;     // closed-loop connections
constexpr size_t kServeIoThreads = 2;   // precis_serve default
constexpr size_t kServeWorkers = 4;     // precis_serve default
constexpr size_t kServeQueueDepth = 64; // precis_serve default
constexpr size_t kServeDistinct = 40000;
constexpr double kServeZipf = 1.3;
constexpr size_t kServeRound = 40000;

// churn: cached engine, Zipf reads with an insert every kChurnInsertEvery ops.
constexpr size_t kChurnDistinct = 20000;
constexpr double kChurnZipf = 1.1;
constexpr size_t kChurnRound = 4000;
constexpr size_t kChurnInsertEvery = 200;

// Cold workloads: warm-up prefix, and every kCheckStride-th op is checked.
constexpr size_t kColdWarmup = 100;
constexpr size_t kCheckStride = 10;
constexpr size_t kCheckThreads = 4;

// Write probe of the read-only workloads (see README.md).
constexpr size_t kWriteProbeRows = 2000;
constexpr size_t kVisibilityC = 50;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string out_dir = ".bench_build";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--setup-only") {
      args->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  const std::string& w = args->workload;
  return w == "serve_zipf" || w == "precis_cold" || w == "sharded_cold" ||
         w == "churn";
}

// ---------------------------------------------------------------------------
// The serving stack each workload builds before its first operation.

struct Stack {
  std::unique_ptr<precis::MoviesDataset> dataset;
  std::unique_ptr<precis::PrecisEngine> engine;
  std::unique_ptr<precis::ShardedPrecisEngine> sharded;
  std::unique_ptr<precis::PrecisService> service;
  std::unique_ptr<precis::HttpServer> server;  // destroyed (stopped) first
  double dataset_s = 0, index_s = 0, partition_s = 0, server_s = 0;
  double total_s = 0;
  cpu_set_t all_cpus;  // the affinity before PinToOneCpu, for the checks

  precis::Database& db() { return dataset->db(); }
  const precis::SchemaGraph& graph() const { return dataset->graph(); }
};

Status BuildStack(const std::string& workload, Stack* s) {
  auto t0 = Clock::now();
  precis::MoviesConfig config;
  config.num_movies = kMovies;
  auto ds = precis::MoviesDataset::Create(config);
  if (!ds.ok()) return ds.status();
  s->dataset = std::make_unique<precis::MoviesDataset>(std::move(*ds));
  auto t1 = Clock::now();
  s->dataset_s = SecondsBetween(t0, t1);

  if (workload == "sharded_cold") {
    auto sharded = precis::ShardedPrecisEngine::Create(
        s->dataset->db(), &s->dataset->graph(), kShards);
    if (!sharded.ok()) return sharded.status();
    s->sharded = std::move(*sharded);
    s->sharded->set_caches_enabled(false);
    s->partition_s = SecondsBetween(t1, Clock::now());
  } else {
    auto engine =
        precis::PrecisEngine::Create(&s->dataset->db(), &s->dataset->graph());
    if (!engine.ok()) return engine.status();
    s->engine = std::make_unique<precis::PrecisEngine>(std::move(*engine));
    s->engine->set_caches_enabled(workload == "serve_zipf" ||
                                  workload == "churn");
    s->index_s = SecondsBetween(t1, Clock::now());
  }

  if (workload == "serve_zipf") {
    auto t2 = Clock::now();
    precis::PrecisService::Options options;
    options.num_workers = kServeWorkers;
    options.max_queue_depth = kServeQueueDepth;
    auto service = precis::PrecisService::Create(s->engine.get(), options);
    if (!service.ok()) return service.status();
    s->service = std::move(*service);
    precis::HttpServer::Options server_options;
    server_options.io_threads = kServeIoThreads;
    auto server = precis::HttpServer::Create(
        {{"default", s->service.get()}}, server_options);
    if (!server.ok()) return server.status();
    s->server = std::move(*server);
    s->server_s = SecondsBetween(t2, Clock::now());
  }
  s->total_s = SecondsBetween(t0, Clock::now());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Closed-loop rounds and failure accounting.

struct Rounds {
  size_t count = 0;
  double wall_s = 0;
  std::vector<double> round_s;  // wall time of each round
};

/// Runs whole rounds of operations 0..n-1 on `threads` client threads (each
/// takes the next unclaimed operation) until `seconds` have passed, always
/// finishing the round in progress. `once` runs exactly one round.
template <typename Op>
Rounds RunRounds(size_t n, size_t threads, double seconds, bool once,
                 Op&& op) {
  Rounds r;
  auto start = Clock::now();
  do {
    auto round_start = Clock::now();
    std::atomic<size_t> next{0};
    auto body = [&](size_t t) {
      for (size_t i; (i = next.fetch_add(1)) < n;) op(t, i, r.count);
    };
    if (threads == 1) {
      body(0);
    } else {
      std::vector<std::thread> pool;
      for (size_t t = 0; t < threads; ++t) pool.emplace_back(body, t);
      for (std::thread& th : pool) th.join();
    }
    ++r.count;
    auto now = Clock::now();
    r.round_s.push_back(SecondsBetween(round_start, now));
    r.wall_s = SecondsBetween(start, now);
  } while (!once && r.wall_s < seconds);
  return r;
}

/// Which operations of a list failed: an error is counted in every round it
/// happens; a failed output check marks the operation failed in every round.
class FailureLedger {
 public:
  explicit FailureLedger(size_t n) : errors_(n), check_failed_(n) {}
  void OpError(size_t i) { errors_[i].fetch_add(1, std::memory_order_relaxed); }
  void CheckFailed(size_t i) { check_failed_[i].store(1); }
  uint64_t Failed(size_t rounds) const {
    uint64_t failed = 0;
    for (size_t i = 0; i < errors_.size(); ++i) {
      failed += check_failed_[i].load() ? rounds : errors_[i].load();
    }
    return failed;
  }

 private:
  std::vector<std::atomic<uint32_t>> errors_;
  std::vector<std::atomic<uint8_t>> check_failed_;
};

/// What a workload run reports.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  MetricSet metrics;
  size_t rounds = 0;
  size_t ops_per_round = 0;
  size_t distinct_per_round = 0;  // distinct queries in the list
  double measured_s = 0;
  std::string caches;  // the cache state, for the run record
  std::mutex mu;

  void Error(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }
};

std::string QueryText(const QueryOp& op) {
  std::string s;
  for (const std::string& t : op.tokens) s += (s.empty() ? "" : " + ") + t;
  return s + " (c=" + std::to_string(op.c) + ")";
}

// One précis query under the serving defaults: min_path_weight 0 and at most
// c tuples per relation (what ParseQueryRequest + PrecisService build).
struct Constraints {
  std::unique_ptr<precis::DegreeConstraint> degree = precis::MinPathWeight(0.0);
  std::unique_ptr<precis::CardinalityConstraint> cardinality;
  explicit Constraints(size_t c)
      : cardinality(precis::MaxTuplesPerRelation(c)) {}
};

void ParallelFor(size_t n, size_t threads, const std::function<void(size_t)>& f) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) f(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

/// Lets the calling thread, and the checker threads it starts, use every
/// CPU again once the timed part of a run is over.
void UseAllCpus(const Stack& s) {
  sched_setaffinity(0, sizeof(cpu_set_t), &s.all_cpus);
}

/// True when `answer` holds `row` projected on the answer's attributes of
/// the row's relation.
bool AnswerHoldsRow(const precis::PrecisAnswer& answer, const InsertRow& row,
                    const precis::Database& source) {
  auto out = answer.database.GetRelation(row.relation);
  auto src = source.GetRelation(row.relation);
  if (!out.ok() || !src.ok()) return false;
  std::vector<std::pair<size_t, size_t>> cols;  // (result pos, source pos)
  const precis::RelationSchema& schema = (*out)->schema();
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    auto pos = (*src)->schema().AttributeIndex(schema.attribute(a).name);
    if (!pos.ok()) return false;
    cols.push_back({a, *pos});
  }
  for (precis::Tid tid = 0; tid < (*out)->num_tuples(); ++tid) {
    const precis::Tuple& t = (*out)->tuple(tid);
    bool same = true;
    for (const auto& [a, p] : cols) same = same && t[a] == row.tuple[p];
    if (same) return true;
  }
  return false;
}

/// Latency samples per client thread and round; each thread appends only to
/// its own vectors.
class LatencyLog {
 public:
  explicit LatencyLog(size_t threads) : per_thread_(threads) {}
  void Add(size_t thread, size_t round, double seconds) {
    std::vector<std::vector<double>>& rounds = per_thread_[thread];
    if (rounds.size() <= round) rounds.resize(round + 1);
    rounds[round].push_back(seconds);
  }
  std::vector<double> Round(size_t round) const {
    std::vector<double> all;
    for (const auto& rounds : per_thread_) {
      if (round < rounds.size()) {
        all.insert(all.end(), rounds[round].begin(), rounds[round].end());
      }
    }
    return all;
  }

 private:
  std::vector<std::vector<std::vector<double>>> per_thread_;
};

/// qps, p50 and p99 are each the median over the run's rounds of that
/// round's value, so a round that met a burst of outside load moves none of
/// them. Every round replays the same list, so rounds are comparable.
void AddLatencyMetrics(const LatencyLog& log, const Rounds& rounds,
                       size_t queries_per_round, Outcome* out) {
  std::vector<double> qps, p50, p99;
  for (size_t r = 0; r < rounds.count; ++r) {
    std::vector<double> lat = log.Round(r);
    qps.push_back(queries_per_round / rounds.round_s[r]);
    p50.push_back(Quantile(lat, 0.50) * 1e3);
    p99.push_back(Quantile(lat, 0.99) * 1e3);
  }
  out->metrics.Add("qps", Median(qps), "1/s");
  out->metrics.Add("latency_p50_ms", Median(p50), "ms");
  out->metrics.Add("latency_p99_ms", Median(p99), "ms");
}

template <typename T>
std::vector<T> Flatten(const std::vector<std::vector<T>>& parts) {
  std::vector<T> all;
  for (const auto& p : parts) all.insert(all.end(), p.begin(), p.end());
  return all;
}

// ---------------------------------------------------------------------------
// Per-layer metrics (--trace 1). Every workload prints every name; a layer a
// workload does not exercise reads 0.

struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"server.roundtrip_us", "us"},      {"server.service_us", "us"},
    {"server.overhead_us", "us"},       {"server.http_parse_us", "us"},
    {"server.request_parse_us", "us"},  {"server.response_bytes", "bytes"},
    {"service.exec_us", "us"},          {"service.queue_wait_us", "us"},
    {"service.arena_peak_bytes", "bytes"},
    {"cache.token.hit_rate", "ratio"},  {"cache.token.evictions", "count"},
    {"cache.token.bytes", "bytes"},     {"cache.schema.hit_rate", "ratio"},
    {"cache.schema.evictions", "count"}, {"cache.schema.bytes", "bytes"},
    {"cache.answer.hit_rate", "ratio"}, {"cache.answer.evictions", "count"},
    {"cache.answer.bytes", "bytes"},    {"cache.body.hit_rate", "ratio"},
    {"cache.body.evictions", "count"},  {"cache.body.bytes", "bytes"},
    {"text.lookup_us", "us"},           {"text.seed_tids", "count"},
    {"schema.gen_us", "us"},            {"schema.relations", "count"},
    {"schema.projections", "count"},    {"dbgen.gen_us", "us"},
    {"dbgen.result_tuples", "count"},   {"dbgen.useful_ratio", "ratio"},
    {"storage.index_probes", "count"},  {"storage.tuple_fetches", "count"},
    {"sql.statements", "count"},        {"storage.insert_us", "us"},
    {"translator.render_us", "us"},     {"translator.bytes", "bytes"},
    {"json.render_us", "us"},           {"setup.dataset_s", "s"},
    {"setup.index_s", "s"},             {"setup.server_s", "s"},
    {"trace.overhead_ratio", "ratio"},  {"trace.unattributed_share", "ratio"},
};
// Only sharded_cold reports these (see README.md on why that workload is
// not in BENCHMARK.json).
constexpr LayerMetric kShardLayerMetrics[] = {
    {"shard.answer_us", "us"},      {"shard.merge_us", "us"},
    {"shard.merge_events", "count"}, {"shard.subqueries", "count"},
    {"shard.overhead_ratio", "ratio"}, {"setup.partition_s", "s"},
};

struct CacheSnapshot {
  precis::LruCacheStats token, schema, answer, body;
};

CacheSnapshot SnapshotCaches(const precis::PrecisEngine& e) {
  return {e.token_cache_stats(), e.schema_cache_stats(),
          e.answer_cache_stats(), e.body_cache_stats()};
}

void AddCacheMetrics(const CacheSnapshot& before, const CacheSnapshot& after,
                     Outcome* out) {
  auto add = [&](const char* level, const precis::LruCacheStats& b,
                 const precis::LruCacheStats& a) {
    std::string p = std::string("cache.") + level;
    uint64_t hits = a.hits - b.hits;
    uint64_t lookups = hits + (a.misses - b.misses);
    out->metrics.Add(p + ".hit_rate",
                     lookups ? static_cast<double>(hits) / lookups : 0.0,
                     "ratio");
    out->metrics.Add(p + ".evictions", a.evictions - b.evictions, "count");
    out->metrics.Add(p + ".bytes", a.charge_bytes, "bytes");
  };
  add("token", before.token, after.token);
  add("schema", before.schema, after.schema);
  add("answer", before.answer, after.answer);
  add("body", before.body, after.body);
}

/// The cache state over a window: lookups, hit rate and evictions between
/// the two snapshots, live entries and bytes at the end.
std::string DescribeCaches(const CacheSnapshot& b, const CacheSnapshot& a) {
  auto one = [](const char* name, const precis::LruCacheStats& x,
                const precis::LruCacheStats& y) {
    uint64_t hits = y.hits - x.hits, lookups = hits + (y.misses - x.misses);
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s lookups=%llu hit_rate=%.4f evictions=%llu entries=%zu "
                  "bytes=%zu",
                  name, static_cast<unsigned long long>(lookups),
                  lookups ? static_cast<double>(hits) / lookups : 0.0,
                  static_cast<unsigned long long>(y.evictions - x.evictions),
                  y.entries, y.charge_bytes);
    return std::string(buf);
  };
  return one("token", b.token, a.token) + "; " +
         one("schema", b.schema, a.schema) + "; " +
         one("answer", b.answer, a.answer) + "; " +
         one("body", b.body, a.body);
}

double MedianUs(const std::vector<double>& seconds) {
  return Median(seconds) * 1e6;
}

/// Writes the spans and the per-layer table, prints the table to stderr,
/// and adds trace.unattributed_share.
void ReportTrace(const Args& args, const std::string& pass,
                 const std::vector<const SpanLog*>& logs, Outcome* out,
                 bool headline) {
  std::filesystem::path dir = std::filesystem::path(args.out_dir) / "trace";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string stem = args.workload + "-seed" + std::to_string(args.seed) +
                     "-" + pass;
  {
    std::ofstream spans(dir / (stem + ".spans.tsv"));
    spans << "thread\top\tname\tparent\tstart_ns\tend_ns\n";
    for (size_t t = 0; t < logs.size(); ++t) {
      for (const Span& s : logs[t]->spans()) {
        spans << t << '\t' << s.op << '\t' << s.name << '\t' << s.parent
              << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
      }
    }
  }
  LayerTable table = BuildLayerTable(logs);
  std::ofstream layers(dir / (stem + ".layers.tsv"));
  layers << "layer\tcount\ttotal_ms\tself_ms\tself_share\n";
  std::fprintf(stderr, "trace %s/%s: %-28s %9s %12s %12s %8s\n",
               args.workload.c_str(), pass.c_str(), "layer", "count",
               "total_ms", "self_ms", "self%");
  for (const LayerRow& r : table.rows) {
    double share = table.root_total_s > 0 ? r.self_s / table.root_total_s : 0;
    layers << r.name << '\t' << r.count << '\t' << r.total_s * 1e3 << '\t'
           << r.self_s * 1e3 << '\t' << share << '\n';
    std::fprintf(stderr, "trace %s/%s: %-28s %9llu %12.3f %12.3f %7.2f%%\n",
                 args.workload.c_str(), pass.c_str(),
                 (r.name + (r.root ? " (op, self=glue)" : "")).c_str(),
                 static_cast<unsigned long long>(r.count), r.total_s * 1e3,
                 r.self_s * 1e3, share * 100);
  }
  double sum_gap = table.root_total_s > 0
                       ? (table.self_sum_s - table.root_total_s) /
                             table.root_total_s
                       : 0;
  std::fprintf(stderr,
               "trace %s/%s: operations %.3f ms; layer self times sum to "
               "%.3f ms (%+.4f%%); unattributed %.2f%%\n",
               args.workload.c_str(), pass.c_str(), table.root_total_s * 1e3,
               table.self_sum_s * 1e3, sum_gap * 100,
               table.unattributed_share() * 100);
  layers << "# operations_ms\t" << table.root_total_s * 1e3
         << "\n# self_sum_ms\t" << table.self_sum_s * 1e3
         << "\n# unattributed_share\t" << table.unattributed_share() << "\n";
  if (std::abs(sum_gap) > 0.01) {
    out->Error("trace " + pass + ": layer self times miss the operation time "
               "by more than 1%");
  }
  if (headline) {
    out->metrics.Add("trace.unattributed_share", table.unattributed_share(),
                     "ratio");
  }
}

// ---------------------------------------------------------------------------
// The write path of the read-only workloads: a fixed probe of joining CAST
// inserts right after set-up, before the warm-up, each timed (the traced
// run's storage.insert_us), then a visibility check through the workload's
// read path. The rows' only text is no query token, so every later read and
// check sees one fixed database.

double TimedInsert(Stack* s, const InsertRow& row, Status* status) {
  auto t0 = Clock::now();
  if (s->sharded != nullptr) {
    auto tid = s->sharded->Insert(row.relation, row.tuple);
    *status = tid.status();
  } else {
    auto rel = s->db().GetRelation(row.relation);
    if (!rel.ok()) {
      *status = rel.status();
    } else {
      *status = (*rel)->Insert(row.tuple).status();
    }
  }
  return SecondsBetween(t0, Clock::now());
}

/// Runs the write probe; `visible` answers the title query of the last
/// inserted row's movie through the workload's read path and reports
/// whether the row shows.
void WriteProbe(Stack* s, uint64_t seed, Outcome* out,
                const std::function<bool(const InsertRow&)>& visible) {
  InsertRowSource rows(s->db(), seed);
  std::vector<double> lat;
  lat.reserve(kWriteProbeRows);
  InsertRow row;
  for (size_t k = 0; k < kWriteProbeRows; ++k) {
    row = rows.NextCast();
    Status st;
    lat.push_back(TimedInsert(s, row, &st));
    if (st.ok() && s->sharded != nullptr) {
      // Keep the source database, which the single-engine byte check
      // answers from, equal to the shards.
      auto rel = s->db().GetRelation(row.relation);
      if (rel.ok()) st = (*rel)->Insert(row.tuple).status();
    }
    if (!st.ok()) {
      ++out->failed;
      out->Error("insert into " + row.relation + ": " + st.ToString());
    }
  }
  out->attempted += kWriteProbeRows + 1;
  if (!visible(row)) {
    ++out->failed;
    out->Error("inserted " + row.relation + " row is not visible to '" +
               row.movie_title + "'");
  }
  out->metrics.Add("storage.insert_us", MedianUs(lat), "us");
}

// ---------------------------------------------------------------------------
// precis_cold and sharded_cold.

struct ColdResult {
  Status status;
  double latency_s = 0;
  uint64_t json_hash = 0;
  uint64_t text_hash = 0;
};

/// One cold operation: the Fig. 2 pipeline plus the §5.3 narrative and the
/// JSON body, with every cache off.
ColdResult ColdOp(Stack* s, const precis::Translator& translator,
                  const QueryOp& op) {
  ColdResult r;
  auto t0 = Clock::now();
  precis::PrecisQuery query{op.tokens};
  Constraints k(op.c);
  auto answer = s->sharded != nullptr
                    ? s->sharded->Answer(query, *k.degree, *k.cardinality)
                    : s->engine->Answer(query, *k.degree, *k.cardinality);
  if (!answer.ok()) {
    r.status = answer.status();
    return r;
  }
  auto text = translator.Render(*answer);
  if (!text.ok()) {
    r.status = text.status();
    return r;
  }
  std::string json = precis::AnswerToJson(*answer);
  r.latency_s = SecondsBetween(t0, Clock::now());
  r.json_hash = Fnv1a(json);
  r.text_hash = Fnv1a(*text);
  return r;
}

/// The cold pipeline called layer by layer, each call in its own span:
/// token lookup, result schema generation (Fig. 7), result database
/// generation (Fig. 8/9), the narrative, the JSON body. Seeds are assembled
/// exactly as PrecisEngine::Answer does, so the bytes must be identical.
struct TracedCold {
  Status status;
  uint64_t json_hash = 0;
  uint64_t text_hash = 0;
  double seed_tids = 0, relations = 0, projections = 0, result_tuples = 0;
  double index_probes = 0, tuple_fetches = 0, statements = 0;
  double narrative_bytes = 0;
};

TracedCold TracedColdOp(Stack* s, const precis::Translator& translator,
                        const QueryOp& op, uint32_t id, SpanLog* log) {
  TracedCold r;
  ScopedTrace root(log, "op", id);
  std::vector<precis::TokenMatch> matches;
  {
    ScopedTrace span(log, "text.lookup", id, root.id());
    for (const std::string& token : op.tokens) {
      matches.push_back(
          precis::TokenMatch{token, token, s->engine->index().Lookup(token)});
    }
  }
  // The engine's own seed assembly (PrecisEngine::AnswerFromMatches):
  // input relations in match order, tids deduplicated per relation.
  std::vector<precis::RelationNodeId> token_relations;
  precis::SeedTids seeds;
  Status seeded = [&] {
    ScopedTrace span(log, "engine.seed_assembly", id, root.id());
    std::unordered_map<precis::RelationNodeId, std::unordered_set<precis::Tid>>
        seen;
    for (const precis::TokenMatch& m : matches) {
      for (const precis::TokenOccurrence& occ : m.occurrences()) {
        auto rel = s->graph().RelationId(occ.relation);
        if (!rel.ok()) return rel.status();
        if (std::find(token_relations.begin(), token_relations.end(), *rel) ==
            token_relations.end()) {
          token_relations.push_back(*rel);
        }
        for (precis::Tid tid : occ.tids) {
          if (seen[*rel].insert(tid).second) seeds[*rel].push_back(tid);
        }
        r.seed_tids += occ.tids.size();
      }
    }
    return Status::OK();
  }();
  if (!seeded.ok()) {
    r.status = seeded;
    return r;
  }
  Constraints k(op.c);
  precis::ExecutionContext ctx;
  precis::ResultSchemaGenerator schema_gen(&s->graph());
  Result<precis::ResultSchema> schema = [&] {
    ScopedTrace span(log, "schema.gen", id, root.id());
    return schema_gen.Generate(token_relations, *k.degree, &ctx);
  }();
  if (!schema.ok()) {
    r.status = schema.status();
    return r;
  }
  precis::ResultDatabaseGenerator db_gen(&s->db());
  Result<precis::Database> database = [&] {
    ScopedTrace span(log, "dbgen.gen", id, root.id());
    return db_gen.Generate(*schema, seeds, *k.cardinality,
                           precis::DbGenOptions(), &ctx);
  }();
  if (!database.ok()) {
    r.status = database.status();
    return r;
  }
  r.relations = schema->relations().size();
  r.projections = schema->projection_paths().size();
  precis::PrecisAnswer answer{std::move(matches), std::move(*schema),
                              std::move(*database), db_gen.last_report()};
  Result<std::string> text = [&] {
    ScopedTrace span(log, "translator.render", id, root.id());
    return translator.Render(answer);
  }();
  if (!text.ok()) {
    r.status = text.status();
    return r;
  }
  std::string json = [&] {
    ScopedTrace span(log, "json.render", id, root.id());
    return precis::AnswerToJson(answer);
  }();
  r.json_hash = Fnv1a(json);
  r.text_hash = Fnv1a(*text);
  r.result_tuples = answer.database.TotalTuples();
  r.index_probes = ctx.stats().index_probes.load();
  r.tuple_fetches = ctx.stats().tuple_fetches.load();
  r.statements = ctx.stats().statements.load();
  r.narrative_bytes = text->size();
  return r;
}

void CheckColdAnswers(Stack* s, const precis::Translator& translator,
                      const std::vector<QueryOp>& ops,
                      const std::vector<uint64_t>& json_hash,
                      const std::vector<uint64_t>& text_hash,
                      FailureLedger* ledger, Outcome* out) {
  // Independent checks on every kCheckStride-th operation of the list.
  AnswerChecker checker(&s->db(), &s->graph());
  std::vector<std::string> tokens;
  for (size_t i = 0; i < ops.size(); i += kCheckStride) {
    tokens.insert(tokens.end(), ops[i].tokens.begin(), ops[i].tokens.end());
  }
  checker.ScanTokens(tokens);
  for (size_t i = 0; i < ops.size(); i += kCheckStride) {
    precis::PrecisQuery query{ops[i].tokens};
    Constraints k(ops[i].c);
    auto answer =
        s->sharded != nullptr
            ? s->sharded->Answer(query, *k.degree, *k.cardinality)
            : s->engine->Answer(query, *k.degree, *k.cardinality);
    if (!answer.ok()) continue;  // already counted as an error
    auto text = translator.Render(*answer);
    std::vector<std::string> errors = checker.Check(
        ops[i].tokens, ops[i].c, *answer, text.ok() ? *text : std::string());
    if (Fnv1a(precis::AnswerToJson(*answer)) != json_hash[i] ||
        (text.ok() && Fnv1a(*text) != text_hash[i])) {
      errors.push_back("re-run differs from the timed run's output");
    }
    for (const std::string& e : errors) {
      ledger->CheckFailed(i);
      out->Error(QueryText(ops[i]) + ": " + e);
    }
  }
}

/// Sharded bytes must equal the single engine's, for every operation.
void CheckShardedBytes(Stack* s, const std::vector<QueryOp>& ops,
                       const std::vector<uint64_t>& json_hash,
                       FailureLedger* ledger, Outcome* out) {
  auto single = precis::PrecisEngine::Create(&s->db(), &s->graph());
  if (!single.ok()) {
    out->Error("reference engine: " + single.status().ToString());
    return;
  }
  ParallelFor(ops.size(), kCheckThreads, [&](size_t i) {
    precis::PrecisQuery query{ops[i].tokens};
    Constraints k(ops[i].c);
    auto answer = single->Answer(query, *k.degree, *k.cardinality);
    if (!answer.ok() || Fnv1a(precis::AnswerToJson(*answer)) != json_hash[i]) {
      ledger->CheckFailed(i);
      out->Error(QueryText(ops[i]) + ": sharded bytes differ from the single "
                 "engine's");
    }
  });
}

void RunCold(const Args& args, Stack* s, Outcome* out) {
  auto catalog = precis::BuildMoviesTemplateCatalog();
  if (!catalog.ok()) {
    out->Error("template catalog: " + catalog.status().ToString());
    return;
  }
  precis::Translator translator(&*catalog);
  Vocabulary vocab = Vocabulary::FromDatabase(s->db());
  std::vector<QueryOp> ops = ColdQueryList(vocab, args.seed);
  const size_t n = ops.size();
  out->ops_per_round = n;
  out->distinct_per_round = n;
  out->caches = "all cache levels off";

  WriteProbe(s, args.seed, out, [&](const InsertRow& row) {
    precis::PrecisQuery query{{row.movie_title}};
    Constraints k(kVisibilityC);
    auto answer = s->sharded != nullptr
                      ? s->sharded->Answer(query, *k.degree, *k.cardinality)
                      : s->engine->Answer(query, *k.degree, *k.cardinality);
    return answer.ok() && AnswerHoldsRow(*answer, row, s->db());
  });
  for (size_t i = 0; i < kColdWarmup; ++i) ColdOp(s, translator, ops[i]);

  FailureLedger ledger(n);
  std::vector<uint64_t> json_hash(n), text_hash(n);
  LatencyLog lat(1);
  Rounds timed = RunRounds(
      n, 1, args.seconds, args.trace, [&](size_t, size_t i, size_t round) {
        ColdResult r = ColdOp(s, translator, ops[i]);
        if (!r.status.ok()) {
          ledger.OpError(i);
          out->Error(QueryText(ops[i]) + ": " + r.status.ToString());
          return;
        }
        lat.Add(0, round, r.latency_s);
        if (round == 0) {
          json_hash[i] = r.json_hash;
          text_hash[i] = r.text_hash;
        } else if (json_hash[i] != r.json_hash ||
                   text_hash[i] != r.text_hash) {
          ledger.CheckFailed(i);
          out->Error(QueryText(ops[i]) + ": output changed between rounds");
        }
      });
  const size_t rounds = timed.count;
  out->rounds = rounds;
  out->measured_s = timed.wall_s;
  out->metrics.Add("peak_rss_mb", PeakRssMb(), "MiB");
  AddLatencyMetrics(lat, timed, n, out);

  if (!args.trace) {
    UseAllCpus(*s);
    CheckColdAnswers(s, translator, ops, json_hash, text_hash, &ledger, out);
    if (s->sharded != nullptr) {
      CheckShardedBytes(s, ops, json_hash, &ledger, out);
    }
  } else {
    // Traced replay of the same round. In-process single engine: the layers
    // one by one. Sharded: the scatter-gather answer, then the same
    // rendering layers, with the single engine timed beside it (outside the
    // operation's spans) for the overhead ratio and the byte check.
    SpanLog log;
    std::vector<double> seed_tids, relations, projections, result_tuples,
        probes, fetches, statements, useful, narrative_bytes, merge_us,
        merge_events, subqueries, overhead;
    std::unique_ptr<precis::PrecisEngine> single;
    if (s->sharded != nullptr) {
      auto created = precis::PrecisEngine::Create(&s->db(), &s->graph());
      if (created.ok()) {
        single = std::make_unique<precis::PrecisEngine>(std::move(*created));
      } else {
        out->Error("reference engine: " + created.status().ToString());
        return;
      }
    }
    // Each operation runs both untraced and traced, in alternating order so
    // neither side always meets the warmer state; the sums of the two give
    // the tracing overhead.
    double untraced_sum = 0;
    auto traced_op = [&](size_t i) {
      uint32_t id = static_cast<uint32_t>(i);
      if (s->sharded == nullptr) {
        TracedCold t = TracedColdOp(s, translator, ops[i], id, &log);
        if (!t.status.ok() || t.json_hash != json_hash[i] ||
            t.text_hash != text_hash[i]) {
          ledger.CheckFailed(i);
          out->Error(QueryText(ops[i]) + ": layer-by-layer bytes differ from "
                     "PrecisEngine::Answer");
          return;
        }
        seed_tids.push_back(t.seed_tids);
        relations.push_back(t.relations);
        projections.push_back(t.projections);
        result_tuples.push_back(t.result_tuples);
        probes.push_back(t.index_probes);
        fetches.push_back(t.tuple_fetches);
        statements.push_back(t.statements);
        useful.push_back(t.tuple_fetches > 0
                             ? t.result_tuples / t.tuple_fetches
                             : 0);
        narrative_bytes.push_back(t.narrative_bytes);
        return;
      }
      precis::PrecisQuery query{ops[i].tokens};
      Constraints k(ops[i].c);
      precis::ShardQueryStats stats;
      precis::ExecutionContext ctx;
      uint64_t json = 0;
      double sharded_s = 0;
      {
        ScopedTrace root(&log, "op", id);
        Result<precis::PrecisAnswer> answer = [&] {
          ScopedTrace span(&log, "shard.answer", id, root.id());
          return s->sharded->Answer(query, *k.degree, *k.cardinality,
                                    precis::DbGenOptions(), &ctx, &stats);
        }();
        sharded_s = (log.spans().back().end_ns -
                     log.spans().back().start_ns) / 1e9;
        if (!answer.ok()) {
          ledger.CheckFailed(i);
          out->Error(QueryText(ops[i]) + ": " + answer.status().ToString());
          return;
        }
        Result<std::string> text = [&] {
          ScopedTrace span(&log, "translator.render", id, root.id());
          return translator.Render(*answer);
        }();
        json = Fnv1a([&] {
          ScopedTrace span(&log, "json.render", id, root.id());
          return precis::AnswerToJson(*answer);
        }());
        if (text.ok()) narrative_bytes.push_back(text->size());
        result_tuples.push_back(answer->database.TotalTuples());
      }
      auto t0 = Clock::now();
      auto reference = single->Answer(query, *k.degree, *k.cardinality);
      double single_s = SecondsBetween(t0, Clock::now());
      if (!reference.ok() ||
          Fnv1a(precis::AnswerToJson(*reference)) != json) {
        ledger.CheckFailed(i);
        out->Error(QueryText(ops[i]) + ": sharded bytes differ from the "
                   "single engine's");
      }
      overhead.push_back(single_s > 0 ? sharded_s / single_s : 0);
      merge_us.push_back(stats.merge_seconds * 1e6);
      merge_events.push_back(stats.merge_events);
      double sub = 0;
      for (uint64_t q : stats.subqueries) sub += q;
      subqueries.push_back(sub);
      probes.push_back(ctx.stats().index_probes.load());
      fetches.push_back(ctx.stats().tuple_fetches.load());
      statements.push_back(ctx.stats().statements.load());
      useful.push_back(fetches.back() > 0
                           ? result_tuples.back() / fetches.back()
                           : 0);
    };
    for (size_t i = 0; i < n; ++i) {
      if (i % 2 == 1) traced_op(i);
      auto u0 = Clock::now();
      ColdOp(s, translator, ops[i]);
      untraced_sum += SecondsBetween(u0, Clock::now());
      if (i % 2 == 0) traced_op(i);
    }
    MetricSet& m = out->metrics;
    m.Add("text.lookup_us", MedianUs(log.PerOpSeconds("text.lookup")), "us");
    m.Add("text.seed_tids", Median(seed_tids), "count");
    m.Add("schema.gen_us", MedianUs(log.PerOpSeconds("schema.gen")), "us");
    m.Add("schema.relations", Median(relations), "count");
    m.Add("schema.projections", Median(projections), "count");
    m.Add("dbgen.gen_us", MedianUs(log.PerOpSeconds("dbgen.gen")), "us");
    m.Add("dbgen.result_tuples", Median(result_tuples), "count");
    m.Add("dbgen.useful_ratio", Median(useful), "ratio");
    m.Add("storage.index_probes", Median(probes), "count");
    m.Add("storage.tuple_fetches", Median(fetches), "count");
    m.Add("sql.statements", Median(statements), "count");
    m.Add("translator.render_us",
          MedianUs(log.PerOpSeconds("translator.render")), "us");
    m.Add("translator.bytes", Median(narrative_bytes), "bytes");
    m.Add("json.render_us", MedianUs(log.PerOpSeconds("json.render")), "us");
    m.Add("shard.answer_us", MedianUs(log.PerOpSeconds("shard.answer")), "us");
    m.Add("shard.merge_us", Median(merge_us), "us");
    m.Add("shard.merge_events", Median(merge_events), "count");
    m.Add("shard.subqueries", Median(subqueries), "count");
    m.Add("shard.overhead_ratio", Median(overhead), "ratio");
    double traced = 0;
    for (double d : log.PerOpSeconds("op")) traced += d;
    m.Add("trace.overhead_ratio",
          untraced_sum > 0 ? traced / untraced_sum - 1 : 0, "ratio");
    ReportTrace(args, "ops", {&log}, out, true);
  }
  out->attempted += rounds * n;
  out->failed += ledger.Failed(rounds);
}

// ---------------------------------------------------------------------------
// churn.

void RunChurn(const Args& args, Stack* s, Outcome* out) {
  Vocabulary vocab = Vocabulary::FromDatabase(s->db());
  std::vector<QueryOp> distinct =
      RankedQueries(vocab, args.seed, kChurnDistinct);
  std::vector<uint32_t> seq =
      ZipfSequence(kChurnDistinct, kChurnZipf, kChurnRound, args.seed);
  const size_t n = seq.size();
  out->ops_per_round = n;
  precis::PrecisEngine& engine = *s->engine;
  auto is_insert = [](size_t i) {
    return i % kChurnInsertEvery == kChurnInsertEvery - 1;
  };

  // Before any insert: the independent answer checks on a sample of the
  // distinct queries, through the cached read path.
  auto catalog = precis::BuildMoviesTemplateCatalog();
  if (!catalog.ok()) {
    out->Error("template catalog: " + catalog.status().ToString());
    return;
  }
  precis::Translator translator(&*catalog);
  std::vector<size_t> sample;
  for (size_t i = 0; i < n; i += kCheckStride * 4) {
    if (!is_insert(i)) sample.push_back(i);
  }
  FailureLedger ledger(n);
  if (!args.trace) {
    AnswerChecker checker(&s->db(), &s->graph());
    std::vector<std::string> tokens;
    for (size_t i : sample) {
      const QueryOp& op = distinct[seq[i]];
      tokens.insert(tokens.end(), op.tokens.begin(), op.tokens.end());
    }
    checker.ScanTokens(tokens);
    for (size_t i : sample) {
      const QueryOp& op = distinct[seq[i]];
      Constraints k(op.c);
      auto r = engine.AnswerSharedRendered(precis::PrecisQuery{op.tokens},
                                           *k.degree, *k.cardinality);
      if (!r.ok()) continue;
      auto text = translator.Render(*r->answer);
      std::vector<std::string> errors = checker.Check(
          op.tokens, op.c, *r->answer, text.ok() ? *text : std::string());
      if (*r->body_json != precis::AnswerToJson(*r->answer)) {
        errors.push_back("served body differs from its answer's JSON");
      }
      for (const std::string& e : errors) {
        ledger.CheckFailed(i);
        out->Error(QueryText(op) + ": " + e);
      }
    }
  }

  {
    std::unordered_set<uint32_t> queried;
    for (size_t i = 0; i < n; ++i) {
      if (!is_insert(i)) queried.insert(seq[i]);
    }
    out->distinct_per_round = queried.size();
  }
  InsertRowSource rows(s->db(), args.seed);
  LatencyLog query_lat(1);
  std::vector<double> op_s(n);
  bool timing = false;
  SpanLog* log = nullptr;
  auto op_fn = [&](size_t, size_t i, size_t round) {
    uint32_t id = static_cast<uint32_t>(i);
    if (is_insert(i)) {
      InsertRow row = rows.Next();
      int32_t root = log ? log->Open("op", id, -1) : -1;
      Status st;
      double d = TimedInsert(s, row, &st);
      if (log) {
        int64_t end = ToNs(Clock::now());
        log->Record("storage.insert", id, root,
                    end - static_cast<int64_t>(d * 1e9), end);
        log->Close(root);
      }
      if (!st.ok()) {
        ledger.OpError(i);
        out->Error("insert into " + row.relation + ": " + st.ToString());
      } else if (timing) {
        op_s[i] = d;
      }
      return;
    }
    const QueryOp& op = distinct[seq[i]];
    int32_t root = log ? log->Open("op", id, -1) : -1;
    auto t0 = Clock::now();
    Constraints k(op.c);
    auto r = engine.AnswerSharedRendered(precis::PrecisQuery{op.tokens},
                                         *k.degree, *k.cardinality);
    auto t1 = Clock::now();
    if (log) {
      log->Record("engine.answer_rendered", id, root, ToNs(t0), ToNs(t1));
      log->Close(root);
    }
    if (!r.ok()) {
      ledger.OpError(i);
      out->Error(QueryText(op) + ": " + r.status().ToString());
    } else if (timing) {
      query_lat.Add(0, round, SecondsBetween(t0, t1));
      op_s[i] = SecondsBetween(t0, t1);
    }
  };

  // Warm-up: rounds until the answer cache is full and evicting, its steady
  // mix of live and unreachable (older-epoch) entries.
  for (int w = 0; w < 8; ++w) {
    RunRounds(n, 1, 0, true, op_fn);
    if (engine.answer_cache_stats().evictions > 0) break;
  }
  CacheSnapshot before = SnapshotCaches(engine);
  timing = true;
  Rounds timed = RunRounds(n, 1, args.seconds, args.trace, op_fn);
  timing = false;
  CacheSnapshot after = SnapshotCaches(engine);
  const size_t rounds = timed.count;
  out->rounds = rounds;
  out->measured_s = timed.wall_s;
  out->caches = "all four cache levels on; timed rounds: " +
                DescribeCaches(before, after);
  out->metrics.Add("peak_rss_mb", PeakRssMb(), "MiB");
  AddLatencyMetrics(query_lat, timed, n - n / kChurnInsertEvery, out);
  out->attempted += rounds * n;

  if (!args.trace) {
    // Check round: the same list once more. After each insert the next
    // query joins to the new row; every 20th query's served body is compared
    // with a fresh build that bypasses the answer and body caches.
    size_t compared_hits = 0;
    for (size_t i = 0; i < n; ++i) {
      if (is_insert(i)) {
        InsertRow row = rows.Next();
        Status st;
        TimedInsert(s, row, &st);
        Constraints k(kVisibilityC);
        auto r = engine.AnswerSharedRendered(
            precis::PrecisQuery{{row.movie_title}}, *k.degree,
            *k.cardinality);
        if (!st.ok() || !r.ok() || !AnswerHoldsRow(*r->answer, row, s->db())) {
          ledger.CheckFailed(i);
          out->Error("inserted " + row.relation + " row is not visible to '" +
                     row.movie_title + "'");
        }
        continue;
      }
      const QueryOp& op = distinct[seq[i]];
      Constraints k(op.c);
      uint64_t hits = engine.answer_cache_stats().hits;
      auto r = engine.AnswerSharedRendered(precis::PrecisQuery{op.tokens},
                                           *k.degree, *k.cardinality);
      if (!r.ok() || i % 20 != 0) continue;
      bool hit = engine.answer_cache_stats().hits > hits;
      auto fresh = engine.Answer(precis::PrecisQuery{op.tokens}, *k.degree,
                                 *k.cardinality);
      if (!fresh.ok() || precis::AnswerToJson(*fresh) != *r->body_json) {
        ledger.CheckFailed(i);
        out->Error(QueryText(op) + ": cached answer differs from a fresh one");
      }
      compared_hits += hit ? 1 : 0;
    }
    if (compared_hits == 0) {
      out->Error("churn check round compared no cache hit");
    }
  } else {
    SpanLog traced;
    log = &traced;
    CacheSnapshot tb = SnapshotCaches(engine);
    RunRounds(n, 1, 0, true, op_fn);
    log = nullptr;
    AddCacheMetrics(tb, SnapshotCaches(engine), out);
    out->metrics.Add("storage.insert_us",
                     MedianUs(traced.PerOpSeconds("storage.insert")), "us");
    double traced_s = 0, untraced_s = 0;
    for (double d : traced.PerOpSeconds("op")) traced_s += d;
    for (double d : op_s) untraced_s += d;
    out->metrics.Add("trace.overhead_ratio",
                     untraced_s > 0 ? traced_s / untraced_s - 1 : 0, "ratio");
    ReportTrace(args, "ops", {&traced}, out, true);
  }
  out->failed += ledger.Failed(rounds);
}

// ---------------------------------------------------------------------------
// serve_zipf.

std::string RequestBytes(const std::string& body) {
  // Exactly what HttpClient::Post puts on the wire.
  return "POST /query HTTP/1.1\r\nHost: precis\r\nContent-Type: "
         "application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

void RunServeZipf(const Args& args, Stack* s, Outcome* out) {
  Vocabulary vocab = Vocabulary::FromDatabase(s->db());
  std::vector<QueryOp> distinct =
      RankedQueries(vocab, args.seed, kServeDistinct);
  std::vector<uint32_t> seq =
      ZipfSequence(kServeDistinct, kServeZipf, kServeRound, args.seed);
  const size_t n = seq.size();
  out->ops_per_round = n;
  precis::PrecisEngine& engine = *s->engine;

  std::vector<precis::HttpClient> clients;
  for (size_t t = 0; t < kServeClients; ++t) {
    auto c = precis::HttpClient::Connect("127.0.0.1", s->server->port());
    if (!c.ok()) {
      out->Error("connect: " + c.status().ToString());
      return;
    }
    clients.push_back(std::move(*c));
  }

  // The probe's visibility check: the served body of the row's movie title
  // equals a build that bypasses the answer and body caches, and shows the
  // row.
  WriteProbe(s, args.seed, out, [&](const InsertRow& row) {
    auto r = clients[0].Post("/query",
                             RequestBody({row.movie_title}, kVisibilityC));
    Constraints k(kVisibilityC);
    auto a = engine.Answer(precis::PrecisQuery{{row.movie_title}}, *k.degree,
                           *k.cardinality);
    return r.ok() && r->status == 200 && a.ok() &&
           r->body == precis::AnswerToJson(*a) &&
           AnswerHoldsRow(*a, row, s->db());
  });

  // Warm-up round: fills the caches and records each distinct body's bytes
  // (hash and length) for the checks.
  std::vector<std::vector<std::pair<uint32_t, std::pair<uint64_t, size_t>>>>
      seen(kServeClients);
  FailureLedger ledger(n);
  RunRounds(n, kServeClients, 0, true, [&](size_t t, size_t i, size_t) {
    auto r = clients[t].Post("/query", distinct[seq[i]].body);
    if (!r.ok() || r->status != 200) {
      ledger.OpError(i);
      out->Error(QueryText(distinct[seq[i]]) + ": warm-up request failed");
      return;
    }
    seen[t].push_back({seq[i], {Fnv1a(r->body), r->body.size()}});
  });
  std::unordered_map<uint32_t, std::pair<uint64_t, size_t>> body_of;
  for (const auto& part : seen) {
    for (const auto& [idx, hl] : part) {
      auto [it, fresh] = body_of.emplace(idx, hl);
      if (!fresh && it->second != hl) {
        out->Error(QueryText(distinct[idx]) + ": two different bodies served");
      }
    }
  }
  out->distinct_per_round = body_of.size();
  std::vector<size_t> body_len(distinct.size(), 0);
  for (const auto& [idx, hl] : body_of) body_len[idx] = hl.second;

  // Timed rounds: closed loop, one request in flight per connection.
  LatencyLog lat(kServeClients);
  std::vector<double> roundtrip_s(n);
  auto wire = [&](size_t t, size_t i, size_t round, SpanLog* log) {
    auto t0 = Clock::now();
    auto r = clients[t].Post("/query", distinct[seq[i]].body);
    auto t1 = Clock::now();
    if (!r.ok() || r->status != 200 ||
        r->body.size() != body_len[seq[i]]) {
      ledger.OpError(i);
      out->Error(QueryText(distinct[seq[i]]) + ": bad response");
      return;
    }
    double d = SecondsBetween(t0, t1);
    lat.Add(t, round, d);
    roundtrip_s[i] = d;
    if (log != nullptr) {
      int32_t root =
          log->Record("server.roundtrip", static_cast<uint32_t>(i), -1,
                      ToNs(t0), ToNs(t1));
      const std::string* us = r->FindHeader("X-Precis-Latency-Us");
      int64_t exec_ns = us ? std::strtoll(us->c_str(), nullptr, 10) * 1000 : 0;
      // The server-side span's duration comes from the response header; it
      // is placed at the end of its roundtrip.
      log->Record("service.exec", static_cast<uint32_t>(i), root,
                  ToNs(t1) - exec_ns, ToNs(t1));
    }
  };
  CacheSnapshot before = SnapshotCaches(engine);
  Rounds timed =
      RunRounds(n, kServeClients, args.seconds, args.trace,
                [&](size_t t, size_t i, size_t r) { wire(t, i, r, nullptr); });
  const size_t rounds = timed.count;
  CacheSnapshot after = SnapshotCaches(engine);
  out->rounds = rounds;
  out->measured_s = timed.wall_s;
  out->caches =
      "all four cache levels on (answer 64 MiB, body 32 MiB); timed rounds: " +
      DescribeCaches(before, after);
  out->metrics.Add("peak_rss_mb", PeakRssMb(), "MiB");
  AddLatencyMetrics(lat, timed, n, out);
  out->attempted += rounds * n;

  if (!args.trace) {
    UseAllCpus(*s);
    // Every distinct body served equals an uncached in-process answer from
    // a separate engine with every cache off.
    auto ref = precis::PrecisEngine::Create(&s->db(), &s->graph());
    if (!ref.ok()) {
      out->Error("reference engine: " + ref.status().ToString());
      return;
    }
    std::vector<uint32_t> served;
    for (const auto& [idx, hl] : body_of) served.push_back(idx);
    std::sort(served.begin(), served.end());
    std::vector<uint8_t> bad(distinct.size(), 0);
    ParallelFor(served.size(), kCheckThreads, [&](size_t j) {
      const QueryOp& op = distinct[served[j]];
      Constraints k(op.c);
      auto a = ref->Answer(precis::PrecisQuery{op.tokens}, *k.degree,
                           *k.cardinality);
      if (!a.ok() ||
          Fnv1a(precis::AnswerToJson(*a)) != body_of.at(served[j]).first) {
        bad[served[j]] = 1;
        out->Error(QueryText(op) + ": served body differs from an uncached "
                   "in-process answer");
      }
    });
    // The independent answer checks on a sample of the served queries.
    auto catalog = precis::BuildMoviesTemplateCatalog();
    if (!catalog.ok()) {
      out->Error("template catalog: " + catalog.status().ToString());
      return;
    }
    precis::Translator translator(&*catalog);
    AnswerChecker checker(&s->db(), &s->graph());
    std::vector<uint32_t> sample;
    for (size_t j = 0; j < served.size(); j += served.size() / 100 + 1) {
      sample.push_back(served[j]);
    }
    std::vector<std::string> tokens;
    for (uint32_t idx : sample) {
      tokens.insert(tokens.end(), distinct[idx].tokens.begin(),
                    distinct[idx].tokens.end());
    }
    checker.ScanTokens(tokens);
    for (uint32_t idx : sample) {
      const QueryOp& op = distinct[idx];
      Constraints k(op.c);
      auto a = ref->Answer(precis::PrecisQuery{op.tokens}, *k.degree,
                           *k.cardinality);
      if (!a.ok()) continue;
      auto text = translator.Render(*a);
      for (const std::string& e : checker.Check(
               op.tokens, op.c, *a, text.ok() ? *text : std::string())) {
        bad[idx] = 1;
        out->Error(QueryText(op) + ": " + e);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (bad[seq[i]]) ledger.CheckFailed(i);
    }
    out->failed += ledger.Failed(rounds);

    return;
  }

  // Traced run: the wire round again with spans (service.exec from the
  // X-Precis-Latency-Us header), then an in-process replay of the server's
  // path for the same list: HTTP parse, request parse, service submit to
  // callback (queue wait + exec), response header serialization.
  std::vector<SpanLog> wire_logs(kServeClients);
  CacheSnapshot tb = SnapshotCaches(engine);
  std::vector<double> traced_roundtrip(n);
  RunRounds(n, kServeClients, 0, true, [&](size_t t, size_t i, size_t r) {
    double untraced = roundtrip_s[i];
    wire(t, i, r, &wire_logs[t]);
    traced_roundtrip[i] = roundtrip_s[i];
    roundtrip_s[i] = untraced;
  });
  AddCacheMetrics(tb, SnapshotCaches(engine), out);

  std::vector<SpanLog> replay_logs(kServeClients);
  std::vector<std::vector<double>> arena(kServeClients), bytes(kServeClients);
  std::vector<std::string> requests(distinct.size());
  RunRounds(n, kServeClients, 0, true, [&](size_t t, size_t i, size_t) {
    SpanLog* log = &replay_logs[t];
    uint32_t id = static_cast<uint32_t>(i);
    const std::string& body = distinct[seq[i]].body;
    std::string wire_bytes = RequestBytes(body);
    ScopedTrace root(log, "server.replay", id);
    {
      ScopedTrace span(log, "server.http_parse", id, root.id());
      precis::HttpRequestParser parser;
      parser.Feed(wire_bytes.data(), wire_bytes.size());
      if (!parser.complete()) {
        out->Error("replayed request did not parse");
      }
    }
    Result<precis::ParsedQueryRequest> parsed = [&] {
      ScopedTrace span(log, "server.request_parse", id, root.id());
      return precis::ParseQueryRequest(body);
    }();
    if (!parsed.ok()) {
      out->Error("replayed body did not parse: " + parsed.status().ToString());
      return;
    }
    parsed->request.render_body = true;
    std::promise<std::pair<precis::ServiceResponse, int64_t>> done;
    auto fut = done.get_future();
    precis::ServiceResponse response;
    int64_t callback_ns = 0;
    {
      ScopedTrace span(log, "service.submit_wait", id, root.id());
      s->service->SubmitAsync(std::move(parsed->request),
                              [&done](precis::ServiceResponse resp) {
                                done.set_value(
                                    {std::move(resp), ToNs(Clock::now())});
                              });
      auto got = fut.get();
      response = std::move(got.first);
      callback_ns = got.second;
      log->Record("service.exec", id, span.id(),
                  callback_ns -
                      static_cast<int64_t>(response.latency_seconds * 1e9),
                  callback_ns);
    }
    if (!response.status.ok() || response.body_json == nullptr) {
      out->Error("replayed query failed: " + response.status.ToString());
      return;
    }
    precis::HttpResponse http;
    {
      ScopedTrace span(log, "server.serialize", id, root.id());
      http.SetHeader("Content-Type", "application/json");
      http.SetHeader("X-Precis-Stop-Reason",
                     precis::StopReasonToString(response.stop_reason));
      http.SetHeader("X-Precis-Degraded", response.degraded ? "true" : "false");
      http.SetHeader("X-Precis-Latency-Us",
                     std::to_string(static_cast<uint64_t>(
                         response.latency_seconds * 1e6)));
      http.SetHeader("X-Precis-Retries", std::to_string(response.retries));
      http.shared_body = response.body_json;
      std::string headers = precis::SerializeHttpHeaders(http, true);
      bytes[t].push_back(headers.size() + http.body_ref().size());
    }
    arena[t].push_back(response.arena_peak_bytes);
  });

  std::vector<const SpanLog*> wire_ptrs, replay_ptrs;
  for (const SpanLog& l : wire_logs) wire_ptrs.push_back(&l);
  for (const SpanLog& l : replay_logs) replay_ptrs.push_back(&l);
  auto per_op = [](const std::vector<SpanLog>& logs, const char* name) {
    std::vector<double> all;
    for (const SpanLog& l : logs) {
      std::vector<double> v = l.PerOpSeconds(name);
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  };
  std::vector<double> rt = per_op(wire_logs, "server.roundtrip");
  std::vector<double> svc = per_op(wire_logs, "service.exec");
  std::vector<double> overhead;
  for (size_t k = 0; k < rt.size() && k < svc.size(); ++k) {
    overhead.push_back(rt[k] - svc[k]);
  }
  std::vector<double> submit = per_op(replay_logs, "service.submit_wait");
  std::vector<double> exec = per_op(replay_logs, "service.exec");
  std::vector<double> queue_wait;
  for (size_t k = 0; k < submit.size() && k < exec.size(); ++k) {
    queue_wait.push_back(submit[k] - exec[k]);
  }
  MetricSet& m = out->metrics;
  m.Add("server.roundtrip_us", MedianUs(rt), "us");
  m.Add("server.service_us", MedianUs(svc), "us");
  m.Add("server.overhead_us", MedianUs(overhead), "us");
  m.Add("server.http_parse_us",
        MedianUs(per_op(replay_logs, "server.http_parse")), "us");
  m.Add("server.request_parse_us",
        MedianUs(per_op(replay_logs, "server.request_parse")), "us");
  m.Add("server.response_bytes", Median(Flatten(bytes)), "bytes");
  m.Add("service.exec_us", MedianUs(exec), "us");
  m.Add("service.queue_wait_us", MedianUs(queue_wait), "us");
  m.Add("service.arena_peak_bytes", Median(Flatten(arena)), "bytes");
  double traced = 0, untraced = 0;
  for (double d : traced_roundtrip) traced += d;
  for (double d : roundtrip_s) untraced += d;
  m.Add("trace.overhead_ratio", untraced > 0 ? traced / untraced - 1 : 0,
        "ratio");
  ReportTrace(args, "wire", wire_ptrs, out, false);
  ReportTrace(args, "replay", replay_ptrs, out, true);
  out->failed += ledger.Failed(rounds);
}

// ---------------------------------------------------------------------------

/// Confines this thread, and every thread it creates from now on, to one
/// CPU of the allowed set (the highest-numbered). On the 4-vCPU VM the
/// benchmark was tuned on, a process whose threads spread over several vCPUs
/// ran up to 2x slower whenever the host was busy, while a one-CPU process
/// varied only like the single-threaded workloads; so every timed run uses
/// one CPU. Returns the CPU, or -1 when affinity is unavailable.
int PinToOneCpu(cpu_set_t* previous) {
  CPU_ZERO(previous);
  if (sched_getaffinity(0, sizeof(cpu_set_t), previous) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, previous)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(cpu_set_t), &one) == 0 ? cpu : -1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: precis_perfbench --workload "
                 "serve_zipf|precis_cold|sharded_cold|churn --seed N "
                 "--seconds S --trace 0|1 [--setup-only] [--out-dir DIR]\n");
    return 2;
  }
  Stack stack;
  const int pinned_cpu = PinToOneCpu(&stack.all_cpus);
  Status built = BuildStack(args.workload, &stack);
  if (!built.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", built.ToString().c_str());
    return 1;
  }
  if (args.setup_only) {
    std::printf("{\"setup_s\": %s}\n", JsonNumber(stack.total_s).c_str());
    return 0;
  }

  Outcome out;
  std::vector<LayerMetric> layer_metrics(std::begin(kLayerMetrics),
                                         std::end(kLayerMetrics));
  if (args.workload == "sharded_cold") {
    layer_metrics.insert(layer_metrics.end(), std::begin(kShardLayerMetrics),
                         std::end(kShardLayerMetrics));
  }
  if (args.trace) {
    for (const LayerMetric& m : layer_metrics) out.metrics.Add(m.name, 0, m.unit);
    out.metrics.Add("setup.dataset_s", stack.dataset_s, "s");
    out.metrics.Add("setup.index_s", stack.index_s, "s");
    out.metrics.Add("setup.partition_s", stack.partition_s, "s");
    out.metrics.Add("setup.server_s", stack.server_s, "s");
  } else {
    out.metrics.Add("setup_s", stack.total_s, "s");
  }

  if (args.workload == "serve_zipf") {
    RunServeZipf(args, &stack, &out);
  } else if (args.workload == "churn") {
    RunChurn(args, &stack, &out);
  } else {
    RunCold(args, &stack, &out);
  }

  // The run record, then the result line (last on stdout).
  std::string record = "{\"workload\": " + JsonString(args.workload) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"trace\": " + (args.trace ? "true" : "false") +
                       ", \"movies\": " + std::to_string(kMovies) +
                       ", \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"task_pool_threads\": " +
                       std::to_string(precis::TaskPool::Shared()->num_threads()) +
                       ", \"pinned_cpu\": " + std::to_string(pinned_cpu);
  if (args.workload == "serve_zipf") {
    record += ", \"client_threads\": " + std::to_string(kServeClients) +
              ", \"client_connections\": " + std::to_string(kServeClients) +
              ", \"server_io_threads\": " + std::to_string(kServeIoThreads) +
              ", \"server_workers\": " + std::to_string(kServeWorkers);
  } else {
    record += ", \"client_threads\": 1";
  }
  if (args.workload == "sharded_cold") {
    record += ", \"shards\": " + std::to_string(kShards);
  }
  record += ", \"rounds\": " + std::to_string(out.rounds) +
            ", \"ops_per_round\": " + std::to_string(out.ops_per_round) +
            ", \"distinct_queries_per_round\": " +
            std::to_string(out.distinct_per_round) +
            ", \"measured_s\": " + JsonNumber(out.measured_s) +
            ", \"attempted\": " + std::to_string(out.attempted) +
            ", \"failed\": " + std::to_string(out.failed) +
            ", \"caches\": " + JsonString(out.caches) + ", \"errors\": [";
  for (size_t i = 0; i < out.errors.size(); ++i) {
    record += (i ? ", " : "") + JsonString(out.errors[i]);
  }
  record += "]}";
  std::printf("run_record %s\n", record.c_str());
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  std::vector<std::string> names;
  if (args.trace) {
    for (const LayerMetric& m : layer_metrics) names.push_back(m.name);
  } else {
    names = {"setup_s", "qps", "latency_p50_ms", "latency_p99_ms",
             "peak_rss_mb"};
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(out.attempted, 1)),
              static_cast<unsigned long long>(out.failed),
              out.metrics.Only(names).ToJson().c_str());
  std::fflush(stdout);
  precis::TaskPool::Shared()->Shutdown();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
