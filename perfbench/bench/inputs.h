// Workload inputs. Everything here is a pure function of the database
// vocabulary and the --seed, so one seed always yields the same operation
// lists. The dataset itself is fixed (MoviesConfig seed 42); the benchmark
// seed only picks which queries are asked and in which order.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/database.h"
#include "storage/relation.h"

namespace perfbench {

/// Distinct searchable values of the movies database, per kind.
struct Vocabulary {
  std::vector<std::string> directors;
  std::vector<std::string> actors;
  std::vector<std::string> titles;
  std::vector<std::string> genres;

  static Vocabulary FromDatabase(const precis::Database& db);
};

/// One précis query as the workloads ask it: tokens plus the per-relation
/// cardinality bound c (the wire field "tuples_per_relation"). The degree
/// constraint is the serving default, min_path_weight 0.
struct QueryOp {
  std::vector<std::string> tokens;
  size_t c = 5;
  const char* kind = "";
  std::string body;  // the POST /query JSON body for this query
};

/// The POST /query JSON body asking for `tokens` with at most `c` tuples per
/// relation.
std::string RequestBody(const std::vector<std::string>& tokens, size_t c);

/// The precis_cold / sharded_cold list: 1,000 distinct queries with fixed
/// counts per kind and a fixed multiset of c values spread over [5, 50] per
/// kind. The seed picks the tokens and the order.
std::vector<QueryOp> ColdQueryList(const Vocabulary& vocab, uint64_t seed);

/// `n` distinct queries in popularity order (rank 0 = most popular). Kinds
/// and c values follow a fixed cycle down the ranks, so every seed has the
/// same mix at every popularity level; the seed picks the tokens.
std::vector<QueryOp> RankedQueries(const Vocabulary& vocab, uint64_t seed,
                                   size_t n);

/// `length` draws of ranks in [0, n) from a Zipf(s) popularity law.
std::vector<uint32_t> ZipfSequence(size_t n, double s, size_t length,
                                   uint64_t seed);

/// A row for the write path: a GENRE or CAST row that joins an existing
/// movie (and, for CAST, an existing actor). Inserted rows are reached only
/// through joins; Relation::Insert does not update the inverted index.
struct InsertRow {
  std::string relation;
  precis::Tuple tuple;
  /// Title of the joined movie; it names that one movie, so the précis of
  /// the title reaches the row through one join.
  std::string movie_title;
};

/// A seeded stream of joining rows whose primary keys start above every key
/// present in `db` when the source is made.
class InsertRowSource {
 public:
  InsertRowSource(const precis::Database& db, uint64_t seed);
  /// GENRE and CAST rows in turn.
  InsertRow Next();
  /// A CAST row; its only text ("Extra") is no query token, so it changes
  /// no token's seed tuples.
  InsertRow NextCast();

 private:
  // Movies whose title ends in a number: the generator makes those titles
  // unique, so a title token matches exactly one movie.
  std::vector<std::pair<int64_t, std::string>> movies_;
  std::vector<int64_t> actor_ids_;
  std::vector<std::string> genres_;
  int64_t next_gid_ = 0;
  int64_t next_cid_ = 0;
  uint64_t state_;
  uint64_t count_ = 0;

  uint64_t Draw();  // splitmix64 step
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
