#include "bench/inputs.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "common/random.h"
#include "precis/json_export.h"

namespace perfbench {

namespace {

std::vector<std::string> DistinctStrings(const precis::Database& db,
                                         const std::string& relation,
                                         const std::string& attribute) {
  std::vector<std::string> out;
  auto rel = db.GetRelation(relation);
  if (!rel.ok()) return out;
  auto idx = (*rel)->schema().AttributeIndex(attribute);
  if (!idx.ok()) return out;
  std::unordered_set<std::string> seen;
  for (precis::Tid tid = 0; tid < (*rel)->num_tuples(); ++tid) {
    const precis::Value& v = (*rel)->tuple(tid)[*idx];
    if (!v.is_string()) continue;
    if (seen.insert(v.AsString()).second) out.push_back(v.AsString());
  }
  return out;
}

std::vector<int64_t> IntColumn(const precis::Database& db,
                               const std::string& relation,
                               const std::string& attribute) {
  std::vector<int64_t> out;
  auto rel = db.GetRelation(relation);
  if (!rel.ok()) return out;
  auto idx = (*rel)->schema().AttributeIndex(attribute);
  if (!idx.ok()) return out;
  for (precis::Tid tid = 0; tid < (*rel)->num_tuples(); ++tid) {
    out.push_back((*rel)->tuple(tid)[*idx].AsInt64());
  }
  return out;
}

std::string Key(const QueryOp& op) {
  std::string key = std::to_string(op.c);
  for (const std::string& t : op.tokens) key += '\x1f' + t;
  return key;
}

/// Draws queries of one kind, never repeating a (tokens, c) pair already in
/// `seen`.
class Drawer {
 public:
  Drawer(const Vocabulary& vocab, precis::Rng* rng) : v_(vocab), rng_(rng) {}

  QueryOp Draw(const char* kind, size_t c) {
    for (;;) {
      QueryOp op;
      op.kind = kind;
      op.c = c;
      std::string k = kind;
      if (k == "director") {
        op.tokens = {Pick(v_.directors)};
      } else if (k == "actor") {
        op.tokens = {Pick(v_.actors)};
      } else if (k == "title") {
        op.tokens = {Pick(v_.titles)};
      } else if (k == "genre") {
        op.tokens = {Pick(v_.genres)};
      } else if (k == "director+actor") {
        op.tokens = {Pick(v_.directors), Pick(v_.actors)};
      } else {  // "title+genre"
        op.tokens = {Pick(v_.titles), Pick(v_.genres)};
      }
      if (seen_.insert(Key(op)).second) {
        op.body = RequestBody(op.tokens, op.c);
        return op;
      }
    }
  }

 private:
  const std::string& Pick(const std::vector<std::string>& from) {
    return from[rng_->Index(from.size())];
  }

  const Vocabulary& v_;
  precis::Rng* rng_;
  std::unordered_set<std::string> seen_;
};

}  // namespace

std::string RequestBody(const std::vector<std::string>& tokens, size_t c) {
  std::string body = "{\"tokens\":[";
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) body += ',';
    body += '"' + precis::JsonEscape(tokens[i]) + '"';
  }
  return body + "],\"tuples_per_relation\":" + std::to_string(c) + "}";
}

Vocabulary Vocabulary::FromDatabase(const precis::Database& db) {
  Vocabulary v;
  v.directors = DistinctStrings(db, "DIRECTOR", "dname");
  v.actors = DistinctStrings(db, "ACTOR", "aname");
  v.titles = DistinctStrings(db, "MOVIE", "title");
  v.genres = DistinctStrings(db, "GENRE", "genre");
  return v;
}

std::vector<QueryOp> ColdQueryList(const Vocabulary& vocab, uint64_t seed) {
  // Per-round counts. Broad genre tokens (thousands of seed tuples each) are
  // the expensive tail; at 5% of the list the p99 falls inside them, not on
  // the boundary between them and the rest, so it is steady across seeds.
  struct KindCount {
    const char* kind;
    size_t n;
  };
  const KindCount kinds[] = {{"director", 300},      {"actor", 300},
                             {"title", 250},         {"genre", 50},
                             {"director+actor", 50}, {"title+genre", 50}};
  precis::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  Drawer drawer(vocab, &rng);
  std::vector<QueryOp> ops;
  for (const KindCount& k : kinds) {
    // A fixed multiset of c values spread evenly over [5, 50]; the shuffle
    // only decides which token meets which c.
    std::vector<size_t> cs;
    for (size_t j = 0; j < k.n; ++j) cs.push_back(5 + (45 * j) / (k.n - 1));
    rng.Shuffle(&cs);
    for (size_t c : cs) ops.push_back(drawer.Draw(k.kind, c));
  }
  rng.Shuffle(&ops);
  return ops;
}

std::vector<QueryOp> RankedQueries(const Vocabulary& vocab, uint64_t seed,
                                   size_t n) {
  static const size_t kCs[] = {5, 10, 20, 50};
  static const char* kCycle[] = {"director", "actor", "title",
                                 "director", "actor", "title",
                                 "director", "actor", "title"};
  precis::Rng rng(seed * 0xD1B54A32D192ED03ull + 7);
  Drawer drawer(vocab, &rng);
  std::vector<QueryOp> ops;
  ops.reserve(n);
  size_t genre_bodies = 0;
  const size_t max_genre_bodies = vocab.genres.size() * 4;
  for (size_t r = 0; r < n; ++r) {
    size_t c = kCs[(r / 10) % 4];
    if (r % 100 == 99 && genre_bodies < max_genre_bodies) {
      // Every (genre, c) pair once, at fixed ranks 99, 199, ...
      ops.push_back(drawer.Draw("genre", kCs[genre_bodies % 4]));
      ++genre_bodies;
    } else if (r % 10 == 9) {
      ops.push_back(
          drawer.Draw((r / 10) % 2 == 0 ? "director+actor" : "title+genre", c));
    } else {
      ops.push_back(drawer.Draw(kCycle[r % 10], c));
    }
  }
  return ops;
}

std::vector<uint32_t> ZipfSequence(size_t n, double s, size_t length,
                                   uint64_t seed) {
  precis::ZipfSampler zipf(n, s);
  precis::Rng rng(seed * 0xA24BAED4963EE407ull + 3);
  std::vector<uint32_t> seq(length);
  for (uint32_t& r : seq) r = static_cast<uint32_t>(zipf.Sample(&rng));
  return seq;
}

InsertRowSource::InsertRowSource(const precis::Database& db, uint64_t seed)
    : actor_ids_(IntColumn(db, "ACTOR", "aid")),
      genres_(DistinctStrings(db, "GENRE", "genre")),
      state_(seed * 0x9E3779B97F4A7C15ull + 11) {
  auto movie = db.GetRelation("MOVIE");
  if (movie.ok()) {
    for (precis::Tid tid = 0; tid < (*movie)->num_tuples(); ++tid) {
      const precis::Tuple& t = (*movie)->tuple(tid);
      const std::string& title = t[1].AsString();
      size_t space = title.rfind(' ');
      bool numbered = space != std::string::npos && space + 1 < title.size();
      for (size_t k = space + 1; numbered && k < title.size(); ++k) {
        numbered = std::isdigit(static_cast<unsigned char>(title[k])) != 0;
      }
      if (numbered) movies_.push_back({t[0].AsInt64(), title});
    }
  }
  for (int64_t gid : IntColumn(db, "GENRE", "gid")) {
    next_gid_ = std::max(next_gid_, gid + 1);
  }
  for (int64_t cid : IntColumn(db, "CAST", "cid")) {
    next_cid_ = std::max(next_cid_, cid + 1);
  }
}

uint64_t InsertRowSource::Draw() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

InsertRow InsertRowSource::Next() {
  if (count_++ % 2 == 1) return NextCast();
  const auto& [mid, title] = movies_[Draw() % movies_.size()];
  return {"GENRE", {next_gid_++, mid, genres_[Draw() % genres_.size()]},
          title};
}

InsertRow InsertRowSource::NextCast() {
  const auto& [mid, title] = movies_[Draw() % movies_.size()];
  return {"CAST",
          {next_cid_++, mid, actor_ids_[Draw() % actor_ids_.size()], "Extra"},
          title};
}

}  // namespace perfbench
