// Byte-identity oracle for the §5.3 Result Database Translator: the indexed,
// bind-once renderer (translator/translator.cc) must produce exactly the
// bytes of the original map-based renderer (translator_reference.h) on
// every answer — clause order, joined-tuple order, link-relation merging,
// the dedup of rows a projection left equal, the NotFound degrade paths,
// the fault gate and partial rendering.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/execution_context.h"
#include "common/fault_injection.h"
#include "datagen/bibliography_dataset.h"
#include "datagen/movies_dataset.h"
#include "datagen/movies_templates.h"
#include "precis/engine.h"
#include "translator/catalog.h"
#include "translator/translator.h"
#include "translator_reference.h"

namespace precis {
namespace {

using Query = std::vector<std::string>;

const size_t kCardinalities[] = {1, 3, 5, 10, 20, 50};

/// `n` values of `attribute`, from tuples spread evenly over `relation`.
std::vector<std::string> Sample(const Database& db, const std::string& relation,
                                const std::string& attribute, size_t n) {
  std::vector<std::string> out;
  auto rel = db.GetRelation(relation);
  if (!rel.ok()) return out;
  auto pos = (*rel)->schema().AttributeIndex(attribute);
  if (!pos.ok() || (*rel)->num_tuples() == 0) return out;
  const size_t step = std::max<size_t>(1, (*rel)->num_tuples() / n);
  for (Tid tid = 0; tid < (*rel)->num_tuples() && out.size() < n;
       tid += step) {
    const Value& v = (*rel)->tuple(tid)[*pos];
    if (v.is_string()) out.push_back(v.AsString());
  }
  return out;
}

/// One database with its templates, engine and oracle query set.
struct Corpus {
  std::string name;
  std::unique_ptr<PrecisEngine> engine;
  std::unique_ptr<TemplateCatalog> catalog;
  std::vector<Query> queries;
};

class TranslatorOracleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (size_t movies : {size_t{300}, size_t{2000}}) {
      MoviesConfig config;
      config.num_movies = movies;
      auto ds = MoviesDataset::Create(config);
      ASSERT_TRUE(ds.ok()) << ds.status();
      movies_.push_back(std::make_unique<MoviesDataset>(std::move(*ds)));
      const MoviesDataset& d = *movies_.back();
      Corpus corpus;
      corpus.name = "movies" + std::to_string(movies);
      auto catalog = BuildMoviesTemplateCatalog();
      ASSERT_TRUE(catalog.ok()) << catalog.status();
      corpus.catalog = std::make_unique<TemplateCatalog>(std::move(*catalog));
      auto engine = PrecisEngine::Create(&d.db(), &d.graph());
      ASSERT_TRUE(engine.ok()) << engine.status();
      corpus.engine = std::make_unique<PrecisEngine>(std::move(*engine));
      // "Woody Allen" is the paper's homonym: a director and an actor.
      corpus.queries.push_back({"Woody Allen"});
      auto directors = Sample(d.db(), "DIRECTOR", "dname", 3);
      auto actors = Sample(d.db(), "ACTOR", "aname", 3);
      auto titles = Sample(d.db(), "MOVIE", "title", 3);
      auto genres = Sample(d.db(), "GENRE", "genre", 3);
      for (const auto& list : {directors, actors, titles, genres}) {
        for (const std::string& token : list) corpus.queries.push_back({token});
      }
      for (size_t i = 0; i < 2; ++i) {
        corpus.queries.push_back({directors[i], actors[i]});
        corpus.queries.push_back({titles[i], genres[i]});
      }
      corpora_.push_back(std::move(corpus));
    }

    BibliographyConfig config;
    config.num_papers = 300;
    auto ds = BibliographyDataset::Create(config);
    ASSERT_TRUE(ds.ok()) << ds.status();
    bibliography_ = std::make_unique<BibliographyDataset>(std::move(*ds));
    Corpus corpus;
    corpus.name = "bibliography";
    auto catalog = BuildBibliographyTemplateCatalog();
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    corpus.catalog = std::make_unique<TemplateCatalog>(std::move(*catalog));
    auto engine = PrecisEngine::Create(&bibliography_->db(),
                                       &bibliography_->graph());
    ASSERT_TRUE(engine.ok()) << engine.status();
    corpus.engine = std::make_unique<PrecisEngine>(std::move(*engine));
    auto authors = Sample(bibliography_->db(), "AUTHOR", "name", 3);
    auto papers = Sample(bibliography_->db(), "PAPER", "title", 2);
    auto venues = Sample(bibliography_->db(), "VENUE", "vname", 2);
    auto keywords = Sample(bibliography_->db(), "KEYWORD", "kw", 2);
    for (const auto& list : {authors, papers, venues, keywords}) {
      for (const std::string& token : list) corpus.queries.push_back({token});
    }
    corpus.queries.push_back({authors[0], venues[0]});
    corpora_.push_back(std::move(corpus));
  }

  static void TearDownTestSuite() {
    corpora_.clear();
    movies_.clear();
    bibliography_.reset();
  }

  static Result<PrecisAnswer> Ask(const Corpus& corpus, const Query& query,
                                  double min_weight, size_t c) {
    return corpus.engine->Answer(PrecisQuery{query},
                                 *MinPathWeight(min_weight),
                                 *MaxTuplesPerRelation(c));
  }

  /// Render and every RenderOccurrence must match the reference byte for
  /// byte. Returns the number of narrative bytes compared.
  static size_t ExpectIdentical(const Corpus& corpus,
                                const PrecisAnswer& answer,
                                const std::string& label) {
    Translator translator(corpus.catalog.get());
    reference::ReferenceTranslator oracle(corpus.catalog.get());
    auto got = translator.Render(answer);
    auto want = oracle.Render(answer);
    EXPECT_EQ(got.ok(), want.ok()) << label;
    if (!got.ok() || !want.ok()) return 0;
    EXPECT_EQ(*got, *want) << label;
    for (const TokenMatch& match : answer.matches) {
      for (const TokenOccurrence& occ : match.occurrences()) {
        auto got_p = translator.RenderOccurrence(answer, match.token, occ);
        auto want_p = oracle.RenderOccurrence(answer, match.token, occ);
        EXPECT_EQ(got_p.ok(), want_p.ok()) << label;
        if (got_p.ok() && want_p.ok()) {
          EXPECT_EQ(*got_p, *want_p) << label << " in " << occ.relation;
        }
      }
    }
    return got->size();
  }

  static std::vector<std::unique_ptr<MoviesDataset>> movies_;
  static std::unique_ptr<BibliographyDataset> bibliography_;
  static std::vector<Corpus> corpora_;
};

std::vector<std::unique_ptr<MoviesDataset>> TranslatorOracleTest::movies_;
std::unique_ptr<BibliographyDataset> TranslatorOracleTest::bibliography_;
std::vector<Corpus> TranslatorOracleTest::corpora_;

TEST_F(TranslatorOracleTest, EveryQueryKindAndCardinalityIsByteIdentical) {
  for (const Corpus& corpus : corpora_) {
    size_t bytes = 0;
    for (const Query& query : corpus.queries) {
      for (size_t c : kCardinalities) {
        auto answer = Ask(corpus, query, 0.0, c);
        ASSERT_TRUE(answer.ok()) << answer.status();
        std::string label = corpus.name + " c=" + std::to_string(c) + " [" +
                            query.front() + (query.size() > 1 ? ", ..." : "") +
                            "]";
        bytes += ExpectIdentical(corpus, *answer, label);
      }
    }
    // The comparison must have covered real narratives.
    EXPECT_GT(bytes, 10000u) << corpus.name;
  }
}

TEST_F(TranslatorOracleTest, DegreeConstraintDroppingTemplateAttributes) {
  // At w >= 0.9 (and 0.5) the templates reference attributes the result
  // schema no longer projects: projection clauses degrade to the heading
  // value and join clauses are skipped, and rows that lost their key
  // collapse under the equality-class dedup.
  for (const Corpus& corpus : corpora_) {
    for (double w : {0.5, 0.9}) {
      for (const Query& query : corpus.queries) {
        for (size_t c : kCardinalities) {
          auto answer = Ask(corpus, query, w, c);
          ASSERT_TRUE(answer.ok()) << answer.status();
          ExpectIdentical(corpus, *answer,
                          corpus.name + " w=" + std::to_string(w) +
                              " c=" + std::to_string(c) + " [" +
                              query.front() + "]");
        }
      }
    }
  }
}

TEST_F(TranslatorOracleTest, PaperHomonymKeepsOneParagraphPerOccurrence) {
  const Corpus& corpus = corpora_.front();
  auto answer = Ask(corpus, {"Woody Allen"}, 0.0, 50);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->matches.size(), 1u);
  EXPECT_GE(answer->matches[0].occurrences().size(), 2u);
  ExpectIdentical(corpus, *answer, "homonym");
  Translator translator(corpus.catalog.get());
  auto text = translator.Render(*answer);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("As a director, Woody Allen's work includes"),
            std::string::npos);
  EXPECT_NE(text->find("As an actor, Woody Allen's work includes"),
            std::string::npos);
}

TEST(TranslatorOracleEqualRowsTest, RowsLeftEqualByTheProjectionContinueOnce) {
  // SHOP -sid-> ITEM -label-> TAG, where ITEM's key iid is not projected
  // at w >= 0.5: the shop's two "pen" items become equal result rows. The
  // SHOP -> ITEM clause lists both (joined lists are not deduplicated), but
  // the walk continues from one of them, so "pen is for writing." is said
  // once — the reference's rendered-binding dedup, which class ids keep.
  Database db("shop");
  auto make = [&](const std::string& name,
                  std::vector<AttributeSchema> attrs) {
    RelationSchema schema(name, std::move(attrs));
    ASSERT_TRUE(schema.SetPrimaryKey(schema.attribute(0).name).ok());
    ASSERT_TRUE(db.CreateRelation(std::move(schema)).ok());
  };
  make("SHOP", {{"sid", DataType::kInt64}, {"sname", DataType::kString}});
  make("ITEM", {{"iid", DataType::kInt64},
                {"sid", DataType::kInt64},
                {"label", DataType::kString}});
  make("TAG", {{"tid", DataType::kInt64},
               {"label", DataType::kString},
               {"note", DataType::kString}});
  auto insert = [&](const std::string& rel, Tuple tuple) {
    ASSERT_TRUE((*db.GetRelation(rel))->Insert(std::move(tuple)).ok());
  };
  insert("SHOP", {Value(int64_t{1}), Value("Acme Stationers")});
  insert("ITEM", {Value(int64_t{10}), Value(int64_t{1}), Value("pen")});
  insert("ITEM", {Value(int64_t{11}), Value(int64_t{1}), Value("pen")});
  insert("ITEM", {Value(int64_t{12}), Value(int64_t{1}), Value("ink")});
  insert("TAG", {Value(int64_t{20}), Value("pen"), Value("writing")});
  insert("TAG", {Value(int64_t{21}), Value("ink"), Value("refills")});

  auto graph = SchemaGraph::FromDatabase(db);
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(graph->AddProjectionEdge("SHOP", "sname", 1.0).ok());
  ASSERT_TRUE(graph->AddProjectionEdge("SHOP", "sid", 0.1).ok());
  ASSERT_TRUE(graph->AddProjectionEdge("ITEM", "label", 1.0).ok());
  ASSERT_TRUE(graph->AddProjectionEdge("ITEM", "iid", 0.1).ok());
  ASSERT_TRUE(graph->AddProjectionEdge("ITEM", "sid", 0.1).ok());
  ASSERT_TRUE(graph->AddProjectionEdge("TAG", "note", 1.0).ok());
  ASSERT_TRUE(graph->AddProjectionEdge("TAG", "label", 0.1).ok());
  ASSERT_TRUE(graph->AddProjectionEdge("TAG", "tid", 0.1).ok());
  ASSERT_TRUE(graph->AddJoinEdge("SHOP", "sid", "ITEM", "sid", 1.0).ok());
  ASSERT_TRUE(graph->AddJoinEdge("ITEM", "label", "TAG", "label", 1.0).ok());
  ASSERT_TRUE(graph->Validate().ok());

  TemplateCatalog catalog;
  catalog.SetHeadingAttribute("SHOP", "sname");
  catalog.SetHeadingAttribute("ITEM", "label");
  catalog.SetHeadingAttribute("TAG", "note");
  ASSERT_TRUE(catalog.SetProjectionTemplate("SHOP", "@SNAME.").ok());
  ASSERT_TRUE(
      catalog.SetJoinTemplate("SHOP", "ITEM", "@SNAME sells @LABEL.").ok());
  ASSERT_TRUE(
      catalog.SetJoinTemplate("ITEM", "TAG", "@LABEL is for @NOTE.").ok());

  auto engine = PrecisEngine::Create(&db, &*graph);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto answer = engine->Answer(PrecisQuery{{"Acme"}}, *MinPathWeight(0.5),
                               *MaxTuplesPerRelation(10));
  ASSERT_TRUE(answer.ok()) << answer.status();
  auto want = reference::ReferenceTranslator(&catalog).Render(*answer);
  auto got = Translator(&catalog).Render(*answer);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(*want,
            "Acme Stationers. Acme Stationers sells pen, pen, ink. pen is for "
            "writing. ink is for refills.");
  EXPECT_EQ(*got, *want);
}

TEST_F(TranslatorOracleTest, CatalogFaultPlaceholdersMatch) {
  const Corpus& corpus = corpora_.front();
  auto answer = Ask(corpus, {"Woody Allen"}, 0.0, 10);
  ASSERT_TRUE(answer.ok());
  Translator translator(corpus.catalog.get());
  reference::ReferenceTranslator oracle(corpus.catalog.get());
  int degraded = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    // The same seed gives both renderers the same fault sequence.
    std::string got, want;
    for (int side = 0; side < 2; ++side) {
      FaultInjector injector(seed);
      injector.SetSchedule(FaultSite::kTranslatorCatalog,
                           FaultSchedule::Probability(0.6));
      ExecutionContext ctx;
      ctx.SetFaultInjector(&injector);
      RetryPolicy policy;
      policy.max_attempts = 2;
      policy.initial_backoff_ns = 0;
      ctx.set_retry_policy(policy);
      auto text = side == 0 ? translator.Render(*answer, &ctx)
                            : oracle.Render(*answer, &ctx);
      ASSERT_TRUE(text.ok()) << text.status();
      (side == 0 ? got : want) = *text;
    }
    EXPECT_EQ(got, want) << "seed " << seed;
    if (got.find("[précis narrative unavailable") != std::string::npos) {
      ++degraded;
    }
  }
  // The seeds cover both outcomes of the gate.
  EXPECT_GT(degraded, 0);
  EXPECT_LT(degraded, 8);
}

TEST_F(TranslatorOracleTest, StoppedContextReturnsAParagraphPrefix) {
  // Rendering stops between subjects (and occurrences) once the context
  // says so, so a stopped render is the reference's first k paragraphs.
  const Corpus& movies = corpora_[1];  // 2,000 movies
  Translator translator(movies.catalog.get());
  reference::ReferenceTranslator oracle(movies.catalog.get());
  const Query& genre = movies.queries[10];  // the first genre token
  auto answer = Ask(movies, genre, 0.0, 50);
  ASSERT_TRUE(answer.ok());
  auto full = oracle.Render(*answer);
  ASSERT_TRUE(full.ok());
  std::vector<std::string> prefixes = {""};
  for (size_t at = full->find("\n\n"); at != std::string::npos;
       at = full->find("\n\n", at + 2)) {
    prefixes.push_back(full->substr(0, at));
  }
  prefixes.push_back(*full);
  ASSERT_GT(prefixes.size(), 10u) << "expected a many-subject narrative";

  {  // Stopped before the first subject, of the answer and of each
     // occurrence on its own.
    ExecutionContext ctx;
    ctx.Cancel();
    auto text = translator.Render(*answer, &ctx);
    ASSERT_TRUE(text.ok());
    EXPECT_EQ(*text, "");
    for (const TokenOccurrence& occ : answer->matches[0].occurrences()) {
      auto paragraphs =
          translator.RenderOccurrence(*answer, genre.front(), occ, &ctx);
      ASSERT_TRUE(paragraphs.ok());
      EXPECT_TRUE(paragraphs->empty()) << occ.relation;
    }
  }
  // Stopped part-way, at whatever subject a second thread's Cancel lands
  // on: the text is always one of the reference's paragraph prefixes.
  for (int delay_us = 0; delay_us < 400; delay_us += 8) {
    ExecutionContext ctx;
    std::atomic<bool> started{false};
    std::thread canceller([&] {
      while (!started.load()) std::this_thread::yield();
      auto until = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(delay_us);
      while (std::chrono::steady_clock::now() < until) {
      }
      ctx.Cancel();
    });
    started.store(true);
    auto text = translator.Render(*answer, &ctx);
    canceller.join();
    ASSERT_TRUE(text.ok());
    EXPECT_NE(std::find(prefixes.begin(), prefixes.end(), *text),
              prefixes.end())
        << "delay " << delay_us << "us: not a paragraph prefix";
  }
}

}  // namespace
}  // namespace precis
