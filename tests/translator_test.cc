#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datagen/movies_dataset.h"
#include "datagen/movies_templates.h"
#include "precis/engine.h"
#include "translator/catalog.h"
#include "translator/template.h"
#include "translator/translator.h"

namespace precis {
namespace {

// ===== Template language =====

/// Owns the attribute names and values a BoundRow views.
struct Row {
  std::vector<std::string> names;
  std::vector<Value> values;
  BoundRow view() const { return BoundRow{&names, values.data()}; }
};

Row MakeRow(std::initializer_list<std::pair<std::string, Value>> cells) {
  Row row;
  for (const auto& [name, value] : cells) {
    row.names.push_back(name);
    row.values.push_back(value);
  }
  return row;
}

/// Views of `rows`, for TemplateContext::list; `rows` must outlive them.
std::vector<BoundRow> Views(const std::vector<Row>& rows) {
  std::vector<BoundRow> views;
  for (const Row& row : rows) views.push_back(row.view());
  return views;
}

Row Woody() {
  return MakeRow({{"dname", Value("Woody Allen")},
                  {"bdate", Value("December 1, 1935")},
                  {"blocation", Value("Brooklyn, New York, USA")}});
}

std::vector<Row> ThreeMovies() {
  return {MakeRow({{"title", Value("Match Point")},
                   {"year", Value(int64_t{2005})}}),
          MakeRow({{"title", Value("Melinda and Melinda")},
                   {"year", Value(int64_t{2004})}}),
          MakeRow({{"title", Value("Anything Else")},
                   {"year", Value(int64_t{2003})}})};
}

TEST(TemplateTest, LiteralOnly) {
  auto t = Template::Parse("hello world");
  ASSERT_TRUE(t.ok());
  TemplateContext ctx;
  EXPECT_EQ(*t->Evaluate(ctx, nullptr), "hello world");
}

TEST(TemplateTest, SubjectVariableSubstitution) {
  auto t = Template::Parse("@DNAME was born on @BDATE in @BLOCATION.");
  ASSERT_TRUE(t.ok());
  Row subject = Woody();
  TemplateContext ctx;
  ctx.subjects.push_back(subject.view());
  EXPECT_EQ(*t->Evaluate(ctx, nullptr),
            "Woody Allen was born on December 1, 1935 in Brooklyn, New "
            "York, USA.");
}

TEST(TemplateTest, VariableNamesAreCaseInsensitive) {
  auto t = Template::Parse("@dname / @DnAmE");
  ASSERT_TRUE(t.ok());
  Row subject = Woody();
  TemplateContext ctx;
  ctx.subjects.push_back(subject.view());
  EXPECT_EQ(*t->Evaluate(ctx, nullptr), "Woody Allen / Woody Allen");
}

TEST(TemplateTest, UnboundVariableIsNotFound) {
  auto t = Template::Parse("@NOPE");
  ASSERT_TRUE(t.ok());
  TemplateContext ctx;
  EXPECT_TRUE(t->Evaluate(ctx, nullptr).status().IsNotFound());
}

TEST(TemplateTest, AncestorChainResolution) {
  auto t = Template::Parse("@ANAME plays in @TITLE");
  ASSERT_TRUE(t.ok());
  Row movie = MakeRow({{"title", Value("Match Point")}});
  Row actor = MakeRow({{"aname", Value("Scarlett Johansson")}});
  TemplateContext ctx;
  ctx.subjects.push_back(movie.view());
  ctx.subjects.push_back(actor.view());  // ancestor
  EXPECT_EQ(*t->Evaluate(ctx, nullptr),
            "Scarlett Johansson plays in Match Point");
}

TEST(TemplateTest, InnermostSubjectWins) {
  auto t = Template::Parse("@X");
  Row inner = MakeRow({{"x", Value("inner")}});
  Row outer = MakeRow({{"x", Value("outer")}});
  TemplateContext ctx;
  ctx.subjects.push_back(inner.view());
  ctx.subjects.push_back(outer.view());
  EXPECT_EQ(*t->Evaluate(ctx, nullptr), "inner");
}

TEST(TemplateTest, ListVariableJoinsAllValues) {
  // "Match Point is Drama, Thriller."
  auto t = Template::Parse("@TITLE is @GENRE.");
  ASSERT_TRUE(t.ok());
  Row movie = MakeRow({{"title", Value("Match Point")}});
  std::vector<Row> genres = {MakeRow({{"genre", Value("Drama")}}),
                             MakeRow({{"genre", Value("Thriller")}})};
  std::vector<BoundRow> genre_views = Views(genres);
  TemplateContext ctx;
  ctx.subjects.push_back(movie.view());
  ctx.list = &genre_views;
  EXPECT_EQ(*t->Evaluate(ctx, nullptr), "Match Point is Drama, Thriller.");
}

TEST(TemplateTest, LoopAllButLastThenLast) {
  auto t = Template::Parse(
      "[i<arityof(@TITLE)]{@TITLE[$i$] (@YEAR[$i$]), }"
      "[i=arityof(@TITLE)]{@TITLE[$i$] (@YEAR[$i$]).}");
  ASSERT_TRUE(t.ok());
  std::vector<Row> movies = ThreeMovies();
  std::vector<BoundRow> movie_views = Views(movies);
  TemplateContext ctx;
  ctx.list = &movie_views;
  EXPECT_EQ(*t->Evaluate(ctx, nullptr),
            "Match Point (2005), Melinda and Melinda (2004), Anything Else "
            "(2003).");
}

TEST(TemplateTest, LoopWithSingleElementRunsOnlyLastBlock) {
  auto t = Template::Parse(
      "[i<arityof(@TITLE)]{@TITLE[$i$], }[i=arityof(@TITLE)]{@TITLE[$i$].}");
  std::vector<Row> rows = {MakeRow({{"title", Value("Match Point")}})};
  std::vector<BoundRow> one = Views(rows);
  TemplateContext ctx;
  ctx.list = &one;
  EXPECT_EQ(*t->Evaluate(ctx, nullptr), "Match Point.");
}

TEST(TemplateTest, LoopWithEmptyListProducesNothing) {
  auto t = Template::Parse("x[i=arityof(@TITLE)]{@TITLE[$i$]}y");
  std::vector<BoundRow> none;
  TemplateContext ctx;
  ctx.list = &none;
  EXPECT_EQ(*t->Evaluate(ctx, nullptr), "xy");
}

TEST(TemplateTest, IndexedVariableOutsideLoopIsError) {
  auto t = Template::Parse("@TITLE[$i$]");
  ASSERT_TRUE(t.ok());
  std::vector<Row> movies = ThreeMovies();
  std::vector<BoundRow> movie_views = Views(movies);
  TemplateContext ctx;
  ctx.list = &movie_views;
  EXPECT_TRUE(t->Evaluate(ctx, nullptr).status().IsInvalidArgument());
}

TEST(TemplateTest, PlainBracketsAreLiteral) {
  auto t = Template::Parse("a [not a loop] b");
  ASSERT_TRUE(t.ok());
  TemplateContext ctx;
  EXPECT_EQ(*t->Evaluate(ctx, nullptr), "a [not a loop] b");
}

TEST(TemplateTest, ParseErrors) {
  EXPECT_TRUE(Template::Parse("@").status().IsInvalidArgument());
  EXPECT_TRUE(Template::Parse("[i<arityof(@X)]{unclosed")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Template::Parse("%unclosed").status().IsInvalidArgument());
  EXPECT_TRUE(Template::Parse("%%").status().IsInvalidArgument());
  EXPECT_TRUE(Template::Parse("[i<arityof(@X)]no-brace")
                  .status()
                  .IsInvalidArgument());
}

TEST(TemplateTest, MacroExpansion) {
  TemplateCatalog catalog;
  ASSERT_TRUE(catalog.DefineMacro("GREET", "hello @DNAME").ok());
  auto t = Template::Parse("<< %GREET% >>");
  ASSERT_TRUE(t.ok());
  Row subject = Woody();
  TemplateContext ctx;
  ctx.subjects.push_back(subject.view());
  EXPECT_EQ(*t->Evaluate(ctx, &catalog), "<< hello Woody Allen >>");
}

TEST(TemplateTest, UndefinedMacroIsNotFound) {
  TemplateCatalog catalog;
  auto t = Template::Parse("%NOPE%");
  EXPECT_TRUE(t->Evaluate(TemplateContext{}, &catalog).status().IsNotFound());
}

TEST(TemplateTest, MacroWithoutCatalogIsError) {
  auto t = Template::Parse("%X%");
  EXPECT_TRUE(
      t->Evaluate(TemplateContext{}, nullptr).status().IsInvalidArgument());
}

TEST(TemplateTest, MacroRecursionIsBounded) {
  TemplateCatalog catalog;
  ASSERT_TRUE(catalog.DefineMacro("LOOP", "%LOOP%").ok());
  auto t = Template::Parse("%LOOP%");
  EXPECT_TRUE(
      t->Evaluate(TemplateContext{}, &catalog).status().IsInvalidArgument());
}

TEST(TemplateTest, PaperMovieListMacro) {
  TemplateCatalog catalog;
  ASSERT_TRUE(catalog
                  .DefineMacro("MOVIE_LIST",
                               "[i<arityof(@TITLE)]{@TITLE[$i$] (@YEAR[$i$]), "
                               "}[i=arityof(@TITLE)]{@TITLE[$i$] "
                               "(@YEAR[$i$]).}")
                  .ok());
  auto t =
      Template::Parse("As a director, @DNAME's work includes %MOVIE_LIST%");
  ASSERT_TRUE(t.ok());
  Row subject = Woody();
  std::vector<Row> movies = ThreeMovies();
  std::vector<BoundRow> movie_views = Views(movies);
  TemplateContext ctx;
  ctx.subjects.push_back(subject.view());
  ctx.list = &movie_views;
  EXPECT_EQ(*t->Evaluate(ctx, &catalog),
            "As a director, Woody Allen's work includes Match Point (2005), "
            "Melinda and Melinda (2004), Anything Else (2003).");
}

// ===== Functions =====

TEST(TemplateFunctionTest, UpperLowerTrim) {
  Row subject = Woody();
  TemplateContext ctx;
  ctx.subjects.push_back(subject.view());
  EXPECT_EQ(*Template::Parse("$upper(@DNAME)$")->Evaluate(ctx, nullptr),
            "WOODY ALLEN");
  EXPECT_EQ(*Template::Parse("$lower(@DNAME)$")->Evaluate(ctx, nullptr),
            "woody allen");
  EXPECT_EQ(*Template::Parse("$trim(  x  )$")->Evaluate(ctx, nullptr), "x");
}

TEST(TemplateFunctionTest, FunctionsNest) {
  Row subject = Woody();
  TemplateContext ctx;
  ctx.subjects.push_back(subject.view());
  EXPECT_EQ(
      *Template::Parse("$upper($trim(  @DNAME  )$)$")->Evaluate(ctx, nullptr),
      "WOODY ALLEN");
}

TEST(TemplateFunctionTest, CountReportsListArity) {
  std::vector<Row> movies = ThreeMovies();
  std::vector<BoundRow> movie_views = Views(movies);
  TemplateContext ctx;
  ctx.list = &movie_views;
  EXPECT_EQ(*Template::Parse("$count(@TITLE)$ works")->Evaluate(ctx, nullptr),
            "3 works");
}

TEST(TemplateFunctionTest, CountOnSubjectIsOneAndUnboundIsZero) {
  Row subject = Woody();
  TemplateContext ctx;
  ctx.subjects.push_back(subject.view());
  EXPECT_EQ(*Template::Parse("$count(@DNAME)$")->Evaluate(ctx, nullptr), "1");
  EXPECT_EQ(*Template::Parse("$count(@NOPE)$")->Evaluate(ctx, nullptr), "0");
}

TEST(TemplateFunctionTest, CountRequiresSingleVariable) {
  TemplateContext ctx;
  EXPECT_TRUE(Template::Parse("$count(xyz)$")
                  ->Evaluate(ctx, nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST(TemplateFunctionTest, UnknownFunctionIsParseError) {
  EXPECT_TRUE(Template::Parse("$frobnicate(@X)$").status().IsInvalidArgument());
}

TEST(TemplateFunctionTest, UnterminatedFunctionIsParseError) {
  EXPECT_TRUE(Template::Parse("$upper(@X").status().IsInvalidArgument());
  EXPECT_TRUE(Template::Parse("$upper(@X)").status().IsInvalidArgument());
}

TEST(TemplateFunctionTest, BareDollarIsLiteral) {
  TemplateContext ctx;
  EXPECT_EQ(*Template::Parse("costs $5 today")->Evaluate(ctx, nullptr),
            "costs $5 today");
  EXPECT_EQ(*Template::Parse("$")->Evaluate(ctx, nullptr), "$");
}

TEST(TemplateFunctionTest, CountInsideSentence) {
  std::vector<Row> movies = ThreeMovies();
  std::vector<BoundRow> movie_views = Views(movies);
  Row subject = Woody();
  TemplateContext ctx;
  ctx.subjects.push_back(subject.view());
  ctx.list = &movie_views;
  auto t = Template::Parse(
      "@DNAME directed $count(@TITLE)$ relevant movies.");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t->Evaluate(ctx, nullptr),
            "Woody Allen directed 3 relevant movies.");
}

// ===== Catalog =====

TEST(CatalogTest, HeadingAttributeDefaultsEmpty) {
  TemplateCatalog catalog;
  EXPECT_EQ(catalog.heading_attribute("CAST"), "");
  catalog.SetHeadingAttribute("MOVIE", "title");
  EXPECT_EQ(catalog.heading_attribute("MOVIE"), "title");
}

TEST(CatalogTest, TemplateLookups) {
  TemplateCatalog catalog;
  EXPECT_EQ(catalog.projection_template("MOVIE"), nullptr);
  EXPECT_EQ(catalog.join_template("A", "B"), nullptr);
  ASSERT_TRUE(catalog.SetProjectionTemplate("MOVIE", "@TITLE").ok());
  ASSERT_TRUE(catalog.SetJoinTemplate("A", "B", "@X").ok());
  EXPECT_NE(catalog.projection_template("MOVIE"), nullptr);
  EXPECT_NE(catalog.join_template("A", "B"), nullptr);
  EXPECT_EQ(catalog.join_template("B", "A"), nullptr);
}

TEST(CatalogTest, BadTemplateSourceRejectedEagerly) {
  TemplateCatalog catalog;
  EXPECT_TRUE(catalog.SetProjectionTemplate("MOVIE", "@").IsInvalidArgument());
  EXPECT_TRUE(catalog.SetJoinTemplate("A", "B", "%x").IsInvalidArgument());
  EXPECT_TRUE(catalog.DefineMacro("M", "@").IsInvalidArgument());
}

// ===== End-to-end rendering: the paper's §5.3 narrative =====

class RenderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MoviesConfig config;
    config.num_movies = 0;  // paper-example tuples only
    auto ds = MoviesDataset::Create(config);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<MoviesDataset>(std::move(*ds));
    auto engine = PrecisEngine::Create(&dataset_->db(), &dataset_->graph());
    ASSERT_TRUE(engine.ok());
    engine_ = std::make_unique<PrecisEngine>(std::move(*engine));
    auto catalog = BuildMoviesTemplateCatalog();
    ASSERT_TRUE(catalog.ok());
    catalog_ = std::make_unique<TemplateCatalog>(std::move(*catalog));
  }

  Result<PrecisAnswer> Ask(size_t tuples_per_relation) {
    return engine_->Answer(PrecisQuery{{"Woody Allen"}}, *MinPathWeight(0.9),
                           *MaxTuplesPerRelation(tuples_per_relation));
  }

  std::unique_ptr<MoviesDataset> dataset_;
  std::unique_ptr<PrecisEngine> engine_;
  std::unique_ptr<TemplateCatalog> catalog_;
};

TEST_F(RenderTest, PaperHeadlineSentencesAtCardinalityThree) {
  auto answer = Ask(3);
  ASSERT_TRUE(answer.ok());
  Translator translator(catalog_.get());
  auto text = translator.Render(*answer);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("Woody Allen was born on December 1, 1935 in "
                       "Brooklyn, New York, USA."),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("As a director, Woody Allen's work includes Match "
                       "Point (2005), Melinda and Melinda (2004), Anything "
                       "Else (2003)."),
            std::string::npos)
      << *text;
}

TEST_F(RenderTest, GenerousBudgetRendersGenreClauses) {
  auto answer = Ask(100);
  ASSERT_TRUE(answer.ok());
  Translator translator(catalog_.get());
  auto text = translator.Render(*answer);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("Match Point is Drama, Thriller."), std::string::npos)
      << *text;
  EXPECT_NE(text->find("Melinda and Melinda is Comedy, Drama."),
            std::string::npos);
  EXPECT_NE(text->find("Anything Else is Comedy, Romance."),
            std::string::npos);
}

TEST_F(RenderTest, ActorHomonymGetsItsOwnParagraph) {
  auto answer = Ask(100);
  ASSERT_TRUE(answer.ok());
  Translator translator(catalog_.get());
  auto text = translator.Render(*answer);
  ASSERT_TRUE(text.ok());
  // The ACTOR occurrence renders separately, reaching movies through CAST.
  EXPECT_NE(text->find("As an actor, Woody Allen's work includes Hollywood "
                       "Ending (2002), The Curse of the Jade Scorpion "
                       "(2001)."),
            std::string::npos)
      << *text;
  // Two paragraphs at least (actor + director parts).
  EXPECT_NE(text->find("\n\n"), std::string::npos);
}

TEST_F(RenderTest, MissingAttributesDegradeGracefully) {
  // Under cardinality 3 the ACTOR part has no reachable movies and the
  // actor projection template's BDATE/BLOCATION are excluded by the degree
  // constraint; the paragraph degrades to the heading value.
  auto answer = Ask(3);
  ASSERT_TRUE(answer.ok());
  auto rel_id = dataset_->graph().RelationId("ACTOR");
  ASSERT_TRUE(rel_id.ok());
  Translator translator(catalog_.get());
  TokenOccurrence occ{"ACTOR", "aname", {0}};
  auto paragraphs = translator.RenderOccurrence(*answer, "Woody Allen", occ);
  ASSERT_TRUE(paragraphs.ok());
  ASSERT_EQ(paragraphs->size(), 1u);
  EXPECT_EQ((*paragraphs)[0], "Woody Allen.");
}

TEST_F(RenderTest, UnknownTokenRendersEmpty) {
  auto answer = engine_->Answer(PrecisQuery{{"Tarantino"}},
                                *MinPathWeight(0.9), *MaxTuplesPerRelation(3));
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->empty());
  Translator translator(catalog_.get());
  auto text = translator.Render(*answer);
  ASSERT_TRUE(text.ok());
  EXPECT_TRUE(text->empty());
}

TEST_F(RenderTest, OccurrenceForRelationAbsentFromResultIsEmpty) {
  auto answer = Ask(3);
  ASSERT_TRUE(answer.ok());
  Translator translator(catalog_.get());
  TokenOccurrence occ{"THEATRE", "name", {0}};
  auto paragraphs = translator.RenderOccurrence(*answer, "Odeon", occ);
  ASSERT_TRUE(paragraphs.ok());
  EXPECT_TRUE(paragraphs->empty());
}

}  // namespace
}  // namespace precis
