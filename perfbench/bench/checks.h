// Independent output checks. Each one tests what the paper and the design
// promise about an answer, computed here from the source database and the
// schema graph, not by comparing against a stored copy of earlier output.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/schema_graph.h"
#include "precis/engine.h"
#include "storage/database.h"

namespace perfbench {

class AnswerChecker {
 public:
  AnswerChecker(const precis::Database* source,
                const precis::SchemaGraph* graph)
      : source_(source), graph_(graph) {}

  /// Finds every token's occurrences by a direct scan of the source
  /// database's string attributes (own tokenizer, no inverted index). Call
  /// once with every token the later Check calls will see.
  void ScanTokens(const std::vector<std::string>& tokens);

  /// Checks one answer to a query with per-relation bound `c` and
  /// min_path_weight 0. Returns one line per violated property (empty when
  /// the answer is correct):
  ///  - the result schema equals ExhaustiveSchemaGenerator's, up to tie order;
  ///  - each token's seed tuples equal the direct scan's;
  ///  - no result relation holds more than c tuples;
  ///  - every result tuple is a projection of a source tuple;
  ///  - the result's foreign keys validate, and a source foreign key
  ///    between two result relations is reported dropped exactly when it
  ///    fails on the result;
  ///  - a non-empty answer has a non-empty narrative.
  std::vector<std::string> Check(const std::vector<std::string>& tokens,
                                 size_t c, const precis::PrecisAnswer& answer,
                                 const std::string& narrative);

 private:
  using Occurrences = std::map<std::pair<std::string, std::string>,
                               std::vector<precis::Tid>>;

  void CheckSchema(const precis::PrecisAnswer& answer,
                   std::vector<std::string>* errors) const;
  void CheckProjections(const precis::Database& result,
                        std::vector<std::string>* errors);
  void CheckForeignKeys(const precis::PrecisAnswer& answer,
                        std::vector<std::string>* errors) const;

  const precis::Database* source_;
  const precis::SchemaGraph* graph_;
  std::unordered_map<std::string, Occurrences> scanned_;
  // (relation, attribute positions) -> every source tuple projected on them.
  std::map<std::pair<std::string, std::vector<size_t>>,
           std::unordered_set<std::string>>
      projections_;
};

/// Lower-cased alphanumeric words, the paper's token matching unit.
std::vector<std::string> Words(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
