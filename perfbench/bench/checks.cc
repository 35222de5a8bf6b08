#include "bench/checks.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "precis/constraints.h"
#include "precis/exhaustive_generator.h"

namespace perfbench {

namespace {

/// Type-tagged rendering of a tuple restricted to `positions`.
std::string ProjectionKey(const precis::Tuple& t,
                          const std::vector<size_t>& positions) {
  std::string key;
  for (size_t p : positions) {
    const precis::Value& v = t[p];
    key += v.is_null() ? 'n' : (v.is_string() ? 's' : 'v');
    key += v.is_null() ? std::string() : v.ToString();
    key += '\x1f';
  }
  return key;
}

}  // namespace

std::vector<std::string> Words(const std::string& text) {
  std::vector<std::string> words;
  std::string cur;
  for (char ch : text) {
    unsigned char u = static_cast<unsigned char>(ch);
    if (std::isalnum(u)) {
      cur += static_cast<char>(std::tolower(u));
    } else if (!cur.empty()) {
      words.push_back(cur);
      cur.clear();
    }
  }
  if (!cur.empty()) words.push_back(cur);
  return words;
}

void AnswerChecker::ScanTokens(const std::vector<std::string>& tokens) {
  // Index the wanted phrases by their first word, then walk every string
  // value of every relation once.
  std::unordered_map<std::string, std::vector<std::pair<std::string,
                                                        std::vector<std::string>>>>
      by_first;
  for (const std::string& token : tokens) {
    if (scanned_.count(token) > 0) continue;
    scanned_[token];  // a token that matches nothing still has an entry
    std::vector<std::string> w = Words(token);
    if (!w.empty()) by_first[w[0]].push_back({token, w});
  }
  if (by_first.empty()) return;
  for (const std::string& name : source_->RelationNames()) {
    auto rel = source_->GetRelation(name);
    if (!rel.ok()) continue;
    const precis::RelationSchema& schema = (*rel)->schema();
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      if (schema.attribute(a).type != precis::DataType::kString) continue;
      const std::string& attr = schema.attribute(a).name;
      for (precis::Tid tid = 0; tid < (*rel)->num_tuples(); ++tid) {
        const precis::Value& v = (*rel)->tuple(tid)[a];
        if (!v.is_string()) continue;
        std::vector<std::string> words = Words(v.AsString());
        std::set<std::string> matched;
        for (size_t start = 0; start < words.size(); ++start) {
          auto it = by_first.find(words[start]);
          if (it == by_first.end()) continue;
          for (const auto& [token, phrase] : it->second) {
            if (start + phrase.size() > words.size()) continue;
            if (std::equal(phrase.begin(), phrase.end(),
                           words.begin() + start)) {
              matched.insert(token);
            }
          }
        }
        for (const std::string& token : matched) {
          scanned_[token][{name, attr}].push_back(tid);
        }
      }
    }
  }
}

std::vector<std::string> AnswerChecker::Check(
    const std::vector<std::string>& tokens, size_t c,
    const precis::PrecisAnswer& answer, const std::string& narrative) {
  std::vector<std::string> errors;

  // Seed tuples: the answer's matches against the direct scan.
  if (answer.matches.size() != tokens.size()) {
    errors.push_back("answer has " + std::to_string(answer.matches.size()) +
                     " token matches for " + std::to_string(tokens.size()) +
                     " tokens");
  }
  for (const precis::TokenMatch& m : answer.matches) {
    auto it = scanned_.find(m.token);
    if (it == scanned_.end()) {
      errors.push_back("token '" + m.token + "' was not scanned");
      continue;
    }
    Occurrences got;
    for (const precis::TokenOccurrence& occ : m.occurrences()) {
      std::vector<precis::Tid>& tids = got[{occ.relation, occ.attribute}];
      tids.insert(tids.end(), occ.tids.begin(), occ.tids.end());
      std::sort(tids.begin(), tids.end());
    }
    if (got != it->second) {
      errors.push_back("seed tuples of '" + m.token +
                       "' differ from a direct scan");
    }
  }

  CheckSchema(answer, &errors);

  for (const std::string& name : answer.database.RelationNames()) {
    auto rel = answer.database.GetRelation(name);
    if (rel.ok() && (*rel)->num_tuples() > c) {
      errors.push_back("relation " + name + " holds " +
                       std::to_string((*rel)->num_tuples()) +
                       " tuples, more than c=" + std::to_string(c));
    }
  }

  CheckProjections(answer.database, &errors);
  CheckForeignKeys(answer, &errors);

  if (!answer.empty() && narrative.empty()) {
    errors.push_back("non-empty answer rendered an empty narrative");
  }
  return errors;
}

void AnswerChecker::CheckSchema(const precis::PrecisAnswer& answer,
                                std::vector<std::string>* errors) const {
  const precis::ResultSchema& got = answer.schema;
  precis::ExhaustiveSchemaGenerator oracle(graph_);
  auto want =
      oracle.Generate(got.token_relations(), *precis::MinPathWeight(0.0));
  if (!want.ok()) {
    errors->push_back("exhaustive schema generator failed: " +
                      want.status().ToString());
    return;
  }
  bool same = got.relations() == want->relations();
  for (precis::RelationNodeId rel : got.relations()) {
    same = same &&
           got.projected_attributes(rel) == want->projected_attributes(rel) &&
           got.in_degree(rel) == want->in_degree(rel);
  }
  std::set<const precis::JoinEdge*> eg(got.join_edges().begin(),
                                       got.join_edges().end());
  std::set<const precis::JoinEdge*> ew(want->join_edges().begin(),
                                       want->join_edges().end());
  std::multiset<double> wg, ww;
  for (const precis::Path& p : got.projection_paths()) wg.insert(p.weight());
  for (const precis::Path& p : want->projection_paths()) ww.insert(p.weight());
  if (!same || eg != ew || wg != ww) {
    errors->push_back("result schema differs from the exhaustive oracle");
  }
}

void AnswerChecker::CheckProjections(const precis::Database& result,
                                     std::vector<std::string>* errors) {
  for (const std::string& name : result.RelationNames()) {
    auto rel = result.GetRelation(name);
    auto src = source_->GetRelation(name);
    if (!rel.ok() || !src.ok()) {
      errors->push_back("result relation " + name + " has no source relation");
      continue;
    }
    const precis::RelationSchema& schema = (*rel)->schema();
    std::vector<size_t> positions;
    bool attrs_ok = true;
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      auto pos = (*src)->schema().AttributeIndex(schema.attribute(a).name);
      if (!pos.ok()) {
        attrs_ok = false;
        break;
      }
      positions.push_back(*pos);
    }
    if (!attrs_ok) {
      errors->push_back("result relation " + name +
                        " has an attribute its source lacks");
      continue;
    }
    auto key = std::make_pair(name, positions);
    auto it = projections_.find(key);
    if (it == projections_.end()) {
      std::unordered_set<std::string> all;
      all.reserve((*src)->num_tuples());
      for (precis::Tid tid = 0; tid < (*src)->num_tuples(); ++tid) {
        all.insert(ProjectionKey((*src)->tuple(tid), positions));
      }
      it = projections_.emplace(key, std::move(all)).first;
    }
    std::vector<size_t> identity(positions.size());
    for (size_t i = 0; i < identity.size(); ++i) identity[i] = i;
    for (precis::Tid tid = 0; tid < (*rel)->num_tuples(); ++tid) {
      if (it->second.count(ProjectionKey((*rel)->tuple(tid), identity)) == 0) {
        errors->push_back("a tuple of " + name +
                          " is not a projection of any source tuple");
        break;
      }
    }
  }
}

void AnswerChecker::CheckForeignKeys(const precis::PrecisAnswer& answer,
                                     std::vector<std::string>* errors) const {
  const precis::Database& result = answer.database;
  precis::Status declared = result.ValidateForeignKeys();
  if (!declared.ok()) {
    errors->push_back("result foreign keys do not validate: " +
                      declared.ToString());
  }
  const std::vector<std::string>& dropped =
      answer.report.dropped_foreign_keys;
  for (const precis::ForeignKey& fk : source_->foreign_keys()) {
    auto child = result.GetRelation(fk.child_relation);
    auto parent = result.GetRelation(fk.parent_relation);
    if (!child.ok() || !parent.ok()) continue;
    auto ci = (*child)->schema().AttributeIndex(fk.child_attribute);
    auto pi = (*parent)->schema().AttributeIndex(fk.parent_attribute);
    if (!ci.ok() || !pi.ok()) continue;
    std::unordered_set<std::string> parents;
    for (precis::Tid t = 0; t < (*parent)->num_tuples(); ++t) {
      parents.insert(ProjectionKey((*parent)->tuple(t), {*pi}));
    }
    bool holds = true;
    for (precis::Tid t = 0; t < (*child)->num_tuples() && holds; ++t) {
      const precis::Tuple& tuple = (*child)->tuple(t);
      if (tuple[*ci].is_null()) continue;
      holds = parents.count(ProjectionKey(tuple, {*ci})) > 0;
    }
    bool reported = std::find(dropped.begin(), dropped.end(),
                              fk.ToString()) != dropped.end();
    if (holds == reported) {
      errors->push_back("foreign key " + fk.ToString() +
                        (holds ? " holds in the result but is reported dropped"
                               : " fails in the result but is not reported"));
    }
  }
}

}  // namespace perfbench
