// Test-only reference for the §5.3 Result Database Translator: the original
// map-based renderer, kept as an independent oracle for Translator::Render.
//
// It re-binds every tuple of a destination relation into an attribute-name
// -> value map for every subject and join edge, joins by nested loops, and
// deduplicates on rendered "name=value;" strings. That is slow (subjects ×
// result tuples) but simple, which is what an oracle should be. The walk,
// the join, the clause grouping and both dedup rules below are the code the
// production translator replaced, unchanged; only the hand-off to the
// template language adapts map bindings to BoundRow views.

#ifndef PRECIS_TESTS_TRANSLATOR_REFERENCE_H_
#define PRECIS_TESTS_TRANSLATOR_REFERENCE_H_

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/execution_context.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "precis/engine.h"
#include "text/tokenizer.h"
#include "translator/catalog.h"
#include "translator/template.h"

namespace precis {
namespace reference {

/// Attribute-name (lowercased) to value binding for one tuple.
using TupleBinding = std::map<std::string, Value>;

/// Owns the name and value arrays that the BoundRow views of a
/// TemplateContext point at, for map bindings.
class ContextHolder {
 public:
  ContextHolder() = default;
  ContextHolder(const ContextHolder&) = delete;
  ContextHolder& operator=(const ContextHolder&) = delete;

  void AddSubject(const TupleBinding& b) {
    context_.subjects.push_back(Adapt(b));
  }
  void SetList(const std::vector<TupleBinding>* list) {
    if (list == nullptr) return;
    for (const TupleBinding& b : *list) list_.push_back(Adapt(b));
    context_.list = &list_;
  }
  const TemplateContext& context() const { return context_; }

 private:
  BoundRow Adapt(const TupleBinding& b) {
    std::vector<std::string>& names = names_.emplace_back();
    std::vector<Value>& values = values_.emplace_back();
    for (const auto& [name, value] : b) {
      names.push_back(name);
      values.push_back(value);
    }
    return BoundRow{&names, values.data()};
  }

  std::deque<std::vector<std::string>> names_;
  std::deque<std::vector<Value>> values_;
  std::vector<BoundRow> list_;
  TemplateContext context_;
};

inline TupleBinding BindTuple(const RelationSchema& schema,
                              const Tuple& tuple) {
  TupleBinding binding;
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    binding[ToLower(schema.attribute(i).name)] = tuple[i];
  }
  return binding;
}

inline Result<std::vector<TupleBinding>> BindRelation(
    const Database& db, const std::string& relation) {
  auto rel = db.GetRelation(relation);
  if (!rel.ok()) return rel.status();
  std::vector<TupleBinding> out;
  out.reserve((*rel)->num_tuples());
  for (Tid tid = 0; tid < (*rel)->num_tuples(); ++tid) {
    out.push_back(BindTuple((*rel)->schema(), (*rel)->tuple(tid)));
  }
  return out;
}

struct SubjectChain {
  TupleBinding subject;
  std::vector<TupleBinding> ancestors;

  void MakeContext(const std::vector<TupleBinding>* list,
                   ContextHolder* ctx) const {
    ctx->AddSubject(subject);
    for (const TupleBinding& a : ancestors) ctx->AddSubject(a);
    ctx->SetList(list);
  }
};

class OccurrenceRenderer {
 public:
  OccurrenceRenderer(const TemplateCatalog* catalog,
                     const PrecisAnswer& answer)
      : catalog_(catalog), answer_(answer) {}

  Result<std::string> RenderSubject(RelationNodeId start_rel,
                                    SubjectChain start) {
    clauses_.clear();
    visited_edges_.clear();

    const std::string& rel_name =
        answer_.schema.graph().relation_name(start_rel);
    const Template* projection = catalog_->projection_template(rel_name);
    if (projection != nullptr) {
      ContextHolder ctx;
      start.MakeContext(nullptr, &ctx);
      auto clause = projection->Evaluate(ctx.context(), catalog_);
      if (clause.ok()) {
        AppendClause(*clause);
      } else if (clause.status().IsNotFound()) {
        std::string heading =
            ToLower(catalog_->heading_attribute(rel_name));
        auto it = start.subject.find(heading);
        if (it != start.subject.end() && !it->second.is_null()) {
          AppendClause(it->second.ToString() + ".");
        }
      } else {
        return clause.status();
      }
    }

    std::vector<SubjectChain> chains;
    chains.push_back(std::move(start));
    PRECIS_RETURN_NOT_OK(EmitJoinsFrom(start_rel, chains));

    std::string out;
    for (size_t i = 0; i < clauses_.size(); ++i) {
      if (i > 0) out += " ";
      out += clauses_[i];
    }
    return out;
  }

 private:
  void AppendClause(const std::string& clause) {
    std::string trimmed = Trim(clause);
    if (!trimmed.empty()) clauses_.push_back(std::move(trimmed));
  }

  Status EmitEdgeClauses(const std::vector<SubjectChain>& chains,
                         const Template* join_template, bool link_relation,
                         const std::vector<std::vector<TupleBinding>>&
                             joined_per_chain) {
    if (join_template == nullptr) return Status::OK();
    if (!link_relation) {
      for (size_t i = 0; i < chains.size(); ++i) {
        if (joined_per_chain[i].empty()) continue;
        ContextHolder ctx;
        chains[i].MakeContext(&joined_per_chain[i], &ctx);
        auto clause = join_template->Evaluate(ctx.context(), catalog_);
        if (clause.ok()) {
          AppendClause(*clause);
        } else if (!clause.status().IsNotFound()) {
          return clause.status();
        }
      }
      return Status::OK();
    }

    std::vector<std::string> group_order;
    std::map<std::string, size_t> group_index;
    std::vector<const SubjectChain*> representative;
    std::vector<std::vector<TupleBinding>> merged;
    std::vector<std::set<std::string>> seen_keys;
    auto binding_key = [](const TupleBinding& b) {
      std::string key;
      for (const auto& [name, value] : b) {
        key += name + "=" + value.ToString() + ";";
      }
      return key;
    };
    for (size_t i = 0; i < chains.size(); ++i) {
      if (joined_per_chain[i].empty()) continue;
      std::string lineage;
      for (const TupleBinding& a : chains[i].ancestors) {
        lineage += binding_key(a) + "|";
      }
      auto [it, inserted] = group_index.emplace(lineage, merged.size());
      if (inserted) {
        group_order.push_back(lineage);
        representative.push_back(&chains[i]);
        merged.emplace_back();
        seen_keys.emplace_back();
      }
      size_t g = it->second;
      for (const TupleBinding& j : joined_per_chain[i]) {
        if (seen_keys[g].insert(binding_key(j)).second) {
          merged[g].push_back(j);
        }
      }
    }
    for (size_t g = 0; g < merged.size(); ++g) {
      ContextHolder ctx;
      representative[g]->MakeContext(&merged[g], &ctx);
      auto clause = join_template->Evaluate(ctx.context(), catalog_);
      if (clause.ok()) {
        AppendClause(*clause);
      } else if (!clause.status().IsNotFound()) {
        return clause.status();
      }
    }
    return Status::OK();
  }

  Status EmitJoinsFrom(RelationNodeId rel,
                       const std::vector<SubjectChain>& chains) {
    const SchemaGraph& graph = answer_.schema.graph();
    for (const JoinEdge* edge : answer_.schema.join_edges()) {
      if (edge->from != rel) continue;
      if (!visited_edges_.insert(edge).second) continue;

      const std::string& from_name = graph.relation_name(edge->from);
      const std::string& to_name = graph.relation_name(edge->to);
      auto to_bindings = BindRelation(answer_.database, to_name);
      if (!to_bindings.ok()) return to_bindings.status();

      const Template* join_template =
          catalog_->join_template(from_name, to_name);
      const bool link_relation =
          catalog_->heading_attribute(from_name).empty();
      const std::string from_attr = ToLower(edge->from_attribute);
      const std::string to_attr = ToLower(edge->to_attribute);

      std::vector<std::vector<TupleBinding>> joined_per_chain(chains.size());
      for (size_t i = 0; i < chains.size(); ++i) {
        auto key_it = chains[i].subject.find(from_attr);
        if (key_it == chains[i].subject.end() || key_it->second.is_null()) {
          continue;
        }
        for (const TupleBinding& candidate : *to_bindings) {
          auto it = candidate.find(to_attr);
          if (it != candidate.end() && it->second == key_it->second) {
            joined_per_chain[i].push_back(candidate);
          }
        }
      }

      PRECIS_RETURN_NOT_OK(EmitEdgeClauses(chains, join_template,
                                           link_relation, joined_per_chain));

      std::vector<SubjectChain> next_chains;
      std::set<std::string> next_seen;
      auto subject_key = [](const TupleBinding& b) {
        std::string key;
        for (const auto& [name, value] : b) {
          key += name + "=" + value.ToString() + ";";
        }
        return key;
      };
      for (size_t i = 0; i < chains.size(); ++i) {
        for (const TupleBinding& j : joined_per_chain[i]) {
          if (!next_seen.insert(subject_key(j)).second) continue;
          SubjectChain next;
          next.subject = j;
          next.ancestors.push_back(chains[i].subject);
          next.ancestors.insert(next.ancestors.end(),
                                chains[i].ancestors.begin(),
                                chains[i].ancestors.end());
          next_chains.push_back(std::move(next));
        }
      }
      if (!next_chains.empty()) {
        PRECIS_RETURN_NOT_OK(EmitJoinsFrom(edge->to, next_chains));
      }
    }
    return Status::OK();
  }

  const TemplateCatalog* catalog_;
  const PrecisAnswer& answer_;
  std::vector<std::string> clauses_;
  std::set<const JoinEdge*> visited_edges_;
};

/// \brief The reference renderer; same contract as precis::Translator.
class ReferenceTranslator {
 public:
  explicit ReferenceTranslator(const TemplateCatalog* catalog)
      : catalog_(catalog) {}

  Result<std::vector<std::string>> RenderOccurrence(
      const PrecisAnswer& answer, const std::string& token,
      const TokenOccurrence& occurrence,
      ExecutionContext* ctx = nullptr) const {
    std::vector<std::string> paragraphs;
    if (!answer.database.HasRelation(occurrence.relation)) return paragraphs;
    if (ctx != nullptr && ctx->fault_injector() != nullptr &&
        ctx->fault_injector()->armed()) {
      PRECIS_RETURN_NOT_OK(CheckFaultWithRetry(
          ctx, FaultSite::kTranslatorCatalog, ctx->retry_policy()));
    }
    auto rel = answer.database.GetRelation(occurrence.relation);
    if (!rel.ok()) return rel.status();
    auto rel_id = answer.schema.graph().RelationId(occurrence.relation);
    if (!rel_id.ok()) return rel_id.status();

    std::vector<std::string> words = TokenizeWords(token);
    const RelationSchema& schema = (*rel)->schema();
    for (Tid tid = 0; tid < (*rel)->num_tuples(); ++tid) {
      if (ctx != nullptr && ctx->ShouldStop()) break;
      const Tuple& tuple = (*rel)->tuple(tid);
      bool contains = false;
      for (size_t i = 0; i < schema.num_attributes() && !contains; ++i) {
        if (schema.attribute(i).type == DataType::kString &&
            !tuple[i].is_null() &&
            ContainsPhrase(tuple[i].AsString(), words)) {
          contains = true;
        }
      }
      if (!contains) continue;

      OccurrenceRenderer renderer(catalog_, answer);
      SubjectChain chain;
      chain.subject = BindTuple(schema, tuple);
      auto paragraph = renderer.RenderSubject(*rel_id, std::move(chain));
      if (!paragraph.ok()) return paragraph.status();
      if (!paragraph->empty()) paragraphs.push_back(std::move(*paragraph));
    }
    return paragraphs;
  }

  Result<std::string> Render(const PrecisAnswer& answer,
                             ExecutionContext* ctx = nullptr) const {
    std::string out;
    const DegradationReport& degradation = answer.report.degradation;
    if (!degradation.shards_skipped.empty()) {
      const uint32_t total = degradation.shards_total;
      const uint32_t reached =
          total - static_cast<uint32_t>(degradation.shards_skipped.size());
      out += "[answers from " + std::to_string(reached) + " of " +
             std::to_string(total) + " partitions]";
    }
    for (const TokenMatch& match : answer.matches) {
      for (const TokenOccurrence& occurrence : match.occurrences()) {
        if (ctx != nullptr && ctx->ShouldStop()) return out;
        auto paragraphs =
            RenderOccurrence(answer, match.token, occurrence, ctx);
        if (!paragraphs.ok()) {
          if (paragraphs.status().IsUnavailable()) {
            if (!out.empty()) out += "\n\n";
            out += "[précis narrative unavailable for '" + match.token +
                   "' in " + occurrence.relation + "]";
            continue;
          }
          return paragraphs.status();
        }
        for (const std::string& p : *paragraphs) {
          if (!out.empty()) out += "\n\n";
          out += p;
        }
      }
    }
    return out;
  }

 private:
  const TemplateCatalog* catalog_;
};

}  // namespace reference
}  // namespace precis

#endif  // PRECIS_TESTS_TRANSLATOR_REFERENCE_H_
