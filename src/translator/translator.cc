#include "translator/translator.h"

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/retry.h"
#include "common/string_util.h"
#include "text/tokenizer.h"

namespace precis {

namespace {

constexpr uint32_t kUnclassified = std::numeric_limits<uint32_t>::max();
constexpr uint32_t kNoParent = std::numeric_limits<uint32_t>::max();

/// The rows of a result relation that share one join-attribute value, in
/// ascending tid order (the order the joined-tuple list renders in).
struct Posting {
  std::vector<Tid> tids;
  std::vector<BoundRow> rows;
};

/// One result relation as the §5.3 walk sees it, bound once per render:
/// its lowercased attribute names, a per-row equality class, and hash join
/// indexes, each computed on first use and shared by every occurrence and
/// subject of the render.
class BoundRelation {
 public:
  explicit BoundRelation(const Relation& rel) : rel_(rel) {
    const RelationSchema& schema = rel.schema();
    names_.reserve(schema.num_attributes());
    std::map<std::string, size_t> by_name;
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      names_.push_back(ToLower(schema.attribute(i).name));
      by_name[names_.back()] = i;
    }
    for (const auto& [name, pos] : by_name) key_order_.push_back(pos);
    class_of_.assign(rel.num_tuples(), kUnclassified);
    indexes_.resize(schema.num_attributes());
  }

  const Relation& relation() const { return rel_; }
  size_t num_rows() const { return class_of_.size(); }

  BoundRow row(Tid tid) const {
    return BoundRow{&names_, rel_.tuple(tid).data()};
  }

  int Position(const std::string& name) const {
    return AttributePosition(names_, name);
  }

  /// The row's equality class: two rows share an id exactly when every
  /// attribute renders alike ("name=value;" over the distinct names in
  /// name order), i.e. when their clauses and list entries would render
  /// the same bytes. Ids are dense, so they are < num_rows().
  uint32_t ClassOf(Tid tid) {
    uint32_t& id = class_of_[tid];
    if (id == kUnclassified) {
      const Tuple& tuple = rel_.tuple(tid);
      std::string key;
      for (size_t pos : key_order_) {
        key += names_[pos];
        key += '=';
        key += tuple[pos].ToString();
        key += ';';
      }
      const uint32_t next = static_cast<uint32_t>(class_ids_.size());
      id = class_ids_.emplace(std::move(key), next).first->second;
    }
    return id;
  }

  /// The rows whose attribute at `pos` equals `key` (non-NULL), or null when
  /// there are none. The index on `pos` is built on first use.
  const Posting* Probe(size_t pos, const Value& key) {
    std::unique_ptr<Index>& index = indexes_[pos];
    if (index == nullptr) {
      index = std::make_unique<Index>();
      for (Tid tid = 0; tid < num_rows(); ++tid) {
        const Value& v = rel_.tuple(tid)[pos];
        if (v.is_null()) continue;
        Posting& posting = (*index)[v];
        posting.tids.push_back(tid);
        posting.rows.push_back(row(tid));
      }
    }
    auto it = index->find(key);
    return it == index->end() ? nullptr : &it->second;
  }

 private:
  using Index = std::unordered_map<Value, Posting, ValueHash>;

  const Relation& rel_;
  std::vector<std::string> names_;
  std::vector<size_t> key_order_;  // distinct-name positions, name order
  std::vector<uint32_t> class_of_;
  std::unordered_map<std::string, uint32_t> class_ids_;
  std::vector<std::unique_ptr<Index>> indexes_;  // by attribute position
};

/// What one join edge needs at every visit, resolved on the first.
struct EdgePlan {
  const JoinEdge* edge = nullptr;
  BoundRelation* to = nullptr;  // null until resolved
  const Template* join_template = nullptr;
  bool link_relation = false;
  std::string from_attr;  // lowercase
  int to_pos = -1;
};

/// Per-render state shared by every occurrence and subject: the bound
/// result relations and the resolved join edges.
class RenderState {
 public:
  RenderState(const TemplateCatalog* catalog, const PrecisAnswer& answer)
      : catalog_(catalog), answer_(answer) {
    const std::vector<const JoinEdge*>& edges = answer.schema.join_edges();
    edges_from_.resize(answer.schema.graph().num_relations());
    plans_.resize(edges.size());
    for (size_t e = 0; e < edges.size(); ++e) {
      edges_from_[edges[e]->from].push_back(e);
      plans_[e].edge = edges[e];
    }
  }

  const TemplateCatalog* catalog() const { return catalog_; }
  const PrecisAnswer& answer() const { return answer_; }
  size_t num_edges() const { return plans_.size(); }

  /// Ordinals (into the result schema's join edges, in that order) of the
  /// edges departing `rel`.
  const std::vector<size_t>& edges_from(RelationNodeId rel) const {
    return edges_from_[rel];
  }

  Result<BoundRelation*> Bind(const std::string& name) {
    auto it = relations_.find(name);
    if (it != relations_.end()) return it->second.get();
    auto rel = answer_.database.GetRelation(name);
    if (!rel.ok()) return rel.status();
    auto bound = std::make_unique<BoundRelation>(**rel);
    BoundRelation* out = bound.get();
    relations_.emplace(name, std::move(bound));
    return out;
  }

  /// The plan of edge `ordinal`; fails (on every visit) when the result
  /// database lacks the edge's destination relation.
  Result<const EdgePlan*> Plan(size_t ordinal) {
    EdgePlan& plan = plans_[ordinal];
    if (plan.to == nullptr) {
      const SchemaGraph& graph = answer_.schema.graph();
      const std::string& from_name = graph.relation_name(plan.edge->from);
      const std::string& to_name = graph.relation_name(plan.edge->to);
      PRECIS_ASSIGN_OR_RETURN(BoundRelation * to, Bind(to_name));
      plan.join_template = catalog_->join_template(from_name, to_name);
      plan.link_relation = catalog_->heading_attribute(from_name).empty();
      plan.from_attr = ToLower(plan.edge->from_attribute);
      plan.to_pos = to->Position(ToLower(plan.edge->to_attribute));
      plan.to = to;
    }
    return &plan;
  }

 private:
  const TemplateCatalog* catalog_;
  const PrecisAnswer& answer_;
  std::unordered_map<std::string, std::unique_ptr<BoundRelation>> relations_;
  std::vector<std::vector<size_t>> edges_from_;
  std::vector<EdgePlan> plans_;
};

/// Renders the clauses of one subject tuple at a time, walking the result
/// graph from it. Subject chains are nodes linked to their parent (the
/// subject they were reached from), so a chain's ancestors — which a
/// join-edge template that hops through a heading-less relation (ACTOR ->
/// CAST -> MOVIE) still references ("As an actor, @ANAME's work includes
/// ...") — are never copied.
class SubjectWalker {
 public:
  explicit SubjectWalker(RenderState* state) : state_(state) {}

  /// The paragraph of subject `tid` of `rel` (graph node `rel_id`).
  Result<std::string> Render(RelationNodeId rel_id, BoundRelation* rel,
                             Tid tid) {
    out_.clear();
    nodes_.clear();
    visited_.assign(state_->num_edges(), 0);
    nodes_.push_back(ChainNode{rel, tid, kNoParent});

    const std::string& rel_name =
        state_->answer().schema.graph().relation_name(rel_id);
    const TemplateCatalog* catalog = state_->catalog();
    if (const Template* projection = catalog->projection_template(rel_name)) {
      SetContext(0, nullptr);
      auto clause = projection->Evaluate(context_, catalog);
      if (clause.ok()) {
        AppendClause(*clause);
      } else if (clause.status().IsNotFound()) {
        // The degree constraint excluded an attribute the template uses;
        // degrade to the bare heading value ("Woody Allen.") if available.
        const Value* heading =
            rel->row(tid).Find(ToLower(catalog->heading_attribute(rel_name)));
        if (heading != nullptr && !heading->is_null()) {
          AppendClause(heading->ToString() + ".");
        }
      } else {
        return clause.status();
      }
    }

    PRECIS_RETURN_NOT_OK(EmitJoinsFrom(rel_id, {0}));
    return std::move(out_);
  }

 private:
  struct ChainNode {
    BoundRelation* rel;
    Tid tid;
    uint32_t parent;  // kNoParent for the occurrence's own subject
  };

  void AppendClause(const std::string& clause) {
    std::string trimmed = Trim(clause);
    if (trimmed.empty()) return;
    if (!out_.empty()) out_ += ' ';
    out_ += trimmed;
  }

  /// Points the template context at chain `node` (innermost first) and at
  /// `list` as the joined tuples.
  void SetContext(uint32_t node, const std::vector<BoundRow>* list) {
    context_.subjects.clear();
    for (uint32_t n = node; n != kNoParent; n = nodes_[n].parent) {
      context_.subjects.push_back(nodes_[n].rel->row(nodes_[n].tid));
    }
    context_.list = list;
  }

  /// Evaluates a join template against the current context. NotFound (an
  /// attribute the template needs was not projected under this degree
  /// constraint) skips the clause.
  Status EmitClause(const Template& join_template) {
    auto clause = join_template.Evaluate(context_, state_->catalog());
    if (clause.ok()) {
      AppendClause(*clause);
    } else if (!clause.status().IsNotFound()) {
      return clause.status();
    }
    return Status::OK();
  }

  /// Emits the clause(s) of one join edge, given the joined rows of each
  /// chain (null when none).
  ///
  /// Clause granularity follows the paper's heading-attribute rule ("each of
  /// these clauses has as subject the heading attribute of the relation that
  /// has the primary key"): an edge departing a relation *with* a heading
  /// attribute speaks once per subject tuple ("Match Point is Drama,
  /// Thriller." per movie), while an edge departing a heading-less link
  /// relation (CAST) speaks once per distinct ancestor lineage, merging the
  /// joined tuples ("As an actor, Woody Allen's work includes A, B.").
  Status EmitEdgeClauses(const EdgePlan& plan,
                         const std::vector<uint32_t>& chains,
                         const std::vector<const Posting*>& joined) {
    if (plan.join_template == nullptr) return Status::OK();
    if (!plan.link_relation) {
      for (size_t i = 0; i < chains.size(); ++i) {
        if (joined[i] == nullptr) continue;
        SetContext(chains[i], &joined[i]->rows);
        PRECIS_RETURN_NOT_OK(EmitClause(*plan.join_template));
      }
      return Status::OK();
    }

    // Link relation: group chains by their ancestors' equality classes (all
    // chains of one call reached their relation along the same relation
    // path, so position k of every lineage is the same relation) and merge
    // the joined rows of each group, one per equality class.
    std::map<std::vector<uint32_t>, size_t> group_index;
    std::vector<uint32_t> representative;
    std::vector<std::vector<BoundRow>> merged;
    std::unordered_set<uint64_t> seen;  // (group, class) pairs
    for (size_t i = 0; i < chains.size(); ++i) {
      if (joined[i] == nullptr) continue;
      std::vector<uint32_t> lineage;
      for (uint32_t n = nodes_[chains[i]].parent; n != kNoParent;
           n = nodes_[n].parent) {
        lineage.push_back(nodes_[n].rel->ClassOf(nodes_[n].tid));
      }
      auto [it, inserted] =
          group_index.emplace(std::move(lineage), merged.size());
      if (inserted) {
        representative.push_back(chains[i]);
        merged.emplace_back();
      }
      const uint64_t g = it->second;
      for (size_t k = 0; k < joined[i]->tids.size(); ++k) {
        if (seen.insert(g << 32 | plan.to->ClassOf(joined[i]->tids[k]))
                .second) {
          merged[g].push_back(joined[i]->rows[k]);
        }
      }
    }
    for (size_t g = 0; g < merged.size(); ++g) {
      SetContext(representative[g], &merged[g]);
      PRECIS_RETURN_NOT_OK(EmitClause(*plan.join_template));
    }
    return Status::OK();
  }

  /// Processes every unvisited join edge of the result schema departing
  /// `rel`, emits its clauses, then recurses into the reached relation with
  /// the joined rows as new subjects. `chains` are nodes of `rel`.
  Status EmitJoinsFrom(RelationNodeId rel,
                       const std::vector<uint32_t>& chains) {
    for (size_t ordinal : state_->edges_from(rel)) {
      if (visited_[ordinal]) continue;
      visited_[ordinal] = 1;
      PRECIS_ASSIGN_OR_RETURN(const EdgePlan* plan, state_->Plan(ordinal));

      // Joined rows per chain: a hash probe on the destination's join
      // attribute, keyed by the subject's own (non-NULL) value.
      std::vector<const Posting*> joined(chains.size(), nullptr);
      BoundRelation* from = nodes_[chains.front()].rel;
      const int from_pos = from->Position(plan->from_attr);
      if (from_pos >= 0 && plan->to_pos >= 0) {
        for (size_t i = 0; i < chains.size(); ++i) {
          const Value& key =
              from->row(nodes_[chains[i]].tid).values[from_pos];
          if (key.is_null()) continue;
          joined[i] = plan->to->Probe(static_cast<size_t>(plan->to_pos), key);
        }
      }

      PRECIS_RETURN_NOT_OK(EmitEdgeClauses(*plan, chains, joined));

      // Recurse with each joined row as a new subject; rows of one
      // equality class continue only once (their downstream clauses do not
      // depend on which path reached them).
      std::vector<uint32_t> next;
      std::vector<char> seen(plan->to->num_rows(), 0);
      for (size_t i = 0; i < chains.size(); ++i) {
        if (joined[i] == nullptr) continue;
        for (Tid tid : joined[i]->tids) {
          char& s = seen[plan->to->ClassOf(tid)];
          if (s) continue;
          s = 1;
          nodes_.push_back(ChainNode{plan->to, tid, chains[i]});
          next.push_back(static_cast<uint32_t>(nodes_.size() - 1));
        }
      }
      if (!next.empty()) {
        PRECIS_RETURN_NOT_OK(EmitJoinsFrom(plan->edge->to, next));
      }
    }
    return Status::OK();
  }

  RenderState* state_;
  std::string out_;
  std::vector<ChainNode> nodes_;
  std::vector<char> visited_;  // by join-edge ordinal, per subject
  TemplateContext context_;
};

/// One occurrence's paragraphs against the render's shared state.
Result<std::vector<std::string>> RenderOccurrenceIn(
    RenderState* state, const std::string& token,
    const TokenOccurrence& occurrence, ExecutionContext* ctx) {
  std::vector<std::string> paragraphs;
  const PrecisAnswer& answer = state->answer();
  if (!answer.database.HasRelation(occurrence.relation)) return paragraphs;

  // Fault gate for the template-catalog lookups this occurrence will do
  // (one retried check per occurrence, on the caller's thread). Exhausted
  // retries surface as Unavailable; Render() degrades the narrative while
  // keeping the structured answer intact (DESIGN.md §12).
  if (ctx != nullptr && ctx->fault_injector() != nullptr &&
      ctx->fault_injector()->armed()) {
    PRECIS_RETURN_NOT_OK(CheckFaultWithRetry(
        ctx, FaultSite::kTranslatorCatalog, ctx->retry_policy()));
  }

  PRECIS_ASSIGN_OR_RETURN(BoundRelation * rel,
                          state->Bind(occurrence.relation));
  auto rel_id = answer.schema.graph().RelationId(occurrence.relation);
  if (!rel_id.ok()) return rel_id.status();

  // Subjects: the result-database tuples of the occurrence relation that
  // contain the token (the result database holds at most the seed subset
  // selected under the cardinality constraint).
  std::vector<std::string> words = TokenizeWords(token);
  const RelationSchema& schema = rel->relation().schema();
  SubjectWalker walker(state);
  for (Tid tid = 0; tid < rel->num_rows(); ++tid) {
    if (ctx != nullptr && ctx->ShouldStop()) break;  // partial rendering
    const Tuple& tuple = rel->relation().tuple(tid);
    bool contains = false;
    for (size_t i = 0; i < schema.num_attributes() && !contains; ++i) {
      if (schema.attribute(i).type == DataType::kString &&
          !tuple[i].is_null() &&
          ContainsPhrase(tuple[i].AsString(), words)) {
        contains = true;
      }
    }
    if (!contains) continue;

    auto paragraph = walker.Render(*rel_id, rel, tid);
    if (!paragraph.ok()) return paragraph.status();
    if (!paragraph->empty()) paragraphs.push_back(std::move(*paragraph));
  }
  return paragraphs;
}

}  // namespace

Result<std::vector<std::string>> Translator::RenderOccurrence(
    const PrecisAnswer& answer, const std::string& token,
    const TokenOccurrence& occurrence, ExecutionContext* ctx) const {
  RenderState state(catalog_, answer);
  return RenderOccurrenceIn(&state, token, occurrence, ctx);
}

Result<std::string> Translator::Render(const PrecisAnswer& answer,
                                       ExecutionContext* ctx) const {
  ScopedSpan span(ctx, "translate");
  RenderState state(catalog_, answer);
  std::string out;
  const DegradationReport& degradation = answer.report.degradation;
  if (!degradation.shards_skipped.empty()) {
    // The answer was assembled without some partitions (DESIGN.md §17);
    // say so up front — the paper's stance is that a less complete answer
    // must still be an honest one.
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
          RenderOccurrenceIn(&state, match.token, occurrence, ctx);
      if (!paragraphs.ok()) {
        if (paragraphs.status().IsUnavailable()) {
          // Translator-stage fault after retries: the narrative degrades
          // to a placeholder for this occurrence, but the caller still
          // gets its structured answer — rendering never torpedoes the
          // query (DESIGN.md §12).
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

}  // namespace precis
