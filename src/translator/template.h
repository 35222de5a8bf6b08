// The template language of the Result Database Translator (paper §5.3).
//
// "In order to use template labels or to register new ones, we use a simple
//  language for templates that supports variables, loops, functions, and
//  macros."
//
// Syntax implemented here:
//
//   @ATTR            value of attribute ATTR. Resolved against the subject
//                    tuple chain (current subject first, then its
//                    ancestors); if the attribute belongs to the joined
//                    tuple list instead, all list values are joined with
//                    ", " ("Match Point is Drama, Thriller").
//   @ATTR[$i$]       the i-th element of the list's ATTR values; only
//                    meaningful inside a loop block, where i is the loop
//                    variable.
//   [i<arityof(@A)]{body}
//                    body repeated for i = 1 .. arityof(@A)-1 (all list
//                    elements but the last).
//   [i=arityof(@A)]{body}
//                    body evaluated once with i = arityof(@A) (the last
//                    element).
//   %NAME%           expansion of the macro NAME (registered with
//                    TemplateCatalog::DefineMacro). The paper writes macros
//                    as bare identifiers inside label formulas; this
//                    implementation delimits them with '%' so they can be
//                    embedded in free text unambiguously.
//   $fn(arg)$        function application on a nested template:
//                      $upper(...)$  uppercases the rendered argument
//                      $lower(...)$  lowercases it
//                      $trim(...)$   strips surrounding whitespace
//                      $count(@A)$   the arity of attribute A (list size,
//                                    1 when subject-bound, 0 when unbound)
//                    Unknown function names are parse errors; a '$' that
//                    does not start a well-formed application is literal.
//
// Everything else is literal text. Attribute names are case-insensitive.

#ifndef PRECIS_TRANSLATOR_TEMPLATE_H_
#define PRECIS_TRANSLATOR_TEMPLATE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/value.h"

namespace precis {

/// Position of the lowercase attribute `name` among `names` — the last one
/// when two names lowercase alike — or -1 when there is none.
inline int AttributePosition(const std::vector<std::string>& names,
                             const std::string& name) {
  for (size_t i = names.size(); i > 0; --i) {
    if (names[i - 1] == name) return static_cast<int>(i - 1);
  }
  return -1;
}

/// \brief One tuple as a template sees it: the lowercased attribute names
/// of its relation and the tuple's values, position-aligned. Non-owning —
/// the translator points it at the result database's own tuples, so
/// binding a tuple copies nothing.
struct BoundRow {
  const std::vector<std::string>* names = nullptr;
  const Value* values = nullptr;

  /// The value of attribute `name` (lowercase), or nullptr when the tuple
  /// has none (AttributePosition resolves repeated names).
  const Value* Find(const std::string& name) const {
    const int pos = AttributePosition(*names, name);
    return pos < 0 ? nullptr : values + pos;
  }
};

/// \brief Evaluation context for a template: a chain of subject tuples
/// (innermost first — the paper's clause subject plus its ancestors along
/// the traversal) and an optional list of joined tuples.
struct TemplateContext {
  std::vector<BoundRow> subjects;
  const std::vector<BoundRow>* list = nullptr;
};

class TemplateCatalog;  // macro registry, defined in catalog.h

/// \brief A parsed template, evaluatable against a TemplateContext.
class Template {
 public:
  Template() = default;

  /// Parses `source`; fails on unbalanced loop blocks, malformed variable
  /// references or malformed macro delimiters.
  static Result<Template> Parse(const std::string& source);

  /// Renders the template. `catalog` supplies macro definitions and may be
  /// null when the template uses no macros.
  Result<std::string> Evaluate(const TemplateContext& context,
                               const TemplateCatalog* catalog) const;

  const std::string& source() const { return source_; }

 private:
  struct Node {
    enum class Kind { kLiteral, kVariable, kLoop, kMacro, kFunction };
    Kind kind = Kind::kLiteral;
    std::string text;       // literal / attribute name / macro / function
    bool indexed = false;   // @ATTR[$i$]
    bool loop_last = false; // [i=...] (last element) vs [i<...] (all but last)
    std::string loop_attr;  // the A in arityof(@A)
    std::vector<Node> body; // loop or function-argument body
  };

  /// `terminator` is '\0' at top level, '}' inside a loop block, ')' inside
  /// a function argument.
  static Result<std::vector<Node>> ParseNodes(const std::string& source,
                                              size_t* pos, char terminator);
  Status EvaluateNodes(const std::vector<Node>& nodes,
                       const TemplateContext& context,
                       const TemplateCatalog* catalog,
                       std::optional<size_t> loop_index, int depth,
                       std::string* out) const;
  Status ResolveVariable(const std::string& name, bool indexed,
                         const TemplateContext& context,
                         std::optional<size_t> loop_index,
                         std::string* out) const;

  std::string source_;
  std::vector<Node> nodes_;
};

}  // namespace precis

#endif  // PRECIS_TRANSLATOR_TEMPLATE_H_
