#include "translator/template.h"

#include <cctype>

#include "common/string_util.h"
#include "translator/catalog.h"

namespace precis {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Reads an identifier starting at `pos`; advances `pos` past it.
std::string ReadIdent(const std::string& s, size_t* pos) {
  size_t start = *pos;
  while (*pos < s.size() && IsIdentChar(s[*pos])) ++(*pos);
  return s.substr(start, *pos - start);
}

constexpr int kMaxMacroDepth = 16;

/// Appends `v` as Value::ToString() renders it, without the temporary
/// string for the (common) string case.
void AppendValue(const Value& v, std::string* out) {
  if (v.is_string()) {
    out->append(v.AsString());
  } else {
    out->append(v.ToString());
  }
}

/// Number of list tuples that bind `attr` (the arity of @attr).
size_t ListArity(const TemplateContext& context, const std::string& attr) {
  size_t arity = 0;
  if (context.list != nullptr) {
    for (const BoundRow& row : *context.list) {
      if (row.Find(attr) != nullptr) ++arity;
    }
  }
  return arity;
}

bool IsKnownFunction(const std::string& name) {
  return name == "upper" || name == "lower" || name == "trim" ||
         name == "count";
}

}  // namespace

Result<std::vector<Template::Node>> Template::ParseNodes(
    const std::string& source, size_t* pos, char terminator) {
  std::vector<Node> nodes;
  std::string literal;
  auto flush_literal = [&]() {
    if (!literal.empty()) {
      Node n;
      n.kind = Node::Kind::kLiteral;
      n.text = std::move(literal);
      literal.clear();
      nodes.push_back(std::move(n));
    }
  };

  while (*pos < source.size()) {
    char c = source[*pos];
    if (terminator != '\0' && c == terminator) {
      flush_literal();
      ++(*pos);
      return nodes;
    }
    if (c == '@') {
      ++(*pos);
      std::string name = ReadIdent(source, pos);
      if (name.empty()) {
        return Status::InvalidArgument(
            "template: '@' not followed by an attribute name in: " + source);
      }
      Node n;
      n.kind = Node::Kind::kVariable;
      n.text = ToLower(name);
      // Optional [$i$] index suffix.
      if (source.compare(*pos, 5, "[$i$]") == 0) {
        n.indexed = true;
        *pos += 5;
      }
      flush_literal();
      nodes.push_back(std::move(n));
      continue;
    }
    if (c == '%') {
      ++(*pos);
      std::string name = ReadIdent(source, pos);
      if (name.empty() || *pos >= source.size() || source[*pos] != '%') {
        return Status::InvalidArgument(
            "template: malformed macro reference (expected %NAME%) in: " +
            source);
      }
      ++(*pos);  // closing '%'
      flush_literal();
      Node n;
      n.kind = Node::Kind::kMacro;
      n.text = name;
      nodes.push_back(std::move(n));
      continue;
    }
    if (c == '[') {
      // Loop header: [i<arityof(@A)] or [i=arityof(@A)]
      size_t save = *pos;
      ++(*pos);
      if (source.compare(*pos, 1, "i") == 0) {
        ++(*pos);
        char op = (*pos < source.size()) ? source[*pos] : '\0';
        if (op == '<' || op == '=') {
          ++(*pos);
          if (source.compare(*pos, 9, "arityof(@") == 0) {
            *pos += 9;
            std::string attr = ReadIdent(source, pos);
            if (!attr.empty() && source.compare(*pos, 2, ")]") == 0) {
              *pos += 2;
              if (*pos >= source.size() || source[*pos] != '{') {
                return Status::InvalidArgument(
                    "template: loop header must be followed by '{' in: " +
                    source);
              }
              ++(*pos);  // '{'
              auto body = ParseNodes(source, pos, '}');
              if (!body.ok()) return body.status();
              flush_literal();
              Node n;
              n.kind = Node::Kind::kLoop;
              n.loop_last = (op == '=');
              n.loop_attr = ToLower(attr);
              n.body = std::move(*body);
              nodes.push_back(std::move(n));
              continue;
            }
          }
        }
      }
      // Not a loop header: treat '[' as literal text.
      *pos = save;
      literal.push_back('[');
      ++(*pos);
      continue;
    }
    if (c == '$') {
      // Try a function application $fn(...)$; fall back to a literal '$'.
      size_t save = *pos;
      ++(*pos);
      std::string name = ToLower(ReadIdent(source, pos));
      if (!name.empty() && *pos < source.size() && source[*pos] == '(') {
        if (!IsKnownFunction(name)) {
          return Status::InvalidArgument("template: unknown function '$" +
                                         name + "(...)$' in: " + source);
        }
        ++(*pos);  // '('
        auto body = ParseNodes(source, pos, ')');
        if (!body.ok()) return body.status();
        if (*pos >= source.size() || source[*pos] != '$') {
          return Status::InvalidArgument(
              "template: function application must end with '$' in: " +
              source);
        }
        ++(*pos);  // closing '$'
        flush_literal();
        Node n;
        n.kind = Node::Kind::kFunction;
        n.text = name;
        n.body = std::move(*body);
        nodes.push_back(std::move(n));
        continue;
      }
      *pos = save;
      literal.push_back('$');
      ++(*pos);
      continue;
    }
    literal.push_back(c);
    ++(*pos);
  }
  if (terminator != '\0') {
    return Status::InvalidArgument(
        std::string("template: missing closing '") + terminator +
        "' in: " + source);
  }
  flush_literal();
  return nodes;
}

Result<Template> Template::Parse(const std::string& source) {
  Template t;
  t.source_ = source;
  size_t pos = 0;
  auto nodes = ParseNodes(source, &pos, '\0');
  if (!nodes.ok()) return nodes.status();
  t.nodes_ = std::move(*nodes);
  return t;
}

Status Template::ResolveVariable(const std::string& name, bool indexed,
                                 const TemplateContext& context,
                                 std::optional<size_t> loop_index,
                                 std::string* out) const {
  // Indexed access targets the list.
  if (indexed || loop_index.has_value()) {
    if (context.list != nullptr && loop_index.has_value() &&
        *loop_index < context.list->size()) {
      if (const Value* v = (*context.list)[*loop_index].Find(name)) {
        AppendValue(*v, out);
        return Status::OK();
      }
    }
    if (indexed) {
      return Status::InvalidArgument("template: '@" + name +
                                     "[$i$]' used outside a loop over a "
                                     "list providing that attribute");
    }
  }
  // Subject chain, innermost first.
  for (const BoundRow& subject : context.subjects) {
    if (const Value* v = subject.Find(name)) {
      AppendValue(*v, out);
      return Status::OK();
    }
  }
  // Whole-list access: join all values.
  if (context.list != nullptr) {
    bool found = false;
    for (const BoundRow& row : *context.list) {
      if (const Value* v = row.Find(name)) {
        if (found) out->append(", ");
        AppendValue(*v, out);
        found = true;
      }
    }
    if (found) return Status::OK();
  }
  return Status::NotFound("template: attribute '@" + name +
                          "' not bound in the evaluation context");
}

Status Template::EvaluateNodes(const std::vector<Node>& nodes,
                               const TemplateContext& context,
                               const TemplateCatalog* catalog,
                               std::optional<size_t> loop_index, int depth,
                               std::string* out) const {
  if (depth > kMaxMacroDepth) {
    return Status::InvalidArgument("template: macro recursion too deep");
  }
  for (const Node& node : nodes) {
    switch (node.kind) {
      case Node::Kind::kLiteral:
        out->append(node.text);
        break;
      case Node::Kind::kVariable:
        PRECIS_RETURN_NOT_OK(ResolveVariable(node.text, node.indexed, context,
                                             loop_index, out));
        break;
      case Node::Kind::kLoop: {
        const size_t arity = ListArity(context, node.loop_attr);
        if (arity == 0) break;
        if (node.loop_last) {
          PRECIS_RETURN_NOT_OK(EvaluateNodes(node.body, context, catalog,
                                             arity - 1, depth, out));
        } else {
          for (size_t i = 0; i + 1 < arity; ++i) {
            PRECIS_RETURN_NOT_OK(
                EvaluateNodes(node.body, context, catalog, i, depth, out));
          }
        }
        break;
      }
      case Node::Kind::kFunction: {
        if (node.text == "count") {
          // $count(@A)$: the arity of an attribute reference.
          if (node.body.size() != 1 ||
              node.body[0].kind != Node::Kind::kVariable) {
            return Status::InvalidArgument(
                "template: $count(...)$ takes a single @ATTR reference");
          }
          const std::string& attr = node.body[0].text;
          size_t arity = ListArity(context, attr);
          if (arity == 0) {
            for (const BoundRow& subject : context.subjects) {
              if (subject.Find(attr) != nullptr) {
                arity = 1;
                break;
              }
            }
          }
          out->append(std::to_string(arity));
          break;
        }
        std::string rendered;
        PRECIS_RETURN_NOT_OK(EvaluateNodes(node.body, context, catalog,
                                           loop_index, depth, &rendered));
        if (node.text == "upper") {
          for (char& ch : rendered) {
            ch = static_cast<char>(
                std::toupper(static_cast<unsigned char>(ch)));
          }
          out->append(rendered);
        } else if (node.text == "lower") {
          out->append(ToLower(rendered));
        } else if (node.text == "trim") {
          out->append(Trim(rendered));
        } else {
          return Status::Internal("unhandled template function '" +
                                  node.text + "'");
        }
        break;
      }
      case Node::Kind::kMacro: {
        if (catalog == nullptr) {
          return Status::InvalidArgument("template: macro '%" + node.text +
                                         "%' used without a catalog");
        }
        const Template* macro = catalog->macro(node.text);
        if (macro == nullptr) {
          return Status::NotFound("template: undefined macro '%" + node.text +
                                  "%'");
        }
        PRECIS_RETURN_NOT_OK(macro->EvaluateNodes(
            macro->nodes_, context, catalog, loop_index, depth + 1, out));
        break;
      }
    }
  }
  return Status::OK();
}

Result<std::string> Template::Evaluate(const TemplateContext& context,
                                       const TemplateCatalog* catalog) const {
  std::string out;
  PRECIS_RETURN_NOT_OK(
      EvaluateNodes(nodes_, context, catalog, std::nullopt, 0, &out));
  return out;
}

}  // namespace precis
