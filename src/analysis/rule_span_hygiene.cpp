// R10 span-hygiene: RAII observability guards are held, not dropped.
//
//   (a) `obs::Span("x");` / `obs::ScopedTimer("x");` as a statement
//       constructs a temporary that dies at the semicolon — the span
//       closes instantly and times nothing. The guard must be named.
//   (b) log_event() attaches events to the ambient trace scope; calling
//       it from a function that never opens one (no Span/ScopedTimer
//       declared earlier in the body, none received as a parameter) emits
//       an event no trace can anchor. src/obs/ is
//       exempt — it implements the machinery.
//
// Lambdas attribute to the enclosing named function (the indexer does not
// model them), which is the right granularity: a worker lambda logging
// under its parent's span is fine.
#include <string_view>

#include "analysis/rule_support.hpp"
#include "analysis/rules.hpp"

namespace sgp::analysis {
namespace {

using detail::has_prefix;
using detail::ident;
using detail::match_paren;
using detail::punct;

bool is_guard_name(const std::string& name) {
  return name == "Span" || name == "ScopedTimer";
}

/// Token index where the qualified-name chain ending at `i` starts
/// (`obs :: Span` → index of `obs`).
std::size_t chain_start(const std::vector<Token>& t, std::size_t i) {
  while (i >= 2 && punct(t, i - 1, "::") &&
         t[i - 2].kind == TokKind::kIdentifier) {
    i -= 2;
  }
  return i;
}

void check_discarded_guards(const SourceFile& file, const FileIndex& index,
                            std::vector<Finding>& out) {
  const std::vector<Token>& t = index.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier || !is_guard_name(t[i].text) ||
        !punct(t, i + 1, "(")) {
      continue;
    }
    const std::size_t start = chain_start(t, i);
    // Only a statement-position temporary is a bug; `return Span(...)`,
    // `f(Span(...))`, and member-init lists all keep the object alive.
    const bool stmt_start = start == 0 || punct(t, start - 1, ";") ||
                            punct(t, start - 1, "{") ||
                            punct(t, start - 1, "}");
    if (!stmt_start) continue;
    const std::size_t rp = match_paren(t, i + 1);
    if (rp >= t.size() || !punct(t, rp + 1, ";")) continue;
    out.push_back({"R10", file.path, t[i].line, t[i].text + "(...)",
                   "span-hygiene: discarded " + t[i].text +
                       " temporary — the guard closes at the semicolon "
                       "and measures nothing",
                   "name the guard: obs::" + t[i].text +
                       " timer(...); it then spans the enclosing scope"});
  }
}

void check_log_event_scope(const SourceFile& file, const FileIndex& index,
                           std::vector<Finding>& out) {
  const std::vector<Token>& t = index.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!ident(t, i, "log_event") || !punct(t, i + 1, "(")) continue;
    const FunctionDef* def = enclosing_function(index, i);
    if (def == nullptr) continue;
    bool scoped = false;
    // A span received by reference counts as an active scope.
    for (std::size_t j = def->params_begin;
         j < def->params_end && !scoped; ++j) {
      scoped = t[j].kind == TokKind::kIdentifier && is_guard_name(t[j].text);
    }
    // A guard declared earlier in the body (name follows the type).
    for (std::size_t j = def->body_begin; j < i && !scoped; ++j) {
      scoped = t[j].kind == TokKind::kIdentifier &&
               is_guard_name(t[j].text) && j + 1 < t.size() &&
               t[j + 1].kind == TokKind::kIdentifier;
    }
    if (scoped) continue;
    out.push_back({"R10", file.path, t[i].line, "log_event",
                   "span-hygiene: log_event() in '" + def->name +
                       "' with no active scope — no Span/ScopedTimer "
                       "opened earlier, none passed in: the event has "
                       "nothing to anchor to",
                   "open an obs::ScopedTimer (with a registered metric "
                   "name) before the first log_event, or pass the "
                   "caller's span in"});
  }
}

}  // namespace

void rule_span_hygiene(const SourceFile& file, const FileIndex& index,
                       std::vector<Finding>& out) {
  if (!has_prefix(file.path, "src/")) return;
  if (has_prefix(file.path, "src/obs/")) return;
  check_discarded_guards(file, index, out);
  check_log_event_scope(file, index, out);
}

}  // namespace sgp::analysis
