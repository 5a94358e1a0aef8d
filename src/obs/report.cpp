#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/event_log.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/errors.hpp"
#include "util/json.hpp"

namespace sgp::obs {
namespace {

constexpr const char kSchema[] = "sgp-obs-report v1";

std::string quoted(std::string_view s) {
  std::string out;
  util::append_json_string(out, s);
  return out;
}

double number_or(const util::JsonValue* v, double fallback) {
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

std::string string_or(const util::JsonValue* v, const std::string& fallback) {
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

void append_events_json(std::string& out) {
  out += "[";
  const std::vector<EventRecord> events = collected_events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const EventRecord& e = events[i];
    out += i == 0 ? "\n  " : ",\n  ";
    out += "{\"t\": " + util::json_number(e.t) + ", \"name\": " +
           quoted(e.name) + ", \"fields\": {";
    for (std::size_t f = 0; f < e.fields.size(); ++f) {
      if (f > 0) out += ", ";
      out += quoted(e.fields[f].first) + ": " + quoted(e.fields[f].second);
    }
    out += "}}";
  }
  out += events.empty() ? "]" : "\n]";
}

}  // namespace

Report& Report::meta(std::string_view key, std::string_view value) {
  meta_.emplace_back(std::string(key), quoted(value));
  return *this;
}

Report& Report::meta(std::string_view key, const char* value) {
  return meta(key, std::string_view(value));
}

Report& Report::meta(std::string_view key, double value) {
  meta_.emplace_back(std::string(key), util::json_number(value));
  return *this;
}

Report& Report::meta(std::string_view key, std::int64_t value) {
  meta_.emplace_back(std::string(key),
                     util::json_number(static_cast<double>(value)));
  return *this;
}

Report& Report::meta(std::string_view key, std::uint64_t value) {
  meta_.emplace_back(std::string(key), util::json_number(value));
  return *this;
}

Report& Report::meta(std::string_view key, bool value) {
  meta_.emplace_back(std::string(key), value ? "true" : "false");
  return *this;
}

void Report::write(std::ostream& out) const {
  std::string buf;
  buf += "{\n\"schema\": ";
  buf += quoted(kSchema);
  buf += ",\n\"id\": ";
  buf += quoted(id_);
  buf += ",\n\"meta\": {";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (i > 0) buf += ", ";
    buf += quoted(meta_[i].first) + ": " + meta_[i].second;
  }
  buf += "},\n\"phases\": [";
  // Root spans in completion order; only finished spans exist here.
  const std::vector<SpanRecord> spans = collected_spans();
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (span.parent_id != 0) continue;
    if (!first) buf += ", ";
    first = false;
    buf += "{\"name\": " + quoted(span.name) +
           ", \"seconds\": " + util::json_number(span.duration_seconds) + "}";
  }
  buf += "],\n\"metrics\": ";
  out << buf;
  {
    std::ostringstream metrics;
    write_metrics_json(metrics);
    std::string text = metrics.str();
    while (!text.empty() && text.back() == '\n') text.pop_back();
    out << text;
  }
  out << ",\n\"spans\": ";
  {
    std::ostringstream trace;
    write_trace_json(trace);
    std::string text = trace.str();
    while (!text.empty() && text.back() == '\n') text.pop_back();
    out << text;
  }
  std::string events = ",\n\"events\": ";
  append_events_json(events);
  out << events << "\n}\n";
}

void Report::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    throw util::IoError("report: cannot open " + path);
  }
  write(out);
  out.flush();
  if (!out.good()) {
    throw util::IoError("report: failed writing " + path);
  }
}

namespace {

std::optional<std::string> check_metrics_block(const util::JsonValue& doc) {
  const util::JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return "missing or non-object 'metrics'";
  }
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const util::JsonValue* block = metrics->find(section);
    if (block == nullptr || !block->is_object()) {
      return std::string("metrics: missing or non-object '") + section + "'";
    }
  }
  for (const auto& [name, value] : metrics->find("counters")->as_object()) {
    if (!value.is_number()) {
      return "metrics.counters." + name + ": not a number";
    }
  }
  for (const auto& [name, hist] : metrics->find("histograms")->as_object()) {
    if (!hist.is_object() || hist.find("count") == nullptr ||
        !hist.find("count")->is_number() || hist.find("sum") == nullptr ||
        !hist.find("sum")->is_number() || hist.find("buckets") == nullptr ||
        !hist.find("buckets")->is_array()) {
      return "metrics.histograms." + name +
             ": expected {count, sum, buckets[]}";
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_spans(const util::JsonValue& spans,
                                       const std::string& path) {
  if (!spans.is_array()) return path + ": not an array";
  for (std::size_t i = 0; i < spans.as_array().size(); ++i) {
    const util::JsonValue& span = spans.as_array()[i];
    const std::string here = path + "[" + std::to_string(i) + "]";
    if (!span.is_object()) return here + ": not an object";
    if (span.find("name") == nullptr || !span.find("name")->is_string()) {
      return here + ": missing string 'name'";
    }
    for (const char* field : {"start", "duration"}) {
      if (span.find(field) == nullptr || !span.find(field)->is_number()) {
        return here + ": missing number '" + std::string(field) + "'";
      }
    }
    const util::JsonValue* children = span.find("children");
    if (children == nullptr) return here + ": missing 'children'";
    if (auto err = check_spans(*children, here + ".children")) return err;
  }
  return std::nullopt;
}

std::optional<std::string> check_events(const util::JsonValue& events) {
  if (!events.is_array()) return "events: not an array";
  for (std::size_t i = 0; i < events.as_array().size(); ++i) {
    const util::JsonValue& event = events.as_array()[i];
    const std::string here = "events[" + std::to_string(i) + "]";
    if (!event.is_object() || event.find("t") == nullptr ||
        !event.find("t")->is_number() || event.find("name") == nullptr ||
        !event.find("name")->is_string()) {
      return here + ": expected {t: number, name: string, fields: {}}";
    }
    const util::JsonValue* fields = event.find("fields");
    if (fields == nullptr || !fields->is_object()) {
      return here + ": missing object 'fields'";
    }
    for (const auto& [key, value] : fields->as_object()) {
      if (!value.is_string()) {
        return here + ".fields." + key + ": not a string";
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> validate_report_json(const util::JsonValue& doc) {
  if (!doc.is_object()) return "document is not an object";
  const util::JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return "missing string 'schema'";
  }
  if (schema->as_string() != kSchema) {
    return "unknown schema '" + schema->as_string() + "' (expected '" +
           kSchema + "')";
  }
  const util::JsonValue* id = doc.find("id");
  if (id == nullptr || !id->is_string() || id->as_string().empty()) {
    return "missing non-empty string 'id'";
  }
  const util::JsonValue* meta = doc.find("meta");
  if (meta == nullptr || !meta->is_object()) {
    return "missing or non-object 'meta'";
  }
  const util::JsonValue* phases = doc.find("phases");
  if (phases == nullptr || !phases->is_array()) {
    return "missing or non-array 'phases'";
  }
  for (std::size_t i = 0; i < phases->as_array().size(); ++i) {
    const util::JsonValue& phase = phases->as_array()[i];
    if (!phase.is_object() || phase.find("name") == nullptr ||
        !phase.find("name")->is_string() || phase.find("seconds") == nullptr ||
        !phase.find("seconds")->is_number()) {
      return "phases[" + std::to_string(i) +
             "]: expected {name: string, seconds: number}";
    }
  }
  if (auto err = check_metrics_block(doc)) return err;
  const util::JsonValue* spans = doc.find("spans");
  if (spans == nullptr) return "missing 'spans'";
  if (auto err = check_spans(*spans, "spans")) return err;
  if (const util::JsonValue* events = doc.find("events")) {
    return check_events(*events);
  }
  return std::nullopt;
}

namespace {

const std::map<std::string, util::JsonValue>& object_or_empty(
    const util::JsonValue* v) {
  static const std::map<std::string, util::JsonValue> kEmpty;
  return v != nullptr && v->is_object() ? v->as_object() : kEmpty;
}

void append_chrome_args(std::string& out,
                        const std::map<std::string, util::JsonValue>& fields) {
  out += "\"args\": {";
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!value.is_string()) continue;
    if (!first) out += ", ";
    first = false;
    out += quoted(key) + ": " + quoted(value.as_string());
  }
  out += "}";
}

void append_chrome_span(std::string& out, const util::JsonValue& span) {
  if (!span.is_object()) return;
  const util::JsonValue* name = span.find("name");
  const util::JsonValue* start = span.find("start");
  const util::JsonValue* duration = span.find("duration");
  if (name == nullptr || !name->is_string() || start == nullptr ||
      !start->is_number() || duration == nullptr || !duration->is_number()) {
    return;
  }
  out += ",\n  {\"name\": " + quoted(name->as_string());
  out += ", \"ph\": \"X\"";
  out += ", \"ts\": " + util::json_number(start->as_number() * 1e6);
  out += ", \"dur\": " +
         util::json_number(std::max(0.0, duration->as_number() * 1e6));
  out += ", \"pid\": 0";
  out += ", \"tid\": " + util::json_number(number_or(span.find("thread"), 0));
  out += ", ";
  append_chrome_args(out, object_or_empty(span.find("attrs")));
  out += "}";
  const util::JsonValue* children = span.find("children");
  if (children != nullptr && children->is_array()) {
    for (const util::JsonValue& child : children->as_array()) {
      append_chrome_span(out, child);
    }
  }
}

void append_chrome_event(std::string& out, const util::JsonValue& event) {
  if (!event.is_object()) return;
  const util::JsonValue* name = event.find("name");
  const util::JsonValue* t = event.find("t");
  if (name == nullptr || !name->is_string() || t == nullptr ||
      !t->is_number()) {
    return;
  }
  const std::string ts = util::json_number(t->as_number() * 1e6);
  const auto& fields = object_or_empty(event.find("fields"));
  if (name->as_string() == names::kEventProcSample) {
    // Resource samples become counter tracks: numeric fields only.
    out += ",\n  {\"name\": \"proc\", \"ph\": \"C\", \"ts\": " + ts +
           ", \"pid\": 0, \"args\": {";
    bool first = true;
    for (const auto& [key, value] : fields) {
      if (!value.is_string()) continue;
      char* end = nullptr;
      const double num = std::strtod(value.as_string().c_str(), &end);
      if (end == value.as_string().c_str()) continue;
      if (!first) out += ", ";
      first = false;
      out += quoted(key) + ": " + util::json_number(num);
    }
    out += "}}";
  } else {
    out += ",\n  {\"name\": " + quoted(name->as_string()) +
           ", \"ph\": \"i\", \"ts\": " + ts +
           ", \"pid\": 0, \"tid\": 0, \"s\": \"p\", ";
    append_chrome_args(out, fields);
    out += "}";
  }
}

}  // namespace

void write_chrome_trace(std::ostream& out, const util::JsonValue& report) {
  // A process-name record labels the one lane with the report id.
  std::string buf =
      "{\"traceEvents\": [\n  {\"name\": \"process_name\", \"ph\": \"M\", "
      "\"pid\": 0, \"tid\": 0, \"args\": {\"name\": " +
      quoted(string_or(report.find("id"), "sgp")) + "}}";
  const util::JsonValue* spans = report.find("spans");
  if (spans != nullptr && spans->is_array()) {
    for (const util::JsonValue& span : spans->as_array()) {
      append_chrome_span(buf, span);
    }
  }
  const util::JsonValue* events = report.find("events");
  if (events != nullptr && events->is_array()) {
    for (const util::JsonValue& event : events->as_array()) {
      append_chrome_event(buf, event);
    }
  }
  buf += "\n]}\n";
  out << buf;
}

std::optional<std::string> validate_chrome_trace_json(
    const util::JsonValue& doc) {
  if (!doc.is_object()) return "document is not an object";
  const util::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return "missing or non-array 'traceEvents'";
  }
  for (std::size_t i = 0; i < events->as_array().size(); ++i) {
    const util::JsonValue& event = events->as_array()[i];
    const std::string here = "traceEvents[" + std::to_string(i) + "]";
    if (!event.is_object()) return here + ": not an object";
    const util::JsonValue* name = event.find("name");
    if (name == nullptr || !name->is_string()) {
      return here + ": missing string 'name'";
    }
    const util::JsonValue* ph = event.find("ph");
    if (ph == nullptr || !ph->is_string()) {
      return here + ": missing string 'ph'";
    }
    const std::string& kind = ph->as_string();
    if (kind != "X" && kind != "i" && kind != "M" && kind != "C") {
      return here + ": unsupported phase '" + kind + "'";
    }
    const util::JsonValue* pid = event.find("pid");
    if (pid == nullptr || !pid->is_number()) {
      return here + ": missing number 'pid'";
    }
    if (kind != "M") {
      const util::JsonValue* ts = event.find("ts");
      if (ts == nullptr || !ts->is_number()) {
        return here + ": missing number 'ts'";
      }
    }
    if (kind == "X") {
      const util::JsonValue* dur = event.find("dur");
      if (dur == nullptr || !dur->is_number() || dur->as_number() < 0) {
        return here + ": missing non-negative number 'dur'";
      }
    }
  }
  return std::nullopt;
}

namespace {

struct ShardRow {
  std::string shard;
  double start = 0.0;
  double duration = 0.0;
};

void collect_shard_rows(const util::JsonValue& span,
                        std::vector<ShardRow>& rows) {
  if (!span.is_object()) return;
  if (string_or(span.find("name"), "") == names::kPublishShard) {
    ShardRow row;
    const util::JsonValue* attrs = span.find("attrs");
    row.shard = string_or(attrs != nullptr ? attrs->find("shard") : nullptr,
                          "");
    row.start = number_or(span.find("start"), 0.0);
    row.duration = number_or(span.find("duration"), 0.0);
    rows.push_back(std::move(row));
  }
  const util::JsonValue* children = span.find("children");
  if (children != nullptr && children->is_array()) {
    for (const util::JsonValue& child : children->as_array()) {
      collect_shard_rows(child, rows);
    }
  }
}

/// The deepest-latest chain: from the longest root, repeatedly descend into
/// the child whose end time is latest.
void append_critical_path(std::string& out, const util::JsonValue& span,
                          int depth) {
  if (!span.is_object()) return;
  char line[256];
  const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  std::snprintf(line, sizeof(line), "  %s%-36s %10.4fs\n", indent.c_str(),
                string_or(span.find("name"), "?").c_str(),
                number_or(span.find("duration"), 0.0));
  out += line;
  const util::JsonValue* children = span.find("children");
  if (children == nullptr || !children->is_array() ||
      children->as_array().empty()) {
    return;
  }
  const util::JsonValue* latest = nullptr;
  double latest_end = -1.0;
  for (const util::JsonValue& child : children->as_array()) {
    const double end = number_or(child.find("start"), 0.0) +
                       number_or(child.find("duration"), 0.0);
    if (end > latest_end) {
      latest_end = end;
      latest = &child;
    }
  }
  if (latest != nullptr) append_critical_path(out, *latest, depth + 1);
}

}  // namespace

void write_trace_summary(std::ostream& out, const util::JsonValue& report) {
  std::string buf = "report " + string_or(report.find("id"), "?") + "\n";

  // Per-shard Gantt over the publish.shard spans.
  std::vector<ShardRow> rows;
  const util::JsonValue* spans = report.find("spans");
  if (spans != nullptr && spans->is_array()) {
    for (const util::JsonValue& span : spans->as_array()) {
      collect_shard_rows(span, rows);
    }
  }
  if (!rows.empty()) {
    std::sort(rows.begin(), rows.end(),
              [](const ShardRow& a, const ShardRow& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.shard < b.shard;
              });
    double t0 = rows.front().start;
    double t1 = t0;
    for (const ShardRow& r : rows) {
      t0 = std::min(t0, r.start);
      t1 = std::max(t1, r.start + r.duration);
    }
    const double span_total = std::max(t1 - t0, 1e-9);
    constexpr int kWidth = 40;
    buf += "\nshard timeline (" + util::json_number(span_total) + "s)\n";
    for (const ShardRow& r : rows) {
      const int begin = static_cast<int>((r.start - t0) / span_total * kWidth);
      int len = static_cast<int>(r.duration / span_total * kWidth + 0.5);
      len = std::max(len, 1);
      len = std::min(len, kWidth - begin);
      std::string bar(static_cast<std::size_t>(kWidth), '.');
      for (int i = begin; i < begin + len && i < kWidth; ++i) bar[i] = '#';
      char line[256];
      std::snprintf(line, sizeof(line), "  shard %-4s [%s] %8.4fs\n",
                    r.shard.c_str(), bar.c_str(), r.duration);
      buf += line;
    }
  }

  // Critical path from the longest-running root span.
  if (spans != nullptr && spans->is_array() && !spans->as_array().empty()) {
    const util::JsonValue* longest = nullptr;
    double longest_dur = -1.0;
    for (const util::JsonValue& span : spans->as_array()) {
      const double dur = number_or(span.find("duration"), 0.0);
      if (dur > longest_dur) {
        longest_dur = dur;
        longest = &span;
      }
    }
    if (longest != nullptr) {
      buf += "\ncritical path\n";
      append_critical_path(buf, *longest, 0);
    }
  }
  out << buf;
}

}  // namespace sgp::obs
