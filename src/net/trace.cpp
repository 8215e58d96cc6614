#include "net/trace.hpp"

#include <cmath>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/spec.hpp"

namespace gcs::net {

namespace {

// CSV diagnostics name the physical line, JSON diagnostics the 1-based
// event index -- each points at something the user can actually find in
// their file.
[[noreturn]] void fail_at(const char* what, std::size_t index,
                          const std::string& msg) {
  throw std::invalid_argument("contact trace, " + std::string(what) + " " +
                              std::to_string(index) + ": " + msg);
}

[[noreturn]] void fail_line(std::size_t line_no, const std::string& msg) {
  fail_at("line", line_no, msg);
}

[[noreturn]] void fail_event(std::size_t element, const std::string& msg) {
  fail_at("event", element, msg);
}

// Splits one CSV line on commas; fields are not quoted in this format.
std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

double parse_time(const std::string& token, std::size_t line_no) {
  double t = 0.0;
  if (util::json::read_number(token, &t) != util::json::NumberText::kFinite ||
      t < 0.0) {
    fail_line(line_no, "bad time '" + token + "' (must be finite and >= 0)");
  }
  return t;
}

std::size_t parse_count(const std::string& token, std::size_t line_no,
                        const char* what) {
  const std::optional<std::uint64_t> v = util::spec::whole(token);
  if (!v) fail_line(line_no, std::string("bad ") + what + " '" + token + "'");
  return static_cast<std::size_t>(*v);
}

ContactEvent make_event(double t, std::size_t u, std::size_t v, bool up,
                        std::size_t n, const char* what, std::size_t index) {
  if (u >= n || v >= n) {
    fail_at(what, index, "node id out of range (n=" + std::to_string(n) + ")");
  }
  if (u == v) fail_at(what, index, "self-loop " + std::to_string(u));
  ContactEvent ev;
  ev.t = t;
  ev.u = static_cast<NodeId>(u);
  ev.v = static_cast<NodeId>(v);
  ev.up = up;
  return ev;
}

bool parse_action(const std::string& token, const char* what,
                  std::size_t index) {
  if (token == "up") return true;
  if (token == "down") return false;
  fail_at(what, index, "action must be 'up' or 'down', got '" + token + "'");
}

}  // namespace

ContactTrace parse_contact_trace_csv(const std::string& text) {
  ContactTrace trace;
  bool have_n = false;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    // Comments and blank lines carry no data.
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    const std::vector<std::string> fields = split_fields(line.substr(first));
    if (!have_n) {
      if (fields.size() != 2 || fields[0] != "n") {
        fail_line(line_no, "first data line must be 'n,<count>', got '" +
                               line + "'");
      }
      trace.n = parse_count(fields[1], line_no, "node count");
      if (trace.n < 2) fail_line(line_no, "need n >= 2");
      have_n = true;
      continue;
    }
    if (fields.size() != 4) {
      fail_line(line_no, "want 't,u,v,up|down', got '" + line + "'");
    }
    trace.events.push_back(make_event(
        parse_time(fields[0], line_no), parse_count(fields[1], line_no, "node id"),
        parse_count(fields[2], line_no, "node id"),
        parse_action(fields[3], "line", line_no), trace.n, "line", line_no));
  }
  if (!have_n) {
    throw std::invalid_argument("contact trace: no 'n,<count>' line found");
  }
  return trace;
}

ContactTrace parse_contact_trace_json(const util::json::Value& doc) {
  for (const auto& [key, value] : doc.as_object()) {
    (void)value;
    if (key != "n" && key != "events") {
      throw std::invalid_argument("contact trace: unknown key '" + key +
                                  "' (want n/events)");
    }
  }
  ContactTrace trace;
  trace.n = static_cast<std::size_t>(doc.at("n").as_u64());
  if (trace.n < 2) throw std::invalid_argument("contact trace: need n >= 2");
  const util::json::Array& events = doc.at("events").as_array();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::size_t element = i + 1;  // 1-based, like CSV line numbers
    const util::json::Array& ev = events[i].as_array();
    if (ev.size() != 4) {
      fail_event(element, "event must be [t, u, v, \"up\"|\"down\"]");
    }
    const double t = ev[0].as_number();
    if (!std::isfinite(t) || t < 0.0) {
      fail_event(element, "time must be finite and >= 0");
    }
    trace.events.push_back(make_event(
        t, static_cast<std::size_t>(ev[1].as_u64()),
        static_cast<std::size_t>(ev[2].as_u64()),
        parse_action(ev[3].as_string(), "event", element), trace.n, "event",
        element));
  }
  return trace;
}

ContactTrace load_contact_trace(const std::string& path) {
  try {
    const std::string text = util::json::read_file(path);

    const std::size_t dot = path.rfind('.');
    const std::string ext =
        dot == std::string::npos ? "" : path.substr(dot + 1);
    if (ext == "csv") return parse_contact_trace_csv(text);
    if (ext == "json") {
      return parse_contact_trace_json(util::json::parse(text));
    }
    throw std::runtime_error("unknown trace extension '." + ext +
                             "' (want .csv or .json)");
  } catch (const std::exception& e) {
    throw std::runtime_error("trace '" + path + "': " + e.what());
  }
}

Scenario make_trace_scenario(const ContactTrace& trace, double horizon) {
  if (trace.n < 2) {
    throw std::invalid_argument("make_trace_scenario: need n >= 2");
  }
  if (horizon <= 0.0) {
    throw std::invalid_argument("make_trace_scenario: bad horizon");
  }
  Scenario s;
  s.name = "trace";
  s.n = trace.n;
  // Every t == 0 contact folds, in file order, into the initial edge set
  // (so "up, down, up" at t=0 nets to up -- file order is honored even at
  // the start instant); everything later replays as TopologyEvents, where
  // DynamicGraph's stable sort preserves same-instant file order.
  std::set<Edge> initial;
  for (const ContactEvent& ev : trace.events) {
    if (ev.t >= horizon) continue;  // horizon rule: drop, don't clamp
    const Edge e(ev.u, ev.v);
    if (ev.t == 0.0) {
      if (ev.up) {
        initial.insert(e);
      } else {
        initial.erase(e);
      }
    } else {
      s.events.push_back(TopologyEvent{ev.t, e, ev.up});
    }
  }
  s.initial_edges.assign(initial.begin(), initial.end());
  return s;
}

}  // namespace gcs::net
