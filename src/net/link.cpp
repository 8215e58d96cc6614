#include "net/link.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "util/spec.hpp"

namespace gcs::net {

namespace {

using Traffic = TrafficModel;
using util::field;
constexpr util::DiffClass kFloat = util::DiffClass::kFloat;

// Traffic kinds: kKinds[i] is Kind(i) and bit 1 << i of each knob's kind
// mask ("off" takes no knob).
const char* const kKinds[] = {"off", "idle", "cbr", "bulk"};
enum : unsigned { kIdle = 2, kCbr = 4, kBulk = 8, kAny = 14 };
const util::Knob<Traffic> kKnobs[] = {
    {field<&Traffic::bandwidth>("bw", kFloat), kAny},
    {field<&Traffic::queue_bytes>("queue", kFloat), kAny},
    {field<&Traffic::mark_bytes>("mark", kFloat), kAny},
    {field<&Traffic::sync_bytes>("msg", kFloat), kAny},
    {field<&Traffic::rate>("rate", kFloat), kCbr},
    {field<&Traffic::packet_bytes>("pkt", kFloat), kCbr},
    {field<&Traffic::transfer_bytes>("bytes", kFloat), kBulk},
    {field<&Traffic::interval>("interval", kFloat), kBulk},
};

}  // namespace

TrafficModel parse_traffic(const std::string& text) {
  TrafficModel m;
  util::spec::Reader spec(text, "traffic");
  unsigned i = 0;
  while (i < 4 && spec.kind() != kKinds[i]) ++i;
  if (i == 4) spec.fail("unknown kind (expected off | idle | cbr | bulk)");
  m.kind = static_cast<Traffic::Kind>(i);
  spec.read_knobs(kKnobs, 1u << i, m);
  // bw, queue and mark may be 0 (infinite, unbounded, off); every other
  // knob must be > 0.  cbr and bulk load a finite link, so they need bw
  // and their own knobs (which default to 0).
  const bool cbr = m.kind == Traffic::Kind::kCbr;
  const bool bulk = m.kind == Traffic::Kind::kBulk;
  const std::tuple<const char*, double, bool> checks[] = {
      {"bw", m.bandwidth, cbr || bulk}, {"queue", m.queue_bytes, false},
      {"mark", m.mark_bytes, false},    {"msg", m.sync_bytes, true},
      {"rate", m.rate, cbr},            {"pkt", m.packet_bytes, true},
      {"bytes", m.transfer_bytes, bulk}, {"interval", m.interval, bulk}};
  for (const auto& [key, value, positive] : checks) {
    if (positive ? !(value > 0.0) : value < 0.0) {
      spec.fail(std::string("'") + key + "' must be " +
                (positive ? "> 0" : ">= 0") + ", got '" +
                util::json::dump_number(value) + "'");
    }
  }
  // Every size the link serializes must take a finite time over bw: an
  // infinite one would overflow the FIFO state and the backlog counters.
  const std::pair<const char*, double> sizes[] = {
      {"msg", m.sync_bytes}, {cbr ? "pkt" : "bytes", m.flow_bytes()}};
  for (const auto& [key, bytes] : sizes) {
    if (m.bandwidth > 0.0 && !std::isfinite(bytes / m.bandwidth)) {
      spec.fail(std::string("'") + key + "' = " +
                util::json::dump_number(bytes) + " over 'bw' = " +
                util::json::dump_number(m.bandwidth) +
                " takes a non-finite transmission time");
    }
  }
  return m;
}

LinkDecision link_offer(const TrafficModel& model, LinkDir& dir, double t,
                        double bytes, bool droppable) {
  LinkDecision d;
  if (!model.pipeline_active() || model.bandwidth <= 0.0) return d;
  d.backlog_bytes = std::max(0.0, dir.busy_until - t) * model.bandwidth;
  if (droppable && model.queue_bytes > 0.0 &&
      d.backlog_bytes + bytes > model.queue_bytes) {
    d.dropped = true;  // FIFO full: state untouched, packet discarded
    return d;
  }
  d.marked = model.mark_bytes > 0.0 && d.backlog_bytes > model.mark_bytes;
  const double start = std::max(t, dir.busy_until);
  d.wait = start - t;
  d.tx = bytes / model.bandwidth;
  dir.busy_until = start + d.tx;
  return d;
}

double flow_phase(std::uint64_t key) {
  // splitmix64 finalizer: a stable, well-mixed function of the key; the
  // modulus keeps the fraction strictly inside (0, 1).
  std::uint64_t z = key + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<double>(z % 997u + 1u) / 999.0;
}

}  // namespace gcs::net
