#include "harness.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

// ---- Percentiles -------------------------------------------------------

namespace {

/// 0-based index of the nearest-rank q-percentile among n sorted samples.
std::size_t rank_index(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  const auto rank = static_cast<std::size_t>(std::max(1.0, r));
  return std::min(rank, n) - 1;
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t k = rank_index(samples.size(), q);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - (rank_index(n, q) + 1);
}

bool tail_reportable(std::size_t n, double q) {
  return samples_beyond(n, q) >= kTailSamples;
}

std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (!tail_reportable(n, q)) ++n;
  return n;
}

// ---- Clocks ------------------------------------------------------------

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

// ---- Spans -------------------------------------------------------------

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t tick)
    : tracer_(tracer), index_(tracer.open(name, tick)) {}

Tracer::Scope::~Scope() { tracer_.close(index_); }

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

std::int32_t Tracer::open(const char* name, std::uint64_t tick) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.tick = tick;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(index);
  spans_.back().start_ns = now_ns();
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();  // scopes close innermost first
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = self_times_ms(spans_);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\":" << json_quote(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << json_number(static_cast<double>(s.start_ns) * 1e-3)
        << ",\"dur\":"
        << json_number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"tick\":" << s.tick << ",\"self_ms\":" << json_number(self[i])
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);

  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> parts;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    parts.clear();
    for (const std::size_t c : children[i]) {
      const std::uint64_t a = std::max(spans[c].start_ns, p.start_ns);
      const std::uint64_t b = std::min(spans[c].end_ns, p.end_ns);
      if (a < b) parts.emplace_back(a, b);
    }
    std::sort(parts.begin(), parts.end());
    std::uint64_t covered = 0, reach = 0;
    for (const auto& [a, b] : parts) {
      const std::uint64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const std::uint64_t dur = p.end_ns > p.start_ns ? p.end_ns - p.start_ns : 0;
    self[i] = static_cast<double>(dur - std::min(dur, covered)) * 1e-6;
  }
  return self;
}

// ---- Probe reach -------------------------------------------------------

Reach count_reach(const std::vector<char>& received,
                  const std::vector<std::uint32_t>& component_of,
                  std::uint32_t source) {
  Reach r;
  if (source >= component_of.size()) return r;
  const std::uint32_t label = component_of[source];
  for (std::size_t v = 0; v < component_of.size(); ++v) {
    if (component_of[v] != label) continue;
    ++r.component;
    if (v < received.size() && received[v]) ++r.reached;
  }
  return r;
}

// ---- Host fingerprint --------------------------------------------------

HostFingerprint host_fingerprint() {
  HostFingerprint h;
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  h.hardware_concurrency = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    h.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
    break;
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  return h;
}

// ---- JSON --------------------------------------------------------------

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

JsonObject& JsonObject::num(const std::string& key, double value) {
  return raw(key, json_number(value));
}

JsonObject& JsonObject::integer(const std::string& key, std::uint64_t value) {
  return raw(key, std::to_string(value));
}

JsonObject& JsonObject::boolean(const std::string& key, bool value) {
  return raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::str(const std::string& key, const std::string& value) {
  return raw(key, json_quote(value));
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::dump() const {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < fields_.size(); ++i)
    out << (i ? ", " : "") << json_quote(fields_[i].first) << ": "
        << fields_[i].second;
  out << '}';
  return out.str();
}

}  // namespace perfbench
