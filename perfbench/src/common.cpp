#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

namespace {

// Reference-loop cycles per slice: a few tens of milliseconds on a
// contemporary x86-64 core, short enough to interleave finely.
constexpr std::uint64_t kSliceOps = 200'000;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

}  // namespace

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) out += ", ";
    out += json_string(e.name) + ": {\"value\": " + json_number(e.value) +
           ", \"unit\": " + json_string(e.unit) + "}";
  }
  return out + "}";
}

std::string Metrics::table() const {
  std::ostringstream out;
  for (const Entry& e : entries_) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-34s %16.6g %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    out << line;
  }
  return out.str();
}

HostSpeed::HostSpeed() { (void)loop_.slice_mops(kSliceOps); }

double HostSpeed::slice() {
  const double mops = loop_.slice_mops(kSliceOps);
  samples_.push_back(mops);
  return mops;
}

double Tracer::now_us() const {
  return seconds_between(t0_, Clock::now()) * 1e6;
}

int Tracer::begin(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_us = now_us();
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  open_.push_back(int(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int id) {
  if (!enabled_ || id < 0) return;
  spans_[std::size_t(id)].end_us = now_us();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string parent =
        s.parent < 0 ? "" : spans_[std::size_t(s.parent)].name;
    out << "  {\"name\": " << json_string(s.name)
        << ", \"cat\": " << json_string(s.name.substr(0, s.name.find('.')))
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << json_number(s.start_us)
        << ", \"dur\": " << json_number(s.end_us - s.start_us)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"parent_name\": " << json_string(parent) << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return bool(out);
}

void Context::fail(std::uint64_t ops, const std::string& why) {
  failed += ops;
  correct = false;
  std::cerr << "perfbench: CHECK FAILED (" << workload << "): " << why
            << "\n";
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double self_cpu_seconds() { return cpu_seconds(RUSAGE_SELF); }

double children_cpu_seconds() { return cpu_seconds(RUSAGE_CHILDREN); }

}  // namespace perfbench
