#include "util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

std::uint64_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // ru_maxrss is KiB on Linux
}

double clock_overhead_ns() {
  std::vector<double> pairs;
  pairs.reserve(10'000);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t a = now_ns();
    const std::uint64_t b = now_ns();
    pairs.push_back(static_cast<double>(b - a));
  }
  return median(std::move(pairs));
}

std::uint64_t Tracer::open(const char* name, std::uint64_t parent, std::uint64_t request) {
  if (!enabled_) return 0;
  spans_.push_back({name, parent, request, now_ns(), 0});
  return spans_.size();
}

void Tracer::close(std::uint64_t id) {
  if (id != 0) spans_[id - 1].end = now_ns();
}

std::uint64_t Tracer::add(const char* name, std::uint64_t parent, std::uint64_t request,
                          std::uint64_t start, std::uint64_t end) {
  if (!enabled_) return 0;
  spans_.push_back({name, parent, request, start, end});
  return spans_.size();
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open span output " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i + 1 << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"request\":" << s.request << ",\"start_ns\":" << s.start - origin_
        << ",\"end_ns\":" << s.end - origin_ << "}\n";
  }
  if (!out) throw std::runtime_error("short write to span output " + path);
}

}  // namespace perfbench
