#include "harness.hpp"

#include <malloc.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace perfbench {

bool Checks::expect(bool ok, const std::string& what) {
  if (ok) {
    ++passed_;
  } else if (failures_.size() < 64) {  // enough to diagnose, bounded output
    failures_.push_back(what);
  }
  return ok;
}

Tracer::Scope::Scope(Tracer& tracer, std::string name) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  name_ = std::move(name);
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->totals_[name_] += seconds_since(start_);
}

double Tracer::total_seconds(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

std::size_t Pass::total(const std::string& series) const {
  std::size_t n = 0;
  for (const Round& round : rounds) {
    const auto it = round.samples.find(series);
    if (it != round.samples.end()) n += it->second.size();
  }
  return n;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) {
    throw std::runtime_error("cannot reset the peak RSS (/proc/self/clear_refs)");
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench
