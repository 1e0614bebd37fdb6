#include "dcsim/scenario.hpp"

#include <charconv>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

namespace flare::dcsim {

void JobMix::remove(JobType type, int n) {
  int& slot = instances[job_index(type)];
  ensure(slot >= n, "JobMix::remove: removing more instances than present");
  slot -= n;
}

int JobMix::total_instances() const {
  int total = 0;
  for (const int n : instances) total += n;
  return total;
}

int JobMix::hp_instances() const {
  int total = 0;
  for (std::size_t i = 0; i < kNumHpJobTypes; ++i) total += instances[i];
  return total;
}

int JobMix::lp_instances() const { return total_instances() - hp_instances(); }

template <typename Append>
void JobMix::for_each_key_piece(Append&& append) const {
  bool first = true;
  for (std::size_t i = 0; i < kNumJobTypes; ++i) {
    if (instances[i] == 0) continue;
    if (!first) append(std::string_view(","));
    first = false;
    append(job_code(static_cast<JobType>(i)));
    append(std::string_view(":"));
    char digits[16];
    const char* end =
        std::to_chars(digits, digits + sizeof(digits), instances[i]).ptr;
    append(std::string_view(digits, static_cast<std::size_t>(end - digits)));
  }
}

std::string JobMix::key() const {
  std::string out;
  for_each_key_piece([&](std::string_view piece) { out += piece; });
  return out;
}

std::uint64_t JobMix::key_hash(std::uint64_t seed) const {
  // FNV-1a folds bytes one at a time, so chaining it over the pieces equals
  // hashing the concatenated key.
  std::uint64_t h = seed;
  for_each_key_piece([&](std::string_view piece) { h = util::fnv1a(piece, h); });
  return h;
}

JobMix JobMix::from_key(std::string_view key) {
  JobMix mix;
  if (util::trim(key).empty()) return mix;
  // Walks the comma-separated "code:count" entries as views into `key`.
  while (true) {
    const std::size_t comma = key.find(',');
    const std::string_view part = key.substr(0, comma);
    const std::size_t colon = part.find(':');
    if (colon == std::string_view::npos ||
        part.find(':', colon + 1) != std::string_view::npos) {
      throw ParseError("JobMix::from_key: malformed entry '" + std::string(part) +
                       "'");
    }
    const JobType type = job_type_from_code(util::trim(part.substr(0, colon)));
    const long long count = util::parse_int(part.substr(colon + 1));
    if (count <= 0) {
      throw ParseError("JobMix::from_key: non-positive count in '" +
                       std::string(part) + "'");
    }
    mix.add(type, static_cast<int>(count));
    if (comma == std::string_view::npos) return mix;
    key.remove_prefix(comma + 1);
  }
}

double ScenarioSet::total_weight() const {
  double total = 0.0;
  for (const ColocationScenario& s : scenarios) total += s.observation_weight;
  return total;
}

std::vector<double> ScenarioSet::normalized_weights() const {
  const double total = total_weight();
  ensure(total > 0.0, "ScenarioSet::normalized_weights: zero total weight");
  std::vector<double> weights;
  weights.reserve(scenarios.size());
  for (const ColocationScenario& s : scenarios) {
    weights.push_back(s.observation_weight / total);
  }
  return weights;
}

}  // namespace flare::dcsim
