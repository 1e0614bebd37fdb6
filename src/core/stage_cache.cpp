#include "core/stage_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace flare::core {
namespace {

constexpr char kSpillMagic[8] = {'F', 'L', 'A', 'R', 'E', 'S', 'P', '1'};

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Writes rows/cols + raw row-major doubles; the reload is bit-identical
/// because no value is ever re-encoded through text.
void write_spill(const std::string& path, const linalg::Matrix& m) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ensure(f != nullptr, "StageOutputCache: cannot create spill file " + path);
  const std::uint64_t dims[2] = {m.rows(), m.cols()};
  bool ok = std::fwrite(kSpillMagic, 1, sizeof(kSpillMagic), f) ==
            sizeof(kSpillMagic);
  ok = ok && std::fwrite(dims, sizeof(std::uint64_t), 2, f) == 2;
  ok = ok && (m.data().empty() ||
              std::fwrite(m.data().data(), sizeof(double), m.data().size(), f) ==
                  m.data().size());
  ok = ok && std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) {
    std::remove(path.c_str());
    throw ParseError("StageOutputCache: short write to spill file " + path);
  }
}

/// True when a `rows × cols` payload of doubles is exactly `payload_bytes`
/// long. A corrupt or hostile header fails here — including one whose
/// product wraps `uint64` — before it can size an allocation.
bool payload_matches(std::uint64_t rows, std::uint64_t cols,
                     std::uintmax_t payload_bytes) {
  constexpr std::uint64_t kMaxDoubles =
      std::numeric_limits<std::uint64_t>::max() / sizeof(double);
  if (cols != 0 && rows > kMaxDoubles / cols) return false;
  return rows * cols * sizeof(double) == payload_bytes;
}

std::optional<linalg::Matrix> read_spill(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  char magic[8];
  std::uint64_t dims[2] = {0, 0};
  constexpr std::uintmax_t kHeaderBytes = sizeof(magic) + sizeof(dims);
  bool ok = file_bytes >= kHeaderBytes &&
            std::fread(magic, 1, sizeof(magic), f) == sizeof(magic) &&
            std::memcmp(magic, kSpillMagic, sizeof(kSpillMagic)) == 0 &&
            std::fread(dims, sizeof(std::uint64_t), 2, f) == 2 &&
            payload_matches(dims[0], dims[1], file_bytes - kHeaderBytes);
  std::vector<double> data;
  if (ok) {
    data.resize(dims[0] * dims[1]);
    ok = data.empty() ||
         std::fread(data.data(), sizeof(double), data.size(), f) == data.size();
  }
  std::fclose(f);
  if (!ok) return std::nullopt;  // torn spill: treat as a miss, recompute
  return linalg::Matrix(dims[0], dims[1], std::move(data));
}

}  // namespace

StageOutputCache::StageOutputCache(StageCacheConfig config)
    : config_(std::move(config)) {
  if (!config_.spill_dir.empty()) {
    std::error_code ec;  // best-effort: a failure surfaces at the first spill
    std::filesystem::create_directories(config_.spill_dir, ec);
  }
}

std::uint64_t StageOutputCache::tagged(std::uint64_t fingerprint) const {
  if (config_.lineage_tag == 0 || fingerprint == 0) return fingerprint;
  const std::uint64_t h = util::hash_mix(fingerprint, config_.lineage_tag);
  // Keep the poisoned sentinel unreachable for real keys.
  return h != 0 ? h : config_.lineage_tag;
}

std::string StageOutputCache::tagged_spill_path(std::string_view stage,
                                                std::uint64_t fingerprint) const {
  std::string path = config_.spill_dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += stage;
  path += '-';
  path += hex64(fingerprint);
  path += ".spill";
  return path;
}

std::string StageOutputCache::spill_path(std::string_view stage,
                                         std::uint64_t fingerprint) const {
  return tagged_spill_path(stage, tagged(fingerprint));
}

StageOutputCache::EntryList::iterator StageOutputCache::find(
    std::string_view stage, std::uint64_t fingerprint) {
  return std::find_if(entries_.begin(), entries_.end(), [&](const Entry& e) {
    return e.fingerprint == fingerprint && e.stage == stage;
  });
}

void StageOutputCache::spill(Entry& entry) {
  if (!config_.spill_dir.empty()) {
    if (!entry.spilled) {
      write_spill(tagged_spill_path(entry.stage, entry.fingerprint), entry.value);
      entry.spilled = true;
      stats_.spilled_bytes += entry.bytes;
      ++stats_.spills;
    }
  } else {
    ++stats_.drops;
  }
  stats_.resident_bytes -= entry.bytes;
  entry.resident = false;
  entry.value = linalg::Matrix();
}

void StageOutputCache::make_room() {
  if (config_.memory_budget_bytes == 0) return;
  while (stats_.resident_bytes > config_.memory_budget_bytes) {
    // Victim: highest drift priority first (its basis is about to be
    // invalidated by a cold refit), then least recently used. The MRU entry
    // is exempt so the value just inserted or reloaded cannot evict itself.
    EntryList::iterator victim = entries_.end();
    for (auto it = std::next(entries_.begin()); it != entries_.end(); ++it) {
      if (!it->resident) continue;
      // >= so that among equal priorities the entry furthest down the list
      // (least recently used) wins.
      if (victim == entries_.end() || it->priority >= victim->priority) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // only the MRU entry is resident
    spill(*victim);
    if (!victim->spilled) entries_.erase(victim);  // dropped outright
  }
}

void StageOutputCache::put(std::string_view stage, std::uint64_t fingerprint,
                           linalg::Matrix value, double eviction_priority) {
  ensure(fingerprint != 0,
         "StageOutputCache::put: zero (poisoned) fingerprints are not "
         "cacheable — the output is not a pure function of a fit input");
  fingerprint = tagged(fingerprint);
  EntryList::iterator it = find(stage, fingerprint);
  if (it != entries_.end()) {
    if (it->resident) stats_.resident_bytes -= it->bytes;
    if (it->spilled) {
      stats_.spilled_bytes -= it->bytes;
      std::remove(tagged_spill_path(it->stage, it->fingerprint).c_str());
    }
    entries_.erase(it);
  }
  Entry entry;
  entry.stage = std::string(stage);
  entry.fingerprint = fingerprint;
  entry.priority = eviction_priority;
  entry.resident = true;
  entry.bytes = payload_bytes(value);
  entry.value = std::move(value);
  stats_.resident_bytes += entry.bytes;
  entries_.push_front(std::move(entry));
  make_room();
}

void StageOutputCache::set_priority(std::string_view stage,
                                    std::uint64_t fingerprint,
                                    double eviction_priority) {
  EntryList::iterator it = find(stage, tagged(fingerprint));
  if (it != entries_.end()) it->priority = eviction_priority;
}

std::optional<linalg::Matrix> StageOutputCache::get(std::string_view stage,
                                                    std::uint64_t fingerprint) {
  if (fingerprint == 0) {
    ++stats_.misses;
    return std::nullopt;
  }
  fingerprint = tagged(fingerprint);
  EntryList::iterator it = find(stage, fingerprint);
  if (it != entries_.end() && it->resident) {
    ++stats_.hits;
    entries_.splice(entries_.begin(), entries_, it);
    return entries_.front().value;
  }
  // Spilled entry, or a cold start against a spill directory populated by an
  // earlier process: probe the content-addressed file.
  if (!config_.spill_dir.empty()) {
    std::optional<linalg::Matrix> loaded =
        read_spill(tagged_spill_path(stage, fingerprint));
    if (loaded.has_value()) {
      ++stats_.reloads;
      if (it == entries_.end()) {
        Entry entry;
        entry.stage = std::string(stage);
        entry.fingerprint = fingerprint;
        entry.spilled = true;
        entry.bytes = payload_bytes(*loaded);
        stats_.spilled_bytes += entry.bytes;
        entries_.push_front(std::move(entry));
        it = entries_.begin();
      } else {
        entries_.splice(entries_.begin(), entries_, it);
      }
      it->resident = true;
      it->value = *loaded;
      stats_.resident_bytes += it->bytes;
      make_room();
      return loaded;
    }
  }
  if (it != entries_.end()) entries_.erase(it);  // spill file went missing
  ++stats_.misses;
  return std::nullopt;
}

linalg::Matrix StageOutputCache::get_or_compute(
    std::string_view stage, std::uint64_t fingerprint, double eviction_priority,
    const std::function<linalg::Matrix()>& compute) {
  std::optional<linalg::Matrix> cached = get(stage, fingerprint);
  if (cached.has_value()) return std::move(*cached);
  linalg::Matrix value = compute();
  put(stage, fingerprint, value, eviction_priority);
  return value;
}

void StageOutputCache::invalidate(std::string_view stage,
                                  std::uint64_t fingerprint) {
  EntryList::iterator it = find(stage, tagged(fingerprint));
  if (it == entries_.end()) return;
  if (it->resident) stats_.resident_bytes -= it->bytes;
  if (it->spilled) {
    stats_.spilled_bytes -= it->bytes;
    std::remove(tagged_spill_path(it->stage, it->fingerprint).c_str());
  }
  entries_.erase(it);
}

void StageOutputCache::clear() {
  for (const Entry& e : entries_) {
    if (e.spilled) std::remove(tagged_spill_path(e.stage, e.fingerprint).c_str());
  }
  entries_.clear();
  stats_.resident_bytes = 0;
  stats_.spilled_bytes = 0;
}

}  // namespace flare::core
