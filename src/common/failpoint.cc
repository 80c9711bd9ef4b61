#include "common/failpoint.h"

namespace mvopt {

FailpointRegistry& FailpointRegistry::Instance() {
  static FailpointRegistry registry;
  return registry;
}

void FailpointRegistry::Enable(const std::string& name,
                               FailpointConfig config) {
  MutexLock lock(mu_);
  Point& p = points_[name];
  p.config = config;
  p.hits = 0;
  p.fired = 0;
  p.rng = config.seed | 1;  // xorshift state must be non-zero
  num_enabled_.store(static_cast<int>(points_.size()),
                     std::memory_order_relaxed);
}

void FailpointRegistry::Disable(const std::string& name) {
  MutexLock lock(mu_);
  points_.erase(name);
  num_enabled_.store(static_cast<int>(points_.size()),
                     std::memory_order_relaxed);
}

void FailpointRegistry::DisableAll() {
  MutexLock lock(mu_);
  points_.clear();
  num_enabled_.store(0, std::memory_order_relaxed);
}

bool FailpointRegistry::ShouldFail(const char* name) {
  if (num_enabled_.load(std::memory_order_relaxed) == 0) return false;
  std::function<void()> pause;
  {
    MutexLock lock(mu_);
    auto it = points_.find(name);
    if (it == points_.end()) return false;
    Point& p = it->second;
    const int64_t hit = p.hits++;
    if (hit < p.config.skip) return false;
    if (p.config.count >= 0 && p.fired >= p.config.count) return false;
    if (p.config.probability < 1.0) {
      // xorshift64* — deterministic for a given seed.
      p.rng ^= p.rng >> 12;
      p.rng ^= p.rng << 25;
      p.rng ^= p.rng >> 27;
      const uint64_t r = p.rng * 0x2545f4914f6cdd1dull;
      const double u =
          static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);
      if (u >= p.config.probability) return false;
    }
    ++p.fired;
    if (!p.config.pause) return true;
    pause = p.config.pause;
  }
  pause();
  return false;
}

int64_t FailpointRegistry::HitCount(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.hits;
}

int64_t FailpointRegistry::FireCount(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.fired;
}

std::vector<std::string> FailpointRegistry::EnabledNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(points_.size());
  for (const auto& [name, point] : points_) out.push_back(name);
  return out;
}

}  // namespace mvopt
