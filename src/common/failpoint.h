// Deterministic fault-injection framework. A failpoint is a named site
// compiled into the library (see kFailpointSites); tests arm sites at
// runtime with a deterministic trigger (skip N hits, then fire M times)
// or a seeded-probabilistic one (fire with probability p, driven by a
// private xorshift stream so runs replay exactly).
//
// Sites are compiled in only when MVOPT_FAILPOINTS is defined (the
// default CMake configuration defines it; release/production builds
// configure with -DMVOPT_FAILPOINTS=OFF and every site folds to
// nothing). The registry itself is always compiled so tests link in
// either configuration.
//
// Two site macros:
//   MVOPT_FAILPOINT(name)      throws FailpointTriggered when armed —
//                              for sites whose natural failure is an
//                              exception (allocation, internal error).
//   MVOPT_FAILPOINT_HIT(name)  evaluates to true when armed — for sites
//                              whose natural failure is an error return.
//
// The registry is thread-safe; the disarmed fast path is a single
// relaxed atomic load.

#ifndef MVOPT_COMMON_FAILPOINT_H_
#define MVOPT_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace mvopt {

class FailpointTriggered : public std::runtime_error {
 public:
  explicit FailpointTriggered(const std::string& name)
      : std::runtime_error("failpoint '" + name + "' triggered"),
        name_(name) {}
  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

struct FailpointConfig {
  /// Hits to let pass before the site arms.
  int64_t skip = 0;
  /// Firings after arming; -1 = fire on every armed hit.
  int64_t count = 1;
  /// Chance an armed hit actually fires (1.0 = deterministic).
  double probability = 1.0;
  /// Seed of the per-site random stream (probabilistic triggers replay
  /// exactly for a given seed).
  uint64_t seed = 0x9e3779b97f4a7c15ull;
};

class FailpointRegistry {
 public:
  static FailpointRegistry& Instance();

  void Enable(const std::string& name, FailpointConfig config = {})
      MVOPT_EXCLUDES(mu_);
  void Disable(const std::string& name) MVOPT_EXCLUDES(mu_);
  void DisableAll() MVOPT_EXCLUDES(mu_);

  /// Site-side check: records a hit on an enabled site and decides
  /// whether it fires. Disabled/unknown names never fire.
  bool ShouldFail(const char* name) MVOPT_EXCLUDES(mu_);

  /// Hits / firings observed since Enable (0 for disabled names).
  int64_t HitCount(const std::string& name) const MVOPT_EXCLUDES(mu_);
  int64_t FireCount(const std::string& name) const MVOPT_EXCLUDES(mu_);
  std::vector<std::string> EnabledNames() const MVOPT_EXCLUDES(mu_);

 private:
  FailpointRegistry() = default;

  struct Point {
    FailpointConfig config;
    int64_t hits = 0;
    int64_t fired = 0;
    uint64_t rng = 0;
  };

  mutable Mutex mu_;
  std::unordered_map<std::string, Point> points_ MVOPT_GUARDED_BY(mu_);
  /// Disarmed fast path: number of enabled sites, mirrored from
  /// points_.size() on every mutation so ShouldFail can bail without
  /// the lock.
  std::atomic<int> num_enabled_{0};
};

/// Every failpoint site compiled into the library, for suites that
/// exercise each one. Keep in sync with the MVOPT_FAILPOINT* call sites.
inline constexpr const char* kFailpointSites[] = {
    "view_catalog.add_view",              // error-return, pre-mutation
    "view_catalog.describe",              // throws before the commit point
    "filter_tree.add_view",               // throws before any tree mutation
    "filter_tree.insert_leaf",            // throws before the insert's write
    "matching_service.find_substitutes",  // throws at probe entry
    "matcher.match",                      // throws per candidate
    "match_program.compile",              // throws inside AddView/recovery
    "rewrite_checker.check",              // forces a checker rejection
    "plan_exec.execute",                  // throws at execution entry
    // Durable catalog sites (see rewrite/catalog_store.h): one between
    // every step of the WAL-append and snapshot protocols, so crash
    // tests can kill the process at each point and recover.
    "catalog_store.wal_append",           // before anything is written
    "catalog_store.wal_write",            // torn write: half frame, throw
    "catalog_store.wal_fsync",            // frame written, fsync skipped
    "catalog_store.commit",               // after fsync (durable error)
    "catalog_store.snapshot_write",       // partial snapshot tmp file
    "catalog_store.snapshot_rename",      // tmp durable, rename skipped
    "catalog_store.wal_truncate",         // snapshot installed, WAL kept
    // Serving front-end sites (see serve/serving_service.h): one at
    // every point a query could be lost or double-completed, so the
    // chaos-soak suite can prove exactly-one-terminal-outcome delivery.
    "serving.admit",                      // forces a shed-overload verdict
    "serving.enqueue",                    // throws between admit and enqueue
    "serving.dequeue",                    // throws after a worker pops
    "serving.execute",                    // worker crash mid-query
    "serving.result_publish",             // primary publish path fails
    "serving.drain",                      // throws inside Drain
    // Sharded-catalog sites (see shard/sharded_catalog_service.h): one
    // per step of the shard lifecycle — parallel recovery, routed
    // registration, fleet checkpoint, and the two-phase scrub/readmit
    // protocol — so the crash matrix can kill the process inside each.
    "catalog_shard.recover",              // per-shard recovery task entry
    "catalog_shard.add_route",            // after routing, before delegation
    "catalog_shard.checkpoint",           // per-shard checkpoint entry
    "catalog_shard.scrub_swap",           // rebuilt shard, before the swap
    "catalog_shard.scrub_checkpoint",     // readmitted, repair checkpoint
};

}  // namespace mvopt

#ifdef MVOPT_FAILPOINTS
#define MVOPT_FAILPOINT_HIT(name) \
  (::mvopt::FailpointRegistry::Instance().ShouldFail(name))
#define MVOPT_FAILPOINT(name)                   \
  do {                                          \
    if (MVOPT_FAILPOINT_HIT(name)) {            \
      throw ::mvopt::FailpointTriggered(name);  \
    }                                           \
  } while (0)
#else
#define MVOPT_FAILPOINT_HIT(name) (false)
#define MVOPT_FAILPOINT(name) \
  do {                        \
  } while (0)
#endif

#endif  // MVOPT_COMMON_FAILPOINT_H_
