// Crash-recovery driver for the durable view catalog, built for the
// kill-at-every-failpoint CI loop (tools/ci/run_crash_recovery.sh).
//
// Modes:
//   recovery_driver seed <dir> <nviews>
//       Creates a fresh store in <dir> and registers <nviews> workload
//       views through the WAL. Exits 0.
//   recovery_driver crash <dir> <site> <iter>
//       Recovers the catalog from <dir>, arms the given failpoint site,
//       attempts a checkpoint and one more registration, records the
//       acknowledged outcome in <dir>/committed.txt / uncommitted.txt,
//       then dies with _exit(42) — no destructors, no flushes, exactly
//       the state a kill at that site leaves on disk.
//   recovery_driver verify <dir>
//       Recovers the catalog and asserts: nothing quarantined, every
//       name in committed.txt present, every name in uncommitted.txt
//       absent, the filter tree audits green, and probes pass the
//       rewrite soundness checker. Exits 0 on success, 1 on any
//       violation (with a diagnostic on stderr).
//
// Sharded-catalog modes (shard/sharded_catalog_service.h) mirror the
// three above over a fixed 4-shard layout at <dir>/shard_<i>:
//   recovery_driver seed-sharded <dir> <nviews>
//   recovery_driver crash-sharded <dir> <site> <iter>
//       Recovers all shards in parallel, arms <site>, then walks the
//       whole shard lifecycle while armed — a second recovery pass, a
//       fleet checkpoint, a routed registration, and a forced-quarantine
//       scrub — so every catalog_shard.* (and catalog_store.*) site in
//       the matrix is reachable. Dies with _exit(42).
//   recovery_driver verify-sharded <dir>
//       Parallel recovery must come back all-healthy (crash artifacts
//       are recoverable by design); the ShardRecoveryReport JSON must
//       validate structurally; manifests must hold; every shard's
//       filter tree must audit green; 50 workload queries must produce
//       plans byte-identical to an unsharded control catalog built from
//       the same views; and the enforce-mode checker must reject
//       nothing.
//
// Utility modes:
//   recovery_driver rot <file> <offset>
//       Flips (XORs with 0xFF) one byte at <offset> (negative counts
//       from the end) — the bit-rot injector for corruption tests.
//   recovery_driver list-failpoints
//       Prints every compiled-in failpoint site, one per line; CI
//       scripts validate their kill matrices against it so a typo'd
//       site name fails loudly instead of testing nothing.
//
// The manifest files are the crash-consistency oracle: the crash run
// appends a view's name to committed.txt only after the registration
// was acknowledged (or failed with durable()==true), and fsyncs the
// manifest before dying, so a later verify run knows exactly which
// registrations the "application" was promised.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/failpoint.h"
#include "common/query_context.h"
#include "common/thread_pool.h"
#include "index/matching_service.h"
#include "optimizer/optimizer.h"
#include "rewrite/catalog_store.h"
#include "shard/sharded_catalog_service.h"
#include "tpch/schema.h"
#include "tpch/workload.h"
#include "verify/invariant_auditor.h"

namespace {

using namespace mvopt;

constexpr uint64_t kWorkloadSeed = 31;
constexpr int kNumShards = 4;
constexpr int kRecoveryWorkers = 3;

/// Appends one line and fsyncs, so the record survives the _exit(42).
void AppendManifestLine(const std::string& path, const std::string& line) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::perror(path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "%s\n", line.c_str());
  std::fflush(f);
  ::fsync(::fileno(f));
  std::fclose(f);
}

std::vector<std::string> ReadManifest(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

int RunSeed(const std::string& dir, int nviews) {
  Catalog catalog;
  [[maybe_unused]] tpch::Schema schema = tpch::BuildSchema(&catalog, 0.5);
  tpch::WorkloadGenerator gen(&catalog, kWorkloadSeed);
  MatchingService service(&catalog);
  CatalogStore store(dir);
  service.AttachStore(&store);
  for (int i = 0; i < nviews; ++i) {
    std::string name = "seed" + std::to_string(i);
    std::string error;
    if (service.AddView(name, gen.GenerateView(), &error) == nullptr) {
      std::cerr << "seed: registration of " << name << " failed: " << error
                << "\n";
      return 1;
    }
    AppendManifestLine(dir + "/committed.txt", name);
  }
  std::cout << "seeded " << nviews << " views into " << dir << "\n";
  return 0;
}

int RunCrash(const std::string& dir, const std::string& site, int iter) {
  Catalog catalog;
  [[maybe_unused]] tpch::Schema schema = tpch::BuildSchema(&catalog, 0.5);
  MatchingService service(&catalog);
  CatalogStore store(dir);
  RecoveryReport report = service.RecoverFrom(&store);
  if (!report.quarantined.empty()) {
    std::cerr << "crash: pre-existing quarantine: " << report.ToJson() << "\n";
    return 1;
  }

  // A per-iteration definition stream so armed views differ run to run.
  tpch::WorkloadGenerator gen(&catalog, kWorkloadSeed + 1000 + iter);
  FailpointRegistry::Instance().Enable(site);

  // Snapshot-protocol sites fire inside the checkpoint, WAL sites inside
  // the append; run both so every site in the matrix is reachable.
  try {
    service.Checkpoint();
  } catch (const StoreIoError&) {
    // Either the new snapshot installed atomically or the old state is
    // intact — both recover; the checkpoint moves no views.
  }
  std::string name = "armed_" + site + "_" + std::to_string(iter);
  std::string error;
  ViewDefinition* v = service.AddView(name, gen.GenerateView(), &error);
  if (v != nullptr) {
    // Acknowledged (or durable ambiguous commit): must survive.
    AppendManifestLine(dir + "/committed.txt", name);
  } else {
    AppendManifestLine(dir + "/uncommitted.txt", name);
  }
  // Die hard: no Close(), no destructors — the files keep exactly the
  // bytes that reached them before and during the injected fault.
  ::_exit(42);
}

int RunVerify(const std::string& dir) {
  Catalog catalog;
  [[maybe_unused]] tpch::Schema schema = tpch::BuildSchema(&catalog, 0.5);
  MatchingService::Options options;
  options.verify_mode = VerifyMode::kEnforce;
  MatchingService service(&catalog, options);
  CatalogStore store(dir);
  RecoveryReport report = service.RecoverFrom(&store);

  int failures = 0;
  if (!report.quarantined.empty()) {
    std::cerr << "verify: quarantined entries after crash recovery: "
              << report.ToJson() << "\n";
    ++failures;
  }
  std::unordered_set<std::string> committed;
  for (const std::string& name : ReadManifest(dir + "/committed.txt")) {
    committed.insert(name);
    if (service.views().FindView(name) == nullptr) {
      std::cerr << "verify: committed view lost: " << name << "\n";
      ++failures;
    }
  }
  for (const std::string& name : ReadManifest(dir + "/uncommitted.txt")) {
    if (committed.count(name) > 0) continue;  // later retry committed it
    if (service.views().FindView(name) != nullptr) {
      std::cerr << "verify: uncommitted view resurrected: " << name << "\n";
      ++failures;
    }
  }

  InvariantAuditor auditor;
  AuditReport audit = auditor.AuditFilterTree(service.filter_tree());
  if (!audit.ok()) {
    std::cerr << "verify: invariant audit failed:\n" << audit.Summary();
    ++failures;
  }

  // Probe the rebuilt catalog in enforce mode: every substitute the
  // recovered filter tree and matcher produce must pass the soundness
  // checker.
  tpch::WorkloadGenerator query_gen(&catalog, kWorkloadSeed + 77777);
  for (int i = 0; i < 50; ++i) {
    QueryContext ctx;
    (void)service.FindSubstitutes(query_gen.GenerateQuery(), ctx);
  }
  VerifyStats vs = service.verify_stats();
  if (vs.rejected > 0) {
    std::cerr << "verify: rewrite checker rejected " << vs.rejected
              << " substitute(s) after recovery:\n";
    for (const std::string& trace : vs.rejection_traces) {
      std::cerr << "  " << trace << "\n";
    }
    ++failures;
  }

  if (failures > 0) return 1;
  std::cout << "verified " << service.views().num_views()
            << " views (checked=" << vs.checked << ", proven=" << vs.proven
            << ", wal_bytes_truncated=" << report.wal_bytes_truncated << ")\n";
  return 0;
}

ShardedCatalogOptions ShardedOptions(const std::string& dir) {
  ShardedCatalogOptions options;
  options.num_shards = kNumShards;
  options.dir = dir;
  return options;
}

int RunSeedSharded(const std::string& dir, int nviews) {
  ::mkdir(dir.c_str(), 0755);  // shard stores create their own subdirs
  Catalog catalog;
  [[maybe_unused]] tpch::Schema schema = tpch::BuildSchema(&catalog, 0.5);
  tpch::WorkloadGenerator gen(&catalog, kWorkloadSeed);
  ShardedCatalogService service(&catalog, ShardedOptions(dir));
  for (int i = 0; i < nviews; ++i) {
    std::string name = "seed" + std::to_string(i);
    std::string error;
    if (service.AddView(name, gen.GenerateView(), &error) == kInvalidViewId) {
      std::cerr << "seed-sharded: registration of " << name
                << " failed: " << error << "\n";
      return 1;
    }
    AppendManifestLine(dir + "/committed.txt", name);
  }
  std::cout << "seeded " << nviews << " views across " << kNumShards
            << " shards in " << dir << "\n";
  return 0;
}

int RunCrashSharded(const std::string& dir, const std::string& site,
                    int iter) {
  Catalog catalog;
  [[maybe_unused]] tpch::Schema schema = tpch::BuildSchema(&catalog, 0.5);
  ShardedCatalogService service(&catalog, ShardedOptions(dir));
  ThreadPool pool(kRecoveryWorkers);
  ShardRecoveryReport clean = service.RecoverAll(&pool);
  if (!clean.all_healthy()) {
    std::cerr << "crash-sharded: pre-existing quarantine: " << clean.ToJson()
              << "\n";
    return 1;
  }

  tpch::WorkloadGenerator gen(&catalog, kWorkloadSeed + 1000 + iter);
  FailpointRegistry::Instance().Enable(site);

  // Walk the whole shard lifecycle while armed, so every site class is
  // reachable whichever one the matrix picked: recovery-task sites fire
  // in the second recovery pass, checkpoint/snapshot sites in the fleet
  // checkpoint, routing and WAL sites in the registration, and the
  // scrub sites in the forced-quarantine repair.
  (void)service.RecoverAll(&pool);
  (void)service.CheckpointAll();

  std::string name = "armed_" + site + "_" + std::to_string(iter);
  std::string error;
  const ViewId id = service.AddView(name, gen.GenerateView(), &error);
  if (id != kInvalidViewId) {
    AppendManifestLine(dir + "/committed.txt", name);
  } else {
    AppendManifestLine(dir + "/uncommitted.txt", name);
  }

  service.ForceQuarantine(1 % kNumShards, ShardQuarantineCause::kForced,
                          "crash-driver scrub arming");
  (void)service.ScrubTick();

  // Die hard: no Close(), no destructors — the shard stores keep exactly
  // the bytes that reached them before and during the injected fault.
  ::_exit(42);
}

int RunVerifySharded(const std::string& dir) {
  Catalog catalog;
  [[maybe_unused]] tpch::Schema schema = tpch::BuildSchema(&catalog, 0.5);
  ShardedCatalogOptions options = ShardedOptions(dir);
  options.service.verify_mode = VerifyMode::kEnforce;
  ShardedCatalogService service(&catalog, options);
  ThreadPool pool(kRecoveryWorkers);
  ShardRecoveryReport report = service.RecoverAll(&pool);

  int failures = 0;
  const std::string json = report.ToJson();
  std::string jerr;
  if (!ValidateShardRecoveryReportJson(json, &jerr)) {
    std::cerr << "verify-sharded: report JSON invalid: " << jerr << "\n"
              << json << "\n";
    ++failures;
  }
  if (!report.all_healthy()) {
    // A crash leaves only recoverable artifacts (torn tails, overlap);
    // any quarantine here means fault isolation ate durable state.
    std::cerr << "verify-sharded: shards quarantined after crash recovery: "
              << json << "\n";
    ++failures;
  }

  auto view_present = [&service](const std::string& name) {
    for (int s = 0; s < service.num_shards(); ++s) {
      if (service.shard_service(s).views().FindView(name) != nullptr) {
        return true;
      }
    }
    return false;
  };
  std::unordered_set<std::string> committed;
  for (const std::string& name : ReadManifest(dir + "/committed.txt")) {
    committed.insert(name);
    if (!view_present(name)) {
      std::cerr << "verify-sharded: committed view lost: " << name << "\n";
      ++failures;
    }
  }
  for (const std::string& name : ReadManifest(dir + "/uncommitted.txt")) {
    if (committed.count(name) > 0) continue;  // later retry committed it
    if (view_present(name)) {
      std::cerr << "verify-sharded: uncommitted view resurrected: " << name
                << "\n";
      ++failures;
    }
  }

  InvariantAuditor auditor;
  for (int s = 0; s < service.num_shards(); ++s) {
    AuditReport audit =
        auditor.AuditFilterTree(service.shard_service(s).filter_tree());
    if (!audit.ok()) {
      std::cerr << "verify-sharded: shard " << s << " audit failed:\n"
                << audit.Summary();
      ++failures;
    }
  }

  // Byte-identity: an unsharded control catalog holding the same views
  // (in shard-major order, matching the sharded merge order) must
  // produce the same plan text for every workload query.
  MatchingService control(&catalog, options.service);
  for (int s = 0; s < service.num_shards(); ++s) {
    const ViewCatalog& views = service.shard_service(s).views();
    for (int i = 0; i < views.num_views(); ++i) {
      const ViewDefinition& view = views.view(i);
      std::string error;
      if (control.AddView(view.name(), view.query(), &error) == nullptr) {
        std::cerr << "verify-sharded: control registration of "
                  << view.name() << " failed: " << error << "\n";
        ++failures;
      }
    }
  }
  Optimizer sharded_opt(&catalog, &service);
  Optimizer control_opt(&catalog, &control);
  tpch::WorkloadGenerator query_gen(&catalog, kWorkloadSeed + 77777);
  int plan_mismatches = 0;
  for (int i = 0; i < 50; ++i) {
    const SpjgQuery query = query_gen.GenerateQuery();
    QueryContext sharded_ctx;
    QueryContext control_ctx;
    const std::string sharded_plan =
        sharded_opt.Optimize(query, sharded_ctx).plan->ToString(catalog);
    const std::string control_plan =
        control_opt.Optimize(query, control_ctx).plan->ToString(catalog);
    if (sharded_plan != control_plan && ++plan_mismatches <= 3) {
      std::cerr << "verify-sharded: plan mismatch on query " << i
                << "\n--- sharded ---\n"
                << sharded_plan << "--- control ---\n"
                << control_plan;
    }
  }
  if (plan_mismatches > 0) {
    std::cerr << "verify-sharded: " << plan_mismatches
              << " of 50 plans differ from the unsharded control\n";
    ++failures;
  }

  VerifyStats vs = service.verify_stats();
  if (vs.rejected > 0) {
    std::cerr << "verify-sharded: rewrite checker rejected " << vs.rejected
              << " substitute(s) after recovery:\n";
    for (const std::string& trace : vs.rejection_traces) {
      std::cerr << "  " << trace << "\n";
    }
    ++failures;
  }

  if (failures > 0) return 1;
  int total_views = 0;
  for (int s = 0; s < service.num_shards(); ++s) {
    total_views += service.shard_service(s).views().num_views();
  }
  std::cout << "verified " << total_views << " views across " << kNumShards
            << " shards (checked=" << vs.checked << ", proven=" << vs.proven
            << ", plans=50 byte-identical)\n";
  return 0;
}

int RunRot(const std::string& path, long long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) {
    std::perror(path.c_str());
    return 1;
  }
  std::fseek(f, 0, SEEK_END);
  const long long size = std::ftell(f);
  if (offset < 0) offset += size;
  if (offset < 0 || offset >= size) {
    std::cerr << "rot: offset " << offset << " out of range for " << path
              << " (" << size << " bytes)\n";
    std::fclose(f);
    return 1;
  }
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  const int byte = std::fgetc(f);
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  std::fputc(byte ^ 0xFF, f);
  std::fflush(f);
  ::fsync(::fileno(f));
  std::fclose(f);
  std::cout << "flipped byte at offset " << offset << " in " << path << "\n";
  return 0;
}

int RunListFailpoints() {
  for (const char* site : kFailpointSites) {
    std::cout << site << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 4 && std::strcmp(argv[1], "seed") == 0) {
    return RunSeed(argv[2], std::atoi(argv[3]));
  }
  if (argc >= 5 && std::strcmp(argv[1], "crash") == 0) {
    return RunCrash(argv[2], argv[3], std::atoi(argv[4]));
  }
  if (argc >= 3 && std::strcmp(argv[1], "verify") == 0) {
    return RunVerify(argv[2]);
  }
  if (argc >= 4 && std::strcmp(argv[1], "seed-sharded") == 0) {
    return RunSeedSharded(argv[2], std::atoi(argv[3]));
  }
  if (argc >= 5 && std::strcmp(argv[1], "crash-sharded") == 0) {
    return RunCrashSharded(argv[2], argv[3], std::atoi(argv[4]));
  }
  if (argc >= 3 && std::strcmp(argv[1], "verify-sharded") == 0) {
    return RunVerifySharded(argv[2]);
  }
  if (argc >= 4 && std::strcmp(argv[1], "rot") == 0) {
    return RunRot(argv[2], std::atoll(argv[3]));
  }
  if (argc >= 2 && std::strcmp(argv[1], "list-failpoints") == 0) {
    return RunListFailpoints();
  }
  std::cerr << "usage:\n"
            << "  " << argv[0] << " seed <dir> <nviews>\n"
            << "  " << argv[0] << " crash <dir> <failpoint-site> <iter>\n"
            << "  " << argv[0] << " verify <dir>\n"
            << "  " << argv[0] << " seed-sharded <dir> <nviews>\n"
            << "  " << argv[0]
            << " crash-sharded <dir> <failpoint-site> <iter>\n"
            << "  " << argv[0] << " verify-sharded <dir>\n"
            << "  " << argv[0] << " rot <file> <offset>\n"
            << "  " << argv[0] << " list-failpoints\n";
  return 2;
}
