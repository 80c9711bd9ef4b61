// Registry of materialized views: validated definitions plus their
// precomputed descriptions (§4). Exhaustive (no-index) candidate
// enumeration lives here; the filter tree in src/index builds on the same
// descriptions.

#ifndef MVOPT_REWRITE_VIEW_CATALOG_H_
#define MVOPT_REWRITE_VIEW_CATALOG_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "query/view_def.h"
#include "rewrite/view_description.h"

namespace mvopt {

struct MatchProgram;

class ViewCatalog {
 public:
  explicit ViewCatalog(const Catalog* catalog);

  /// Next-generation copy (DESIGN.md §15): shares every entry chunk and
  /// the name index with `other`, copying only the chunk pointers. Both
  /// catalogs then copy a chunk before their first write to it (see
  /// common/cow.h). The ViewDefinition objects are shared for good:
  /// mutable_view() state (materialization results) stays visible across
  /// generations, and references handed out by view() stay valid after
  /// the generation that produced them is reclaimed, because every later
  /// generation holds the same definitions (published catalogs grow
  /// append-only; RemoveLastView only ever runs on unpublished copies
  /// being rolled back).
  ViewCatalog(const ViewCatalog& other);
  ViewCatalog& operator=(const ViewCatalog&) = delete;

  /// Validates and registers a view. Returns the definition, or nullptr
  /// with `*error` set when the view is not indexable or the name is
  /// already registered (re-registering a name is a hard error).
  /// Strongly exception-safe: everything fallible (validation,
  /// description, allocation, failpoints) happens before the first
  /// visible mutation, so a throw leaves the catalog untouched.
  ViewDefinition* AddView(const std::string& name, SpjgQuery definition,
                          std::string* error = nullptr);

  /// Rolls back the most recent successful AddView (`id` must be the id
  /// it returned). Used by MatchingService when a later step of a
  /// registration — compiling or indexing the view — fails.
  void RemoveLastView(ViewId id);

  /// The registered view with `name`, or nullptr. Safe concurrently with
  /// AddView on another generation of the same catalog.
  const ViewDefinition* FindView(const std::string& name) const;

  int num_views() const { return num_views_; }
  const ViewDefinition& view(ViewId id) const { return *entry(id).definition; }
  ViewDefinition& mutable_view(ViewId id) { return *entry(id).definition; }
  const ViewDescription& description(ViewId id) const {
    return *entry(id).description;
  }
  /// The description as the shared object the filter tree's leaves hold.
  const std::shared_ptr<const ViewDescription>& shared_description(
      ViewId id) const {
    return entry(id).description;
  }

  /// Compiled match program of `id`, or nullptr (generic tier). Programs
  /// are immutable and shared across snapshot generations like the
  /// definitions: compiled once under the writer lock at registration or
  /// recovery (MatchingService), never on the probe path.
  const std::shared_ptr<const MatchProgram>& program(ViewId id) const {
    return entry(id).program;
  }
  /// Installs (or clears) the compiled program of `id`. Only called on
  /// unpublished generations, like every other write; copies the one
  /// chunk holding `id` when it is shared.
  void SetProgram(ViewId id, std::shared_ptr<const MatchProgram> program);

  const Catalog& catalog() const { return *catalog_; }

 private:
  static constexpr int kChunkBits = 6;
  static constexpr int kChunkSize = 1 << kChunkBits;

  /// One registered view. Immutable once its generation is published;
  /// shared_ptr members so a chunk copy is a handful of reference bumps.
  struct Entry {
    std::shared_ptr<ViewDefinition> definition;
    std::shared_ptr<const ViewDescription> description;
    /// nullptr = generic tier.
    std::shared_ptr<const MatchProgram> program;
  };
  /// kChunkSize consecutive entries; `owner` is the edit token of the
  /// generation that may write it in place.
  struct Chunk {
    uint64_t owner = 0;
    std::vector<Entry> entries;
  };
  /// Name -> id for every generation of one catalog, written only by
  /// registrations (serialized by the owner, MatchingService's writer
  /// mutex). Entries left by rolled-back or discarded registrations stay
  /// until overwritten, so a lookup counts only if the id is below the
  /// asking generation's num_views() and that view carries the name.
  struct NameIndex {
    Mutex mu;
    std::unordered_map<std::string, ViewId> ids MVOPT_GUARDED_BY(mu);
  };

  const Entry& entry(ViewId id) const {
    return chunks_[id >> kChunkBits]->entries[id & (kChunkSize - 1)];
  }
  /// True if `id` names `name` in this generation.
  bool Holds(ViewId id, const std::string& name) const {
    return id < num_views_ && entry(id).definition->name() == name;
  }

  const Catalog* catalog_;
  /// Edit token (common/cow.h). The copy constructor re-tokens its
  /// source too — an atomic, so a copy may be taken from any thread.
  mutable std::atomic<uint64_t> edit_;
  std::vector<std::shared_ptr<Chunk>> chunks_;
  int num_views_ = 0;
  std::shared_ptr<NameIndex> names_;
};

}  // namespace mvopt

#endif  // MVOPT_REWRITE_VIEW_CATALOG_H_
