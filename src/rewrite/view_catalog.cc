#include "rewrite/view_catalog.h"

#include <cassert>

#include "common/cow.h"
#include "common/failpoint.h"

namespace mvopt {

ViewCatalog::ViewCatalog(const Catalog* catalog)
    : catalog_(catalog),
      edit_(NewEditToken()),
      names_(std::make_shared<NameIndex>()) {}

ViewCatalog::ViewCatalog(const ViewCatalog& other)
    : catalog_(other.catalog_),
      edit_(NewEditToken()),
      chunks_(other.chunks_),
      num_views_(other.num_views_),
      names_(other.names_) {
  other.edit_.store(NewEditToken(), std::memory_order_relaxed);
}

ViewDefinition* ViewCatalog::AddView(const std::string& name,
                                     SpjgQuery definition,
                                     std::string* error) {
  if (MVOPT_FAILPOINT_HIT("view_catalog.add_view")) {
    if (error != nullptr) *error = "failpoint 'view_catalog.add_view'";
    return nullptr;
  }
  auto invalid = ViewDefinition::Validate(definition);
  if (invalid.has_value()) {
    if (error != nullptr) *error = *invalid;
    return nullptr;
  }
  const ViewId id = static_cast<ViewId>(num_views_);
  // Build everything fallible before the commit point: a throw from the
  // definition, the description (or the failpoint standing in for one)
  // or the chunk allocation leaves the catalog as it was. Taking a
  // private copy of a shared tail chunk is invisible (the copy is
  // content-identical). The duplicate-name check is part of the same
  // transactional commit — it is decided by the name-index write itself,
  // after every fallible step.
  Entry entry;
  entry.definition =
      std::make_shared<ViewDefinition>(id, name, std::move(definition));
  entry.description = std::make_shared<const ViewDescription>(
      DescribeView(*catalog_, *entry.definition));
  MVOPT_FAILPOINT("view_catalog.describe");
  std::shared_ptr<Chunk> fresh;
  Chunk* chunk = nullptr;
  if ((id & (kChunkSize - 1)) == 0) {
    fresh = std::make_shared<Chunk>();
    fresh->owner = edit_;
    chunk = fresh.get();
    chunks_.reserve(chunks_.size() + 1);
  } else {
    chunk = MutableCow(&chunks_.back(), edit_);
  }
  chunk->entries.reserve(kChunkSize);
  {
    MutexLock lock(names_->mu);
    auto [it, inserted] = names_->ids.emplace(name, id);  // commit point
    if (!inserted) {
      if (Holds(it->second, name)) {
        if (error != nullptr) {
          *error = "view '" + name + "' is already registered";
        }
        return nullptr;  // nothing visible mutated: no rollback needed
      }
      it->second = id;  // a leftover of a rolled-back registration
    }
  }
  // Capacity reserved and the moves are noexcept: no-throw from here.
  chunk->entries.push_back(std::move(entry));
  if (fresh != nullptr) chunks_.push_back(std::move(fresh));
  ++num_views_;
  return chunk->entries.back().definition.get();
}

void ViewCatalog::RemoveLastView(ViewId id) {
  assert(num_views_ > 0 && id == num_views_ - 1 &&
         "only the most recent registration can be rolled back");
  // The AddView being rolled back made the tail chunk this generation's
  // own, so the pops below write no shared state.
  Chunk* chunk = chunks_.back().get();
  assert(chunk->owner == edit_);
  {
    MutexLock lock(names_->mu);
    auto it = names_->ids.find(chunk->entries.back().definition->name());
    if (it != names_->ids.end() && it->second == id) names_->ids.erase(it);
  }
  chunk->entries.pop_back();
  if (chunk->entries.empty()) chunks_.pop_back();
  --num_views_;
}

const ViewDefinition* ViewCatalog::FindView(const std::string& name) const {
  ViewId id;
  {
    MutexLock lock(names_->mu);
    auto it = names_->ids.find(name);
    if (it == names_->ids.end()) return nullptr;
    id = it->second;
  }
  return Holds(id, name) ? entry(id).definition.get() : nullptr;
}

void ViewCatalog::SetProgram(ViewId id,
                             std::shared_ptr<const MatchProgram> program) {
  Chunk* chunk = MutableCow(&chunks_[id >> kChunkBits], edit_);
  chunk->entries[id & (kChunkSize - 1)].program = std::move(program);
}

}  // namespace mvopt
