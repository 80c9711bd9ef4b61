// Copy-on-write ownership for structure-sharing snapshots (DESIGN.md
// §15). A snapshot generation holds its parts through shared_ptrs and
// carries an *edit token*; every shared part records the token of the
// generation that created it. A generation writes a part in place only
// when it owns it (the tokens match) and otherwise swaps in a private
// copy first, so copying a generation costs a few pointer copies and
// each write copies only what it touches.
//
// Copying a generation re-tokens both the copy and its source, after
// which neither owns anything and each copies a part before its first
// write to it: the two generations can never see each other's later
// writes.

#ifndef MVOPT_COMMON_COW_H_
#define MVOPT_COMMON_COW_H_

#include <atomic>
#include <cstdint>
#include <memory>

namespace mvopt {

/// A process-unique, never-zero edit token.
inline uint64_t NewEditToken() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// The writable version of `*slot` for the generation holding `token`:
/// `*slot` itself when that generation owns it, otherwise a copy stamped
/// with `token` that replaces `*slot`. The copy is content-identical, so
/// swapping it in changes nothing a reader sees. If the copy throws,
/// `*slot` is untouched. T needs a copy constructor and a `uint64_t
/// owner` member.
template <typename T>
T* MutableCow(std::shared_ptr<T>* slot, uint64_t token) {
  if ((*slot)->owner != token) {
    auto copy = std::make_shared<T>(**slot);
    copy->owner = token;
    *slot = std::move(copy);
  }
  return slot->get();
}

}  // namespace mvopt

#endif  // MVOPT_COMMON_COW_H_
