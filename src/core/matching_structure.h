// The matching-structure: the paper's compact representation of all
// matchings at an x-node (Section 4.2, Figure 4).
//
// A MatchingStructure M(v, e) records that document node `e` matches x-node
// `v`, and holds one *submatching slot* per x-tree child of `v`. Each slot
// is a set of references to child structures M(w, e') with (v,e) consistent
// with (w,e'). M(v,e) represents at least one total matching at `v` exactly
// when every slot is non-empty (with all referenced structures themselves
// total) — the engine maintains this invariant through propagation and undo
// (Section 4.3).
//
// Storage: structures and their internal vectors live in the owning
// engine's PoolArena (created via std::allocate_shared, so shared_ptr /
// weak_ptr semantics and destructor-timed accounting are preserved while
// steady-state allocation traffic never reaches the heap). The arena must
// outlive every structure allocated from it.

#ifndef XAOS_CORE_MATCHING_STRUCTURE_H_
#define XAOS_CORE_MATCHING_STRUCTURE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/element_info.h"
#include "core/engine_stats.h"
#include "query/xtree.h"
#include "util/pool_arena.h"

namespace xaos::core {

class MatchingStructure;
using MatchingPtr = std::shared_ptr<MatchingStructure>;

class MatchingStructure {
 public:
  using SlotVector = util::ArenaVector<MatchingPtr>;

  // `stats`, if non-null, receives OnStructureCreated now (with this
  // structure's approximate byte footprint) and OnStructureDestroyed on
  // destruction, so live/peak counts and bytes are maintained on every
  // creation path by construction. `arena` backs the slot/count/backref
  // vectors and must outlive the structure.
  MatchingStructure(query::XNodeId xnode, ElementInfo element, int slot_count,
                    EngineStats* stats, util::PoolArena* arena);
  ~MatchingStructure();

  // Approximate heap footprint accounted for this structure: the object
  // itself, its shared_ptr control block, the slot/count headers and the
  // retained element name/value text. Slot *entries* are shared pointers to
  // structures accounted on their own, so they are charged per-header only
  // at creation (slot growth is not re-accounted — an undercount bounded by
  // the propagation counters).
  uint64_t AccountedBytes() const { return accounted_bytes_; }

  MatchingStructure(const MatchingStructure&) = delete;
  MatchingStructure& operator=(const MatchingStructure&) = delete;

  query::XNodeId xnode() const { return xnode_; }
  const ElementInfo& element() const { return element_; }

  int slot_count() const { return static_cast<int>(slots_.size()); }
  const SlotVector& slot(int i) const { return slots_[static_cast<size_t>(i)]; }
  // A slot counts as non-empty if it stores an entry or has accumulated
  // confirmed entries (boolean submatchings release confirmed entries and
  // keep only the count — paper Section 5.1).
  bool SlotEmpty(int i) const {
    return slots_[static_cast<size_t>(i)].empty() &&
           confirmed_counts_[static_cast<size_t>(i)] == 0;
  }
  // True when every submatching slot is non-empty (a leaf is trivially
  // satisfied).
  bool AllSlotsNonEmpty() const;

  // Inserts `child` into slot `i` of `parent` and records the back
  // reference used by undo. `parent` must be a shared_ptr because the child
  // keeps a weak reference to it. `optimistic` marks links made before the
  // child's own satisfaction is known (backward-axis and sibling pulls);
  // they are preserved when a push-propagation is retracted.
  static void Link(const MatchingPtr& parent, int i, MatchingPtr child,
                   bool optimistic);

  // Removes the entry `child` from slot `i`; returns true if the slot is
  // now empty. No-op (returns false) if the entry is absent.
  bool RemoveFromSlot(int i, const MatchingStructure* child);

  bool closed() const { return closed_; }
  void set_closed() { closed_ = true; }
  bool dead() const { return dead_; }
  void set_dead() { dead_ = true; }
  // True while this structure's satisfaction has been pushed into its
  // parent-matchings. Cleared if the propagation is retracted because a
  // refillable (following-sibling) slot emptied.
  bool propagated() const { return propagated_; }
  void set_propagated(bool value) { propagated_ = value; }

  // --- confirmation (eager output, paper Section 5.1) ---
  // A structure is *confirmed* once it provably represents a total matching
  // regardless of future events: it is closed and every slot holds at least
  // one confirmed entry. Confirmation is monotone — confirmed structures
  // are never undone — which lets the engine report a guaranteed document
  // match before the end of the stream.
  bool confirmed() const { return confirmed_; }
  void set_confirmed() { confirmed_ = true; }
  // Number of confirmed entries in slot `i`.
  int confirmed_count(int i) const {
    return confirmed_counts_[static_cast<size_t>(i)];
  }
  void bump_confirmed(int i) { ++confirmed_counts_[static_cast<size_t>(i)]; }
  // True if every slot holds a confirmed entry.
  bool AllSlotsConfirmed() const;

  // --- anchoring (earliest answering) ---
  // A structure is *anchored* once it is confirmed AND reachable from a
  // confirmed root through a chain of confirmed structures. Anchored
  // structures with an output x-node are provably part of the final result
  // and can be emitted before end-of-document; anchored structures whose
  // slots have drained to confirmed counts can release their storage back
  // to the arena (engine's MaybeReclaim).
  bool anchored() const { return anchored_; }
  void set_anchored() { anchored_ = true; }
  // Set when the engine has emitted this structure's output (if any) and
  // returned its slot/backref storage to the arena. A reclaimed structure
  // is only kept alive by stray shared_ptrs; it must never be re-linked.
  bool reclaimed() const { return reclaimed_; }
  void set_reclaimed() { reclaimed_ = true; }

  // --- output assembly ---
  // Set once this structure's output item is in the result (emitted early
  // or collected by the end-of-document traversal), so the common path
  // deduplicates without hashing element ids.
  bool emitted() const { return emitted_; }
  void set_emitted() { emitted_ = true; }
  // An *output twin* shares its element with another output structure (one
  // element matched to two or more output x-nodes, e.g. //$a/self::$a).
  // Per-structure marks cannot deduplicate twins, so the engine falls back
  // to an element-id set for them.
  bool output_twin() const { return output_twin_; }
  void set_output_twin() { output_twin_ = true; }
  // Mark of the end-of-document marked traversal (paper Section 4.4).
  bool visited() const { return visited_; }
  void set_visited() { visited_ = true; }

  // Parents that currently reference this structure, for undo cascades.
  struct BackRef {
    std::weak_ptr<MatchingStructure> parent;
    int slot;
    bool optimistic;
  };
  util::ArenaVector<BackRef>& backrefs() { return backrefs_; }

  // Swaps the slot and backref vectors with empty ones so their arena
  // blocks are returned immediately (earliest answering's eager reclaim).
  // Confirmed counts are preserved — they carry slot satisfaction after the
  // stored entries are dropped. `detached` receives the former backrefs so
  // the caller can unlink this structure from its parents.
  void ReleaseStorage(util::PoolArena* arena,
                      util::ArenaVector<BackRef>* detached);

 private:
  query::XNodeId xnode_;
  ElementInfo element_;
  util::ArenaVector<SlotVector> slots_;
  util::ArenaVector<int> confirmed_counts_;  // parallel to slots_
  util::ArenaVector<BackRef> backrefs_;
  // One-bit flags: they share the padding ahead of stats_, so a new flag
  // does not grow the object or its accounted bytes (a test pins the
  // size).
  bool closed_ : 1 = false;
  bool dead_ : 1 = false;
  bool confirmed_ : 1 = false;
  bool propagated_ : 1 = false;
  bool anchored_ : 1 = false;
  bool reclaimed_ : 1 = false;
  bool emitted_ : 1 = false;
  bool output_twin_ : 1 = false;
  bool visited_ : 1 = false;
  EngineStats* stats_;
  uint64_t accounted_bytes_ = 0;
};

}  // namespace xaos::core

#endif  // XAOS_CORE_MATCHING_STRUCTURE_H_
