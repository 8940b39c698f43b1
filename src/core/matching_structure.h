// The matching-structure: the paper's compact representation of all
// matchings at an x-node (Section 4.2, Figure 4).
//
// A matching structure M(v, e) records that document node `e` matches
// x-node `v`, and holds one *submatching slot* per x-tree child of `v`. Each
// slot is a set of references to child structures M(w, e') with (v,e)
// consistent with (w,e'). M(v,e) represents at least one total matching at
// `v` exactly when every slot is non-empty (with all referenced structures
// themselves total) — the engine maintains this invariant through
// propagation and undo (Section 4.3).
//
// Storage: an engine keeps its structures as fixed-size MatchingRecords in
// one MatchingStore, addressed by 32-bit index. Slot headers, slot entries,
// back references and the few name/value bytes an output needs live in four
// block pools of the same store; a freed record returns its blocks. Nothing
// inside a record owns heap memory, so a whole document's records are
// discarded in bulk (Reset) without visiting them, and every vector keeps
// its capacity for the next document.

#ifndef XAOS_CORE_MATCHING_STRUCTURE_H_
#define XAOS_CORE_MATCHING_STRUCTURE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/element_info.h"
#include "core/engine_stats.h"
#include "query/xtree.h"
#include "util/check.h"

namespace xaos::core {

// Index of a record in its MatchingStore.
using MatchingId = uint32_t;
inline constexpr MatchingId kNoMatching = UINT32_MAX;

// A reference that does not keep its record alive: the record's index plus
// the generation it had when the handle was taken. Freeing a record bumps
// its generation, so a handle to a freed (and possibly recycled) record
// reads as expired.
struct MatchingHandle {
  MatchingId index = kNoMatching;
  uint32_t generation = 0;
};

// Document position of a matched node: ElementInfo without name and value.
struct NodePosition {
  ElementId id = 0;
  ElementId parent_id = 0;
  int32_t level = 0;
  uint32_t ordinal = 0;
  query::DocNodeKind kind = query::DocNodeKind::kElement;
};

// A parent that currently references a structure, for undo cascades.
struct MatchingBackRef {
  MatchingHandle parent;
  // Slot of `parent` holding the structure.
  uint32_t slot : 31;
  // Linked before the child's own satisfaction was known (backward-axis
  // and sibling pulls); kept when a push-propagation is retracted.
  uint32_t optimistic : 1;
};

// A list in a BlockPool: `size` entries at `offset`, in a block of
// `capacity` entries (a power of two; 0 for the empty list).
struct PoolList {
  uint32_t offset = 0;
  uint32_t size = 0;
  uint32_t capacity = 0;
};

// Blocks of T carved out of one vector, recycled through per-size-class
// free lists threaded through the free blocks themselves. Offsets, not
// pointers, name blocks, so the vector may grow; a pointer from data() is
// valid only until the next Allocate/Append.
template <typename T>
class BlockPool {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  BlockPool() { free_head_.fill(kNoBlock); }

  // Capacity of the block Allocate(n) hands out: a power of two, and at
  // least 4 bytes so a free block can hold its free-list link.
  static constexpr uint32_t BlockCapacity(uint32_t n) {
    const uint32_t min = (4 + sizeof(T) - 1) / sizeof(T);
    return std::bit_ceil(n < min ? min : n);
  }

  T* data(const PoolList& list) { return items_.data() + list.offset; }
  const T* data(const PoolList& list) const {
    return items_.data() + list.offset;
  }
  std::span<const T> view(const PoolList& list) const {
    return {data(list), list.size};
  }

  // A list with room for `n` >= 1 entries and size 0.
  PoolList Allocate(uint32_t n) {
    const uint32_t capacity = BlockCapacity(n);
    const int size_class = std::countr_zero(capacity);
    bytes_allocated_ += capacity * sizeof(T);
    uint32_t offset = free_head_[static_cast<size_t>(size_class)];
    if (offset != kNoBlock) {
      std::memcpy(&free_head_[static_cast<size_t>(size_class)],
                  &items_[offset], sizeof(uint32_t));
    } else {
      XAOS_CHECK(items_.size() + capacity < kNoBlock)
          << "matching store block pool exceeds 2^32 entries";
      offset = static_cast<uint32_t>(items_.size());
      items_.resize(items_.size() + capacity);
    }
    return PoolList{offset, 0, capacity};
  }

  void Append(PoolList* list, const T& value) {
    if (list->size == list->capacity) Grow(list);
    items_[list->offset + list->size++] = value;
  }

  // Returns the list's block to its free list and empties the list.
  void Free(PoolList* list) {
    if (list->capacity != 0) {
      int size_class = std::countr_zero(list->capacity);
      std::memcpy(static_cast<void*>(&items_[list->offset]),
                  &free_head_[static_cast<size_t>(size_class)],
                  sizeof(uint32_t));
      free_head_[static_cast<size_t>(size_class)] = list->offset;
    }
    *list = PoolList{};
  }

  // Forgets every block at once; the vector keeps its capacity.
  void Clear() {
    items_.clear();
    free_head_.fill(kNoBlock);
  }

  size_t capacity_bytes() const { return items_.capacity() * sizeof(T); }
  // Cumulative bytes of the blocks handed out (recycled ones every time).
  uint64_t bytes_allocated() const { return bytes_allocated_; }

 private:
  static constexpr uint32_t kNoBlock = UINT32_MAX;

  void Grow(PoolList* list) {
    PoolList grown = Allocate(list->capacity == 0 ? 1 : list->capacity * 2);
    // Allocate may have moved items_; copy by offset.
    if (list->size != 0) {
      std::memcpy(static_cast<void*>(&items_[grown.offset]),
                  &items_[list->offset], list->size * sizeof(T));
    }
    grown.size = list->size;
    Free(list);
    *list = grown;
  }

  std::vector<T> items_;
  std::array<uint32_t, 32> free_head_;
  uint64_t bytes_allocated_ = 0;
};

// One matching structure. Fixed-size and trivially destructible: its slots,
// back references and text live in the store's pools.
struct MatchingRecord {
  NodePosition node;
  query::XNodeId xnode = 0;
  // Bumped when the record is freed (see MatchingHandle).
  uint32_t generation = 0;
  // Strong references: the node's frame while it is open, parent slots,
  // the parent frame's closed-sibling lists, the finished document's Root
  // and the engine's pins during cascades. The record is freed at zero.
  uint32_t refs = 0;
  // Offset of a block holding the name bytes then the value bytes in the
  // store's text pool; only output x-nodes whose name or value the x-node
  // test does not fix keep any.
  uint32_t text_offset = 0;
  uint32_t name_size = 0;
  uint32_t value_size = 0;
  // Offset of the slot_count SlotHeaders in the store's header pool.
  uint32_t slots = 0;
  PoolList backrefs;
  uint16_t slot_count = 0;

  bool closed : 1 = false;
  bool dead : 1 = false;
  // Provably represents a total matching regardless of future events:
  // every slot holds a confirmed entry (paper Section 5.1). Monotone.
  bool confirmed : 1 = false;
  // Its satisfaction is pushed into its parent-matchings; cleared if a
  // refillable (following-sibling) slot empties and the push is retracted.
  bool propagated : 1 = false;
  // Confirmed and reachable from the confirmed Root through confirmed
  // structures: provably in the final result (earliest answering).
  bool anchored : 1 = false;
  // Slot and backref storage returned to the pools; never re-linked.
  bool reclaimed : 1 = false;
  // Its output item is in the result (emitted early or by BuildResult).
  bool emitted : 1 = false;
  // Shares its element with another output structure (one element matched
  // to two or more output x-nodes, e.g. //$a/self::$a); such structures
  // deduplicate through an element-id set instead of their marks.
  bool output_twin : 1 = false;
  // Mark of the end-of-document marked traversal (paper Section 4.4).
  bool visited : 1 = false;
};
// 64 bytes: one cache line. A new field must fit the padding after
// slot_count or retire one of the 32-bit fields; the per-structure bytes
// charged to EngineStats::structure_memory grow with this size.
static_assert(sizeof(MatchingRecord) <= 64);

// Per-slot state: the stored entries plus the number of confirmed entries
// (boolean submatchings release confirmed entries and keep only the count
// — paper Section 5.1).
struct SlotHeader {
  PoolList entries;
  uint32_t confirmed = 0;
};

// The records of one engine. Single-threaded, like the engine that owns
// it; counts are plain integers.
class MatchingStore {
 public:
  // `stats` receives OnStructureCreated/OnStructureDestroyed for every
  // record and must outlive the store.
  explicit MatchingStore(EngineStats* stats) : stats_(stats) {}

  MatchingStore(const MatchingStore&) = delete;
  MatchingStore& operator=(const MatchingStore&) = delete;

  // Creates a record holding one reference (its creator's). `name` and
  // `value` are copied into the text pool; pass empty views to keep none.
  // `slot_count` is at most query::kMaxXNodeChildren.
  MatchingId Create(query::XNodeId xnode, const NodePosition& node,
                    int slot_count, std::string_view name,
                    std::string_view value);

  MatchingRecord& operator[](MatchingId id) { return records_[id]; }
  const MatchingRecord& operator[](MatchingId id) const {
    return records_[id];
  }

  MatchingHandle handle(MatchingId id) const {
    return {id, records_[id].generation};
  }
  // False once the record `h` was taken from has been freed.
  bool Alive(MatchingHandle h) const {
    return h.index < records_.size() &&
           records_[h.index].generation == h.generation;
  }

  void Retain(MatchingId id) { ++records_[id].refs; }
  // Drops a reference; at zero the record is freed, releasing the
  // references its slots hold.
  void Release(MatchingId id) {
    if (--records_[id].refs == 0) Free(id);
  }

  // Bytes charged to EngineStats::structure_memory for a record: the
  // record, its slot headers and its name/value bytes. Slot entries and back
  // references are not charged (they name structures accounted on their
  // own), nor is slot growth after creation.
  static uint64_t AccountedBytes(const MatchingRecord& r) {
    return sizeof(MatchingRecord) +
           uint64_t{r.slot_count} * sizeof(SlotHeader) + r.name_size +
           r.value_size;
  }

  std::string_view name(MatchingId id) const {
    const MatchingRecord& r = records_[id];
    return {text_.data(PoolList{r.text_offset, 0, 0}), r.name_size};
  }
  std::string_view value(MatchingId id) const {
    const MatchingRecord& r = records_[id];
    return {text_.data(PoolList{r.text_offset, 0, 0}) + r.name_size,
            r.value_size};
  }

  // Stored entries of slot `i`; valid until the next Link.
  std::span<const MatchingId> slot(MatchingId id, int i) const {
    return entries_.view(header(id, i).entries);
  }
  // A slot counts as non-empty if it stores an entry or has accumulated
  // confirmed entries.
  bool SlotEmpty(MatchingId id, int i) const {
    const SlotHeader& h = header(id, i);
    return h.entries.size == 0 && h.confirmed == 0;
  }
  // True when every slot is non-empty (a leaf is trivially satisfied).
  bool AllSlotsNonEmpty(MatchingId id) const;
  // True if every slot holds a confirmed entry.
  bool AllSlotsConfirmed(MatchingId id) const;
  void BumpConfirmed(MatchingId id, int i) { ++header(id, i).confirmed; }

  // Inserts `child` into slot `i` of `parent` (taking a reference) and
  // records the back reference used by undo. A child confirmed before the
  // link counts immediately; later confirmations bump the count through
  // the engine's cascade, which walks the back references.
  void Link(MatchingId parent, int i, MatchingId child, bool optimistic);

  // Removes the entry `child` from slot `i` and drops its reference, which
  // may free `child`. No-op if the entry is absent.
  void RemoveFromSlot(MatchingId parent, int i, MatchingId child);

  // Back references: the caller takes the list (leaving the record's
  // empty), walks it through backref_data, and either gives it back with
  // PutBackrefs or frees it with FreeList.
  PoolList TakeBackrefs(MatchingId id) {
    PoolList list = records_[id].backrefs;
    records_[id].backrefs = PoolList{};
    return list;
  }
  void PutBackrefs(MatchingId id, PoolList list) {
    records_[id].backrefs = list;
  }
  std::span<const MatchingBackRef> backrefs(MatchingId id) const {
    return backrefs_.view(records_[id].backrefs);
  }
  MatchingBackRef* backref_data(const PoolList& list) {
    return backrefs_.data(list);
  }
  void FreeList(PoolList* list) { backrefs_.Free(list); }

  // Drops every stored slot entry and returns the entry blocks (earliest
  // answering's eager reclaim). Confirmed counts are kept: they carry slot
  // satisfaction after the entries are gone.
  void ReleaseSlots(MatchingId id);

  // Discards every record at once, without visiting them: the live count
  // and live bytes in the stats drop to zero (peaks are kept), and all
  // vectors keep their capacity. Every id and handle becomes invalid.
  void Reset();

  // Heap bytes reserved by the store's vectors.
  size_t capacity_bytes() const;
  // Cumulative bytes handed out for records and pool blocks.
  uint64_t bytes_allocated() const {
    return record_bytes_allocated_ + headers_.bytes_allocated() +
           entries_.bytes_allocated() + backrefs_.bytes_allocated() +
           text_.bytes_allocated();
  }

 private:
  SlotHeader& header(MatchingId id, int i) {
    return headers_.data(PoolList{records_[id].slots, 0, 0})[i];
  }
  const SlotHeader& header(MatchingId id, int i) const {
    return headers_.data(PoolList{records_[id].slots, 0, 0})[i];
  }
  void Free(MatchingId id);

  EngineStats* stats_;
  std::vector<MatchingRecord> records_;
  std::vector<MatchingId> free_records_;
  BlockPool<SlotHeader> headers_;
  BlockPool<MatchingId> entries_;
  BlockPool<MatchingBackRef> backrefs_;
  BlockPool<char> text_;
  uint64_t record_bytes_allocated_ = 0;
};

}  // namespace xaos::core

#endif  // XAOS_CORE_MATCHING_STRUCTURE_H_
