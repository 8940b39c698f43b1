#include "core/matching_structure.h"

namespace xaos::core {

std::string ElementInfo::ToString() const {
  std::string out;
  switch (kind) {
    case query::DocNodeKind::kRoot:
      out = "Root";
      break;
    case query::DocNodeKind::kElement:
      out = name;
      break;
    case query::DocNodeKind::kAttribute:
      out = "@";
      out += name;
      break;
    case query::DocNodeKind::kText:
      out = "#text";
      break;
  }
  out += "(" + std::to_string(ordinal) + ")@" + std::to_string(level);
  return out;
}

MatchingId MatchingStore::Create(query::XNodeId xnode,
                                 const NodePosition& node, int slot_count,
                                 std::string_view name,
                                 std::string_view value) {
  MatchingId id;
  if (!free_records_.empty()) {
    id = free_records_.back();
    free_records_.pop_back();
  } else {
    XAOS_CHECK(records_.size() < kNoMatching)
        << "matching store exceeds 2^32 records";
    id = static_cast<MatchingId>(records_.size());
    records_.emplace_back();
  }
  record_bytes_allocated_ += sizeof(MatchingRecord);
  MatchingRecord& r = records_[id];
  const uint32_t generation = r.generation;
  r = MatchingRecord{};
  r.generation = generation;
  r.node = node;
  r.xnode = xnode;
  r.refs = 1;
  XAOS_CHECK(slot_count >= 0 &&
             static_cast<size_t>(slot_count) <= query::kMaxXNodeChildren)
      << "x-node with " << slot_count << " children";
  r.slot_count = static_cast<uint16_t>(slot_count);
  if (slot_count > 0) {
    PoolList block = headers_.Allocate(static_cast<uint32_t>(slot_count));
    r.slots = block.offset;
    SlotHeader* headers = headers_.data(block);
    for (int i = 0; i < slot_count; ++i) headers[i] = SlotHeader{};
  }
  if (!name.empty() || !value.empty()) {
    XAOS_CHECK(name.size() + value.size() <= UINT32_MAX / 2)
        << "matching structure text exceeds 2 GiB";
    r.name_size = static_cast<uint32_t>(name.size());
    r.value_size = static_cast<uint32_t>(value.size());
    PoolList block = text_.Allocate(r.name_size + r.value_size);
    r.text_offset = block.offset;
    char* bytes = text_.data(block);
    if (!name.empty()) std::memcpy(bytes, name.data(), name.size());
    if (!value.empty()) {
      std::memcpy(bytes + name.size(), value.data(), value.size());
    }
  }
  stats_->OnStructureCreated(AccountedBytes(r));
  return id;
}

void MatchingStore::Free(MatchingId id) {
  MatchingRecord& r = records_[id];
  stats_->OnStructureDestroyed(AccountedBytes(r));
  // Releasing children can free them in turn; that recursion is bounded by
  // the x-tree's height (a slot holds structures of a child x-node), and it
  // never grows records_, so `r` stays valid.
  if (r.slot_count > 0) {
    ReleaseSlots(id);
    PoolList block{r.slots, 0,
                   BlockPool<SlotHeader>::BlockCapacity(r.slot_count)};
    headers_.Free(&block);
  }
  if (r.name_size + r.value_size > 0) {
    PoolList block{r.text_offset, 0,
                   BlockPool<char>::BlockCapacity(r.name_size + r.value_size)};
    text_.Free(&block);
  }
  backrefs_.Free(&r.backrefs);
  ++r.generation;
  free_records_.push_back(id);
}

bool MatchingStore::AllSlotsNonEmpty(MatchingId id) const {
  for (int i = 0; i < records_[id].slot_count; ++i) {
    if (SlotEmpty(id, i)) return false;
  }
  return true;
}

bool MatchingStore::AllSlotsConfirmed(MatchingId id) const {
  for (int i = 0; i < records_[id].slot_count; ++i) {
    if (header(id, i).confirmed == 0) return false;
  }
  return true;
}

void MatchingStore::Link(MatchingId parent, int i, MatchingId child,
                         bool optimistic) {
  MatchingBackRef ref;
  ref.parent = handle(parent);
  ref.slot = static_cast<uint32_t>(i);
  ref.optimistic = optimistic ? 1 : 0;
  backrefs_.Append(&records_[child].backrefs, ref);
  SlotHeader& h = header(parent, i);
  if (records_[child].confirmed) ++h.confirmed;
  entries_.Append(&h.entries, child);
  Retain(child);
}

void MatchingStore::RemoveFromSlot(MatchingId parent, int i,
                                   MatchingId child) {
  PoolList& entries = header(parent, i).entries;
  MatchingId* data = entries_.data(entries);
  for (uint32_t k = 0; k < entries.size; ++k) {
    if (data[k] != child) continue;
    // Order is kept: emission and tuple order follow slot order.
    std::memmove(data + k, data + k + 1,
                 (entries.size - k - 1) * sizeof(MatchingId));
    --entries.size;
    Release(child);
    return;
  }
}

void MatchingStore::ReleaseSlots(MatchingId id) {
  for (int i = 0; i < records_[id].slot_count; ++i) {
    // Take the list first: releasing an entry can free a record, which
    // frees blocks but never reads this header.
    PoolList entries = header(id, i).entries;
    header(id, i).entries = PoolList{};
    for (uint32_t k = 0; k < entries.size; ++k) {
      Release(entries_.data(entries)[k]);
    }
    entries_.Free(&entries);
  }
}

void MatchingStore::Reset() {
  records_.clear();
  free_records_.clear();
  headers_.Clear();
  entries_.Clear();
  backrefs_.Clear();
  text_.Clear();
  stats_->structures_live = 0;
  stats_->structure_memory.live_bytes = 0;
}

size_t MatchingStore::capacity_bytes() const {
  return records_.capacity() * sizeof(MatchingRecord) +
         free_records_.capacity() * sizeof(MatchingId) +
         headers_.capacity_bytes() + entries_.capacity_bytes() +
         backrefs_.capacity_bytes() + text_.capacity_bytes();
}

}  // namespace xaos::core
