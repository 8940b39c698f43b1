#include "core/xaos_engine.h"

#include <algorithm>
#include <functional>
#include <set>
#include <utility>

#include "obs/timer.h"

namespace xaos::core {

using query::DocNodeKind;
using query::kRootXNode;
using query::NodeTestSpec;
using query::XNodeId;
using xpath::Axis;

XaosEngine::XaosEngine(const query::XTree* tree, EngineOptions options)
    : tree_(tree), xdag_(*tree), options_(options) {
  XAOS_CHECK(tree_->node(kRootXNode).test.kind == NodeTestSpec::Kind::kRoot)
      << "x-tree node 0 must test for the virtual root";

  int n = tree_->size();
  slot_in_parent_.assign(static_cast<size_t>(n), -1);
  is_output_.assign(static_cast<size_t>(n), false);
  // Name tests are interned once here (the x-tree compiler usually already
  // did — name_symbol — so this is a no-op hash at most once per x-node);
  // at event time candidate lookup is a flat index by the event's Symbol.
  auto add_named = [this](std::vector<std::vector<XNodeId>>* table,
                          const NodeTestSpec& spec, XNodeId v) {
    util::Symbol s = spec.name_symbol != util::kInvalidSymbol
                         ? spec.name_symbol
                         : util::SymbolTable::Global().Intern(spec.name);
    if (static_cast<size_t>(s) >= table->size()) {
      table->resize(static_cast<size_t>(s) + 1);
    }
    (*table)[static_cast<size_t>(s)].push_back(v);
    mentioned_symbols_.push_back(s);
  };
  for (XNodeId v = 0; v < n; ++v) {
    const query::XNode& node = tree_->node(v);
    is_output_[static_cast<size_t>(v)] = node.is_output;
    for (size_t i = 0; i < node.children.size(); ++i) {
      slot_in_parent_[static_cast<size_t>(node.children[i])] =
          static_cast<int>(i);
    }
    switch (node.test.kind) {
      case NodeTestSpec::Kind::kRoot:
        root_candidates_.push_back(v);
        break;
      case NodeTestSpec::Kind::kElement:
        add_named(&element_candidates_, node.test, v);
        break;
      case NodeTestSpec::Kind::kAnyElement:
        any_element_candidates_.push_back(v);
        break;
      case NodeTestSpec::Kind::kAttribute:
        add_named(&attribute_candidates_, node.test, v);
        wants_attributes_ = true;
        break;
      case NodeTestSpec::Kind::kAnyAttribute:
        any_attribute_candidates_.push_back(v);
        wants_attributes_ = true;
        break;
      case NodeTestSpec::Kind::kText:
        text_candidates_.push_back(v);
        wants_text_ = true;
        break;
    }
  }
  std::sort(mentioned_symbols_.begin(), mentioned_symbols_.end());
  mentioned_symbols_.erase(
      std::unique(mentioned_symbols_.begin(), mentioned_symbols_.end()),
      mentioned_symbols_.end());
  // Pre-sort every candidate list by topological rank so that self-edges
  // are resolved in order within a single event.
  auto by_rank = [this](XNodeId a, XNodeId b) {
    return xdag_.TopologicalRank(a) < xdag_.TopologicalRank(b);
  };
  std::sort(root_candidates_.begin(), root_candidates_.end(), by_rank);
  std::sort(any_element_candidates_.begin(), any_element_candidates_.end(),
            by_rank);
  std::sort(any_attribute_candidates_.begin(), any_attribute_candidates_.end(),
            by_rank);
  std::sort(text_candidates_.begin(), text_candidates_.end(), by_rank);
  for (auto& list : element_candidates_) {
    std::sort(list.begin(), list.end(), by_rank);
  }
  for (auto& list : attribute_candidates_) {
    std::sort(list.begin(), list.end(), by_rank);
  }
  open_by_xnode_.resize(static_cast<size_t>(n));

  // Boolean submatchings (Section 5.1): an x-node whose subtree contains no
  // output node never needs its matchings enumerated — confirmed ones are
  // counted and released.
  counted_subtree_.assign(static_cast<size_t>(n), false);
  if (options_.enable_boolean_submatchings) {
    // Post-order: a subtree is output-free if the node itself is not an
    // output and all child subtrees are output-free. Children have larger
    // ids than their parents (builder order), so a reverse scan works.
    for (XNodeId v = n - 1; v >= 0; --v) {
      bool output_free = !tree_->node(v).is_output;
      for (XNodeId w : tree_->node(v).children) {
        output_free = output_free && counted_subtree_[static_cast<size_t>(w)];
      }
      counted_subtree_[static_cast<size_t>(v)] = output_free;
    }
    counted_subtree_[kRootXNode] = false;
  }

  // Sibling support tables: a closed child structure must stay reachable
  // from its parent frame when its x-node (a) supports following-sibling
  // relevance, (b) is a preceding-sibling pull source, or (c) is the target
  // of deferred following-sibling propagation.
  sibling_listed_.assign(static_cast<size_t>(n), false);
  for (XNodeId v = 0; v < n; ++v) {
    for (const query::XDagEdge& edge : xdag_.outgoing(v)) {
      if (edge.axis == Axis::kFollowingSibling) {
        sibling_listed_[static_cast<size_t>(v)] = true;  // (a)
        wants_siblings_ = true;
      }
    }
    if (v != kRootXNode) {
      Axis incoming = tree_->node(v).incoming_axis;
      if (incoming == Axis::kPrecedingSibling) {
        sibling_listed_[static_cast<size_t>(v)] = true;  // (b)
        wants_siblings_ = true;
      }
      if (incoming == Axis::kFollowingSibling) {
        sibling_listed_[static_cast<size_t>(tree_->node(v).parent)] =
            true;  // (c)
        wants_siblings_ = true;
      }
    }
  }

  // Earliest answering: anchored structures can be emitted at any event.
  // Eager reclamation additionally requires a single output x-node (tuple
  // enumeration over several outputs walks the full structure graph) and
  // excludes x-nodes involved in sibling axes: sibling-listed structures
  // stay reachable from parent frames, and a structure with a
  // following-sibling child slot receives late entries through links that
  // reclamation would sever.
  earliest_ = options_.enable_earliest_emission;
  int output_count = 0;
  for (XNodeId v = 0; v < n; ++v) {
    if (is_output_[static_cast<size_t>(v)]) ++output_count;
  }
  reclaim_enabled_ = earliest_ && output_count == 1;
  reclaim_blocked_.assign(static_cast<size_t>(n), false);
  for (XNodeId v = 0; v < n; ++v) {
    if (sibling_listed_[static_cast<size_t>(v)]) {
      reclaim_blocked_[static_cast<size_t>(v)] = true;
    }
    for (XNodeId w : tree_->node(v).children) {
      if (tree_->node(w).incoming_axis == Axis::kFollowingSibling) {
        reclaim_blocked_[static_cast<size_t>(v)] = true;
      }
    }
  }
}

namespace {

// Holds a reference to a record for one scope: what a cascade takes on a
// parent it reached through a back reference, so that retracting links
// cannot free the parent while the cascade still works on it.
class Pin {
 public:
  Pin(MatchingStore* store, MatchingId id) : store_(store), id_(id) {
    store_->Retain(id_);
  }
  ~Pin() { store_->Release(id_); }

  Pin(const Pin&) = delete;
  Pin& operator=(const Pin&) = delete;

 private:
  MatchingStore* store_;
  MatchingId id_;
};

}  // namespace

void XaosEngine::ResetDocumentState() {
  // Frames, open lists and the Root hold only indices: dropping them and
  // resetting the store discards the previous document's structures in
  // bulk, without visiting them. Every vector keeps its capacity.
  for (Frame& frame : stack_) {
    frame.xnodes.clear();
    frame.structures.clear();
    for (auto& list : frame.closed_by_xnode) list.clear();
    frame.capture_index = -1;
  }
  depth_ = 0;
  for (std::vector<MatchingId>& open : open_by_xnode_) open.clear();
  store_.Reset();
  active_captures_.clear();
  captured_.clear();
  root_structure_ = kNoMatching;
  live_root_ = kNoMatching;
  early_items_.clear();
  emitted_ids_.clear();
  early_items_sorted_ = true;
  unemitted_outputs_ = 0;
  done_ = false;
  early_match_ = false;
  confirm_ns_ = 0;
  inert_ = false;
  error_ = Status::Ok();
  stats_ = EngineStats{};
  // Cleared, not reassigned: the item vectors keep their capacity across
  // documents, bounded (like the frame stack) by the largest result seen.
  result_.matched = false;
  result_.items.clear();
  // From here on the delta is this document's allocation traffic.
  store_bytes_baseline_ = store_.bytes_allocated();
}

void XaosEngine::FailWith(Status status) {
  error_ = std::move(status);
  for (Frame& frame : stack_) {
    frame.xnodes.clear();
    frame.structures.clear();
    for (auto& list : frame.closed_by_xnode) list.clear();
    frame.capture_index = -1;
  }
  depth_ = 0;
  for (std::vector<MatchingId>& open : open_by_xnode_) open.clear();
  // Drops the live count and live bytes to zero; the peaks stay.
  store_.Reset();
  active_captures_.clear();
  root_structure_ = kNoMatching;
  live_root_ = kNoMatching;
  early_items_.clear();
  emitted_ids_.clear();
  early_items_sorted_ = true;
  unemitted_outputs_ = 0;
}

MatchingId XaosEngine::FindMatch(const Frame& frame, XNodeId xnode) {
  for (size_t i = 0; i < frame.xnodes.size(); ++i) {
    if (frame.xnodes[i] == xnode) return frame.structures[i];
  }
  return kNoMatching;
}

void XaosEngine::FillInfo(MatchingId m, ElementInfo* info) const {
  const MatchingRecord& r = store_[m];
  info->id = r.node.id;
  info->parent_id = r.node.parent_id;
  info->ordinal = r.node.ordinal;
  info->level = r.node.level;
  info->kind = r.node.kind;
  const NodeTestSpec& spec = tree_->node(r.xnode).test;
  if (spec.kind == NodeTestSpec::Kind::kElement ||
      spec.kind == NodeTestSpec::Kind::kAttribute) {
    info->name.assign(spec.name);
  } else {
    info->name.assign(store_.name(m));
  }
  if (r.value_size != 0) info->value.assign(store_.value(m));
}

void XaosEngine::CollectCandidates(DocNodeKind kind, util::Symbol symbol,
                                   std::vector<XNodeId>* out) const {
  out->clear();
  auto append = [out](const std::vector<XNodeId>& list) {
    out->insert(out->end(), list.begin(), list.end());
  };
  // A symbol outside the table (or never interned at all) cannot equal any
  // interned query name — no candidates by name.
  auto named = [](const std::vector<std::vector<XNodeId>>& table,
                  util::Symbol s) -> const std::vector<XNodeId>* {
    if (s < 0 || static_cast<size_t>(s) >= table.size()) return nullptr;
    const std::vector<XNodeId>& list = table[static_cast<size_t>(s)];
    return list.empty() ? nullptr : &list;
  };
  switch (kind) {
    case DocNodeKind::kRoot:
      append(root_candidates_);
      break;
    case DocNodeKind::kElement: {
      if (const auto* list = named(element_candidates_, symbol)) append(*list);
      append(any_element_candidates_);
      break;
    }
    case DocNodeKind::kAttribute: {
      if (const auto* list = named(attribute_candidates_, symbol)) {
        append(*list);
      }
      append(any_attribute_candidates_);
      break;
    }
    case DocNodeKind::kText:
      append(text_candidates_);
      break;
  }
  // The per-kind lists are pre-sorted by topological rank; a merge is only
  // needed when two lists actually contributed.
  if (out->size() > 1) {
    std::sort(out->begin(), out->end(), [this](XNodeId a, XNodeId b) {
      return xdag_.TopologicalRank(a) < xdag_.TopologicalRank(b);
    });
  }
}

bool XaosEngine::IsRelevant(XNodeId v, const Frame& frame) const {
  for (const query::XDagEdge& edge : xdag_.incoming(v)) {
    XNodeId u = edge.from;
    switch (edge.axis) {
      case Axis::kChild:
      case Axis::kAttribute:
        // The would-be parent of the new node is the current stack top —
        // unless dispatch filtering skipped the real parent (sparse stack),
        // in which case the top is some higher ancestor. A skipped element
        // matched nothing, so the constraint is unsupported either way; the
        // parent-id guard makes that explicit.
        if (depth_ == 0 ||
            stack_[depth_ - 1].node.id != frame.node.parent_id ||
            FindMatch(stack_[depth_ - 1], u) == kNoMatching) {
          return false;
        }
        break;
      case Axis::kDescendant:
        // Every open element is a proper ancestor of the new node.
        if (open_by_xnode_[static_cast<size_t>(u)].empty()) return false;
        break;
      case Axis::kDescendantOrSelf:
        if (open_by_xnode_[static_cast<size_t>(u)].empty() &&
            FindMatch(frame, u) == kNoMatching) {
          return false;
        }
        break;
      case Axis::kSelf:
        // Candidates are processed in topological order, so a match of `u`
        // on this very node has already been decided.
        if (FindMatch(frame, u) == kNoMatching) return false;
        break;
      case Axis::kFollowingSibling: {
        // A preceding sibling (a closed child of the would-be parent) must
        // match `u`. Sibling-axis engines always see every element (dense
        // stack), but guard the parent identity anyway.
        if (depth_ == 0) return false;
        const Frame& parent = stack_[depth_ - 1];
        if (parent.node.id != frame.node.parent_id) return false;
        bool found = false;
        for (MatchingId p : parent.closed_by_xnode[static_cast<size_t>(u)]) {
          if (!store_[p].dead) {
            found = true;
            break;
          }
        }
        if (!found) return false;
        break;
      }
      case Axis::kParent:
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf:
      case Axis::kPrecedingSibling:
      case Axis::kFollowing:
      case Axis::kPreceding:
        // Backward axes never appear in an x-dag; following/preceding are
        // desugared by the x-tree builder.
        XAOS_CHECK(false) << "unexpected axis in x-dag";
    }
  }
  return true;
}

void XaosEngine::ProcessStart(std::string_view name, util::Symbol symbol,
                              std::string_view value,
                              const NodePosition& position) {
  // Acquire (or reuse) the frame at the current depth; it is only made
  // visible (depth_ incremented) after matching, so relevance checks still
  // see the previous top as the parent.
  if (depth_ == stack_.size()) stack_.emplace_back();
  Frame& frame = stack_[depth_];
  frame.xnodes.clear();
  frame.structures.clear();
  frame.capture_index = -1;
  if (wants_siblings_) {
    if (frame.closed_by_xnode.size() != open_by_xnode_.size()) {
      frame.closed_by_xnode.assign(open_by_xnode_.size(), {});
    } else {
      // The previous element at this depth kept its closed children
      // reachable until now.
      for (auto& list : frame.closed_by_xnode) {
        for (MatchingId child : list) store_.Release(child);
        list.clear();
      }
    }
  }

  // Identity comes from the document cursor, not from this engine's view of
  // the stream: ids/levels/ordinals are uniform across a fleet of engines
  // even when dispatch filtering gives each a different event subset, and
  // remain monotone in document order.
  frame.node = position;
  const DocNodeKind kind = position.kind;
  if (kind == DocNodeKind::kElement) ++stats_.elements_total;

  CollectCandidates(kind, symbol, &candidate_scratch_);
  int outputs = 0;  // output x-nodes this node matched
  for (XNodeId v : candidate_scratch_) {
    const NodeTestSpec& spec = tree_->node(v).test;
    if (!query::MatchesSpec(spec, kind, name, value)) continue;
    if (options_.enable_relevance_filter && !IsRelevant(v, frame)) continue;
    // Only an output's descriptor is ever rebuilt, and a named test fixes
    // its name, so the store keeps name bytes only for wildcard outputs and
    // value bytes only for attribute and text() outputs — the storage
    // frugality the paper's Table 3 measures.
    std::string_view kept_name;
    std::string_view kept_value;
    const bool output = is_output_[static_cast<size_t>(v)];
    if (output) {
      ++outputs;
      ++unemitted_outputs_;
      if (spec.kind == NodeTestSpec::Kind::kAnyElement ||
          spec.kind == NodeTestSpec::Kind::kAnyAttribute) {
        kept_name = name;
      }
      if (kind == DocNodeKind::kAttribute || kind == DocNodeKind::kText) {
        kept_value = value;
      }
    }
    // Creation/live/peak/byte accounting happens inside the store via
    // EngineStats::OnStructureCreated, so no creation path can miss it.
    MatchingId structure = store_.Create(
        v, frame.node, static_cast<int>(tree_->node(v).children.size()),
        kept_name, kept_value);
    frame.xnodes.push_back(v);
    frame.structures.push_back(structure);
  }
  if (outputs > 1) {
    // Output twins: this element answers several output x-nodes, so its
    // structures deduplicate through emitted_ids_ instead of their marks.
    for (size_t i = 0; i < frame.xnodes.size(); ++i) {
      if (is_output_[static_cast<size_t>(frame.xnodes[i])]) {
        store_[frame.structures[i]].output_twin = true;
      }
    }
  }
  if (kind == DocNodeKind::kElement && frame.xnodes.empty()) {
    ++stats_.elements_discarded;
  }

  ++depth_;
  for (size_t i = 0; i < frame.xnodes.size(); ++i) {
    open_by_xnode_[static_cast<size_t>(frame.xnodes[i])].push_back(
        frame.structures[i]);
  }

  if (options_.max_live_structures != 0 &&
      stats_.structures_live > options_.max_live_structures) {
    FailWith(ResourceExhaustedError(
        "live matching structures exceeded the configured limit of " +
        std::to_string(options_.max_live_structures)));
  }
}

// Inserts `child` into `parent`'s slot and, if the child is already
// confirmed, lets the confirmation propagate into the parent immediately.
void XaosEngine::LinkChild(MatchingId parent, int slot, MatchingId child,
                           bool optimistic) {
  const MatchingRecord& c = store_[child];
  if (c.confirmed && (IsCountedXNode(c.xnode) || c.reclaimed)) {
    // Boolean submatching: a confirmed, output-free sub-matching only needs
    // to be counted. No storage, and no back reference either — confirmed
    // structures are never retracted. A reclaimed child is the same shape:
    // its output is already emitted and its storage is gone, so only its
    // (permanent) confirmation matters to the parent.
    store_.BumpConfirmed(parent, slot);
    TryConfirm(parent);
    return;
  }
  const bool was_confirmed = c.confirmed;
  store_.Link(parent, slot, child, optimistic);
  if (was_confirmed) TryConfirm(parent);
  // A confirmed child linked under an already-anchored parent is itself
  // reachable from the confirmed Root through confirmed structures.
  if (earliest_ && store_[parent].anchored && store_[child].confirmed &&
      !store_[child].anchored) {
    Anchor(child);
  }
}

bool XaosEngine::SlotRefillable(MatchingId parent, int slot) const {
  const MatchingRecord& p = store_[parent];
  XNodeId w = tree_->node(p.xnode).children[static_cast<size_t>(slot)];
  if (tree_->node(w).incoming_axis != Axis::kFollowingSibling) return false;
  // Following-sibling entries can still arrive while the element's parent
  // is open (later siblings have not been seen yet).
  int level = p.node.level;
  if (level == 0) return false;
  size_t parent_depth = static_cast<size_t>(level - 1);
  return parent_depth < depth_ &&
         stack_[parent_depth].node.id == p.node.parent_id;
}

void XaosEngine::CascadeRemoval(MatchingId m, bool retract_only) {
  // The list is taken from the record and compacted in place: a cascade
  // only removes links, so nothing appends to `m`'s back references
  // meanwhile, and the pool cannot move under the loop.
  PoolList refs = store_.TakeBackrefs(m);
  uint32_t kept = 0;
  for (uint32_t k = 0; k < refs.size; ++k) {
    const MatchingBackRef ref = store_.backref_data(refs)[k];
    if (retract_only && ref.optimistic) {
      // Optimistic links (backward/sibling pulls) are kept: the consumer
      // will learn of this structure's fate through a later undo or keep
      // the reference if it completes again.
      store_.backref_data(refs)[kept++] = ref;
      continue;
    }
    if (!store_.Alive(ref.parent)) continue;
    const MatchingId parent = ref.parent.index;
    if (store_[parent].dead) continue;
    Pin pin(&store_, parent);
    const int slot = static_cast<int>(ref.slot);
    store_.RemoveFromSlot(parent, slot, m);
    // An anchored parent's slots are satisfied by confirmed counts forever;
    // losing a stored (unconfirmed) extra entry cannot undo it, but it may
    // drain the slot and make the parent reclaimable.
    if (earliest_ && store_[parent].anchored) {
      MaybeReclaim(parent);
      continue;
    }
    // An open parent may still receive entries for this slot. A closed
    // parent's emptiness is final (Table 2, step 23) — unless the slot is a
    // refillable following-sibling slot, in which case the parent merely
    // returns to the pending state. Emptiness accounts for released
    // (counted) confirmed entries, which keep the slot satisfied forever.
    if (!store_.SlotEmpty(parent, slot) || !store_[parent].closed) continue;
    if (SlotRefillable(parent, slot)) {
      RetractPropagation(parent);
    } else {
      Undo(parent);
    }
  }
  XAOS_CHECK_EQ(store_[m].backrefs.size, 0u)
      << "back reference added in a cascade";
  refs.size = kept;
  if (kept == 0) store_.FreeList(&refs);
  store_.PutBackrefs(m, refs);
}

void XaosEngine::Undo(MatchingId m) {
  MatchingRecord& r = store_[m];
  r.dead = true;
  ++stats_.structures_undone;
  CascadeRemoval(m, /*retract_only=*/false);
}

void XaosEngine::RetractPropagation(MatchingId m) {
  MatchingRecord& r = store_[m];
  if (r.dead || !r.propagated) return;
  XAOS_CHECK(!r.confirmed) << "confirmed matchings cannot be retracted";
  r.propagated = false;
  CascadeRemoval(m, /*retract_only=*/true);
}

void XaosEngine::MaybeCompleteDeferred(MatchingId m) {
  const MatchingRecord& r = store_[m];
  if (r.closed && !r.dead && !r.propagated && store_.AllSlotsNonEmpty(m)) {
    PropagateUp(m);
  }
}

// Pushes a (possibly optimistically) total matching into the appropriate
// submatchings of its parent-matchings. Runs at the structure's own end
// event, or later (deferred) when a pending following-sibling slot fills —
// in that case the current stack top is a later sibling, so the parent
// frame index and the open-ancestor registry are still valid for this
// structure's element.
void XaosEngine::PropagateUp(MatchingId m) {
  MatchingRecord& r = store_[m];
  if (r.propagated || r.dead) return;
  r.propagated = true;
  const XNodeId v = r.xnode;
  const ElementId element_id = r.node.id;
  const ElementId parent_id = r.node.parent_id;
  if (v != kRootXNode) {
    XNodeId parent_xnode = tree_->node(v).parent;
    int slot = slot_in_parent_[static_cast<size_t>(v)];
    switch (tree_->node(v).incoming_axis) {
      case Axis::kChild:
      case Axis::kAttribute: {
        // stack_[depth_ - 2] is the document parent only if dispatch did
        // not skip it (sparse stack); a skipped parent matched nothing.
        if (depth_ < 2 || stack_[depth_ - 2].node.id != parent_id) break;
        MatchingId p = FindMatch(stack_[depth_ - 2], parent_xnode);
        if (p != kNoMatching && !store_[p].dead) {
          LinkChild(p, slot, m, /*optimistic=*/false);
          ++stats_.propagations;
        }
        break;
      }
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
        // Proper ancestors only: they opened before this element did. (The
        // self part of descendant-or-self is pulled by the parent at its
        // own close.)
        for (MatchingId p : open_by_xnode_[static_cast<size_t>(parent_xnode)]) {
          if (store_[p].node.id >= element_id || store_[p].dead) continue;
          LinkChild(p, slot, m, /*optimistic=*/false);
          ++stats_.propagations;
        }
        break;
      case Axis::kFollowingSibling: {
        // Targets are the already-closed preceding siblings matched to the
        // parent x-node; filling their slot may complete them (deferred
        // propagation).
        if (depth_ < 2 || stack_[depth_ - 2].node.id != parent_id) break;
        // Walk a pinned copy in this call's segment [base, end) of the
        // shared scratch stack: the links below run confirmation and undo
        // cascades, which may kill or free listed structures, and a
        // deferred completion propagates recursively (appending above
        // `end`, so entries are read by index).
        const std::vector<MatchingId>& closed =
            stack_[depth_ - 2]
                .closed_by_xnode[static_cast<size_t>(parent_xnode)];
        const size_t base = sibling_scratch_.size();
        for (MatchingId p : closed) {
          store_.Retain(p);
          sibling_scratch_.push_back(p);
        }
        const size_t end = sibling_scratch_.size();
        for (size_t i = base; i < end; ++i) {
          MatchingId p = sibling_scratch_[i];
          if (store_[p].dead || store_[p].node.id >= element_id) continue;
          LinkChild(p, slot, m, /*optimistic=*/false);
          ++stats_.propagations;
          MaybeCompleteDeferred(p);
        }
        for (size_t i = base; i < end; ++i) store_.Release(sibling_scratch_[i]);
        sibling_scratch_.resize(base);
        break;
      }
      case Axis::kSelf:
      case Axis::kParent:
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf:
      case Axis::kPrecedingSibling:
        // Self submatchings are pulled by the x-tree parent at its own end
        // event; backward-axis parent-matchings adopted this structure
        // optimistically when they closed. Nothing to push.
        break;
      case Axis::kFollowing:
      case Axis::kPreceding:
        XAOS_CHECK(false) << "desugared axis in x-tree";
    }
  }
  TryConfirm(m);
}

void XaosEngine::ProcessEnd() {
  XAOS_CHECK(depth_ > 0);
  Frame& frame = stack_[depth_ - 1];
  const ElementId element_id = frame.node.id;

  // Children that were pending on a following sibling can no longer
  // complete: once this element closes, no further siblings of its children
  // will ever arrive. Retract them now.
  if (wants_siblings_) {
    for (const std::vector<MatchingId>& list : frame.closed_by_xnode) {
      for (MatchingId child : list) {
        if (!store_[child].dead && !store_.AllSlotsNonEmpty(child)) {
          Undo(child);
        }
      }
    }
  }

  // Process deepest x-tree nodes first: x-tree children that may be mapped
  // to this very element (self / *-or-self axes) must be finalized before
  // their x-tree parent fills its slots.
  std::vector<size_t>& order = order_scratch_;
  order.resize(frame.xnodes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (order.size() > 1) {
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return tree_->node(frame.xnodes[a]).depth >
             tree_->node(frame.xnodes[b]).depth;
    });
  }

  for (size_t idx : order) {
    XNodeId v = frame.xnodes[idx];
    const MatchingId m = frame.structures[idx];
    if (store_[m].dead) continue;
    store_[m].closed = true;

    // Pull phase: submatchings whose candidates are known at this end event
    // but may not yet be total are adopted *optimistically* and retracted
    // later if they fail (Section 4.3): backward axes map to open
    // ancestors, preceding-sibling to closed earlier siblings, self /
    // descendant-or-self's self part to this very element.
    const std::vector<XNodeId>& children = tree_->node(v).children;
    for (size_t slot = 0; slot < children.size(); ++slot) {
      XNodeId w = children[slot];
      const int s = static_cast<int>(slot);
      switch (tree_->node(w).incoming_axis) {
        case Axis::kParent: {
          // Sparse-stack guard: stack_[depth_ - 2] must be the document
          // parent (skipped ancestors matched nothing).
          if (depth_ < 2 ||
              stack_[depth_ - 2].node.id != frame.node.parent_id) {
            break;
          }
          MatchingId p = FindMatch(stack_[depth_ - 2], w);
          if (p != kNoMatching && !store_[p].dead) {
            LinkChild(m, s, p, /*optimistic=*/true);
            ++stats_.optimistic_propagations;
          }
          break;
        }
        case Axis::kAncestor:
          for (MatchingId p : open_by_xnode_[static_cast<size_t>(w)]) {
            if (store_[p].node.id == element_id || store_[p].dead) continue;
            LinkChild(m, s, p, /*optimistic=*/true);
            ++stats_.optimistic_propagations;
          }
          break;
        case Axis::kAncestorOrSelf:
          for (MatchingId p : open_by_xnode_[static_cast<size_t>(w)]) {
            if (store_[p].dead) continue;
            LinkChild(m, s, p, /*optimistic=*/true);
            ++stats_.optimistic_propagations;
          }
          break;
        case Axis::kSelf:
        case Axis::kDescendantOrSelf: {
          // The same element may match `w` (its structure was finalized
          // earlier in this event — deeper x-tree nodes first). For
          // descendant-or-self this is the "self" part; proper descendants
          // were pushed when they closed.
          MatchingId p = FindMatch(frame, w);
          if (p != kNoMatching && p != m && !store_[p].dead) {
            LinkChild(m, s, p, /*optimistic=*/true);
            ++stats_.optimistic_propagations;
          }
          break;
        }
        case Axis::kPrecedingSibling: {
          if (depth_ < 2 ||
              stack_[depth_ - 2].node.id != frame.node.parent_id) {
            break;
          }
          Frame& parent_frame = stack_[depth_ - 2];
          for (MatchingId p :
               parent_frame.closed_by_xnode[static_cast<size_t>(w)]) {
            if (store_[p].dead) continue;
            LinkChild(m, s, p, /*optimistic=*/true);
            ++stats_.optimistic_propagations;
          }
          break;
        }
        default:
          break;  // child/descendant/following-sibling: filled by pushes
      }
    }

    if (!store_.AllSlotsNonEmpty(m)) {
      // Distinguish dead from *pending*: an empty following-sibling slot
      // can still fill while this element's parent remains open.
      bool pending = depth_ >= 2;
      if (pending) {
        for (size_t slot = 0; slot < children.size(); ++slot) {
          if (!store_.SlotEmpty(m, static_cast<int>(slot))) continue;
          if (tree_->node(children[slot]).incoming_axis !=
              Axis::kFollowingSibling) {
            pending = false;
            break;
          }
        }
      }
      if (!pending) Undo(m);
      // Pending structures stay registered (closed, unpropagated) and are
      // completed by MaybeCompleteDeferred or retracted at parent close.
      continue;
    }

    PropagateUp(m);

    // A structure anchored before (or during) its close: its subtree
    // capture is complete now, so a deferred emission can go out, and its
    // slots may already have drained to confirmed counts.
    if (earliest_ && store_[m].anchored) {
      if (is_output_[static_cast<size_t>(v)]) EmitEarly(m);
      MaybeReclaim(m);
    }
  }

  // A confirmed entry in every Root slot guarantees a total matching at
  // Root no matter what the rest of the stream contains (Section 5.1).
  if (!early_match_ && live_root_ != kNoMatching && !store_[live_root_].dead &&
      store_.AllSlotsConfirmed(live_root_)) {
    early_match_ = true;
    if (obs::Enabled()) confirm_ns_ = obs::NowNs();
    if (options_.stop_after_confirmed_match) {
      inert_ = true;
    } else if (earliest_) {
      // The Root is confirmed: it and everything reachable from it through
      // confirmed structures is provably in the final result. Anchoring
      // cascades emission (and reclamation) down the confirmed graph; later
      // confirmations anchor incrementally via the TryConfirm / LinkChild
      // hooks. Skipped in stop_after_confirmed_match mode, which reports
      // matched with no items.
      Anchor(live_root_);
    }
  }

  // Unregister this element's open matches (they are the newest entries of
  // their per-x-node stacks).
  for (size_t i = 0; i < frame.xnodes.size(); ++i) {
    std::vector<MatchingId>& open =
        open_by_xnode_[static_cast<size_t>(frame.xnodes[i])];
    XAOS_CHECK(!open.empty() && open.back() == frame.structures[i]);
    open.pop_back();
  }
  // Keep sibling-relevant matches reachable from the parent frame until the
  // parent closes.
  if (wants_siblings_ && depth_ >= 2 &&
      stack_[depth_ - 2].node.id == frame.node.parent_id) {
    Frame& parent_frame = stack_[depth_ - 2];
    for (size_t i = 0; i < frame.xnodes.size(); ++i) {
      XNodeId v = frame.xnodes[i];
      MatchingId s = frame.structures[i];
      if (sibling_listed_[static_cast<size_t>(v)] && !store_[s].dead) {
        store_.Retain(s);
        parent_frame.closed_by_xnode[static_cast<size_t>(v)].push_back(s);
      }
    }
  }
  // Spend the frame: release its structure references but keep the
  // vectors' capacity for reuse at this depth.
  for (MatchingId s : frame.structures) store_.Release(s);
  frame.xnodes.clear();
  frame.structures.clear();
  frame.capture_index = -1;
  --depth_;
}

void XaosEngine::TryConfirm(MatchingId m) {
  // Note: open structures are confirmable too — their slots only ever gain
  // entries, confirmed entries are never retracted, and the consistency of
  // every existing link was checked when it was made. An open structure
  // with a confirmed entry in every slot is therefore guaranteed to
  // represent a total matching once it closes.
  {
    const MatchingRecord& r = store_[m];
    if (r.confirmed || r.dead || !store_.AllSlotsConfirmed(m)) return;
  }
  store_[m].confirmed = true;
  // Walk the parents that linked this structure before it was confirmed
  // (later links count it directly, see LinkChild). The caller keeps `m`
  // alive for the duration of the call.
  if (IsCountedXNode(store_[m].xnode)) {
    // Once counted, the stored entries (and back references) are released:
    // confirmed structures are immutable, so nothing will ever need to
    // retract or re-find them. This is what frees predicate-only matchings
    // long before end of document. The list is taken from the record, so
    // nothing can change it under the loop.
    PoolList refs = store_.TakeBackrefs(m);
    for (uint32_t k = 0; k < refs.size; ++k) {
      const MatchingBackRef ref = store_.backref_data(refs)[k];
      if (!store_.Alive(ref.parent)) continue;
      const MatchingId parent = ref.parent.index;
      if (store_[parent].dead) continue;
      Pin pin(&store_, parent);
      store_.BumpConfirmed(parent, static_cast<int>(ref.slot));
      // Migrate from stored entry to count; this may drop the last
      // reference to `m` a parent holds.
      store_.RemoveFromSlot(parent, static_cast<int>(ref.slot), m);
      if (earliest_ && store_[parent].anchored) MaybeReclaim(parent);
      TryConfirm(parent);
    }
    store_.FreeList(&refs);
    return;
  }
  // The back references stay with `m`, but the cascade below can reclaim
  // `m` (releasing them), so walk a copy in this call's segment
  // [base, end) of the shared scratch stack; nested calls append above
  // `end` and truncate back, and entries are read by index because an
  // append may reallocate.
  const size_t base = backref_scratch_.size();
  std::span<const MatchingBackRef> refs = store_.backrefs(m);
  backref_scratch_.insert(backref_scratch_.end(), refs.begin(), refs.end());
  const size_t end = backref_scratch_.size();
  bool anchor_after = false;
  for (size_t k = base; k < end; ++k) {
    const MatchingBackRef ref = backref_scratch_[k];
    if (!store_.Alive(ref.parent)) continue;
    const MatchingId parent = ref.parent.index;
    if (store_[parent].dead) continue;
    Pin pin(&store_, parent);
    store_.BumpConfirmed(parent, static_cast<int>(ref.slot));
    // A live anchored parent makes the freshly confirmed `m` reachable from
    // the confirmed Root. Anchoring is deferred past the loop: Anchor can
    // reclaim `m`, which would detach it from parents not yet visited.
    if (earliest_ && store_[parent].anchored) anchor_after = true;
    TryConfirm(parent);
  }
  backref_scratch_.resize(base);
  if (anchor_after) Anchor(m);
}

void XaosEngine::Anchor(MatchingId m) {
  if (!earliest_ || m == kNoMatching) return;
  {
    MatchingRecord& r = store_[m];
    if (r.anchored || r.dead || !r.confirmed) return;
    r.anchored = true;
    if (is_output_[static_cast<size_t>(r.xnode)] &&
        (r.closed || !options_.capture_output_subtrees)) {
      // An anchored output structure is provably in the final result. With
      // subtree capture the serialized XML only exists once the element
      // closes; emission of a still-open structure is deferred to its
      // close (ProcessEnd re-checks anchored structures at their end
      // event).
      EmitEarly(m);
    }
  }
  // Recursively anchor the confirmed entries of stored (non-counted)
  // slots: every one of them is reachable through `m`'s confirmed link.
  // Two-phase: anchoring a child can reclaim it, which erases it from the
  // slot being iterated, so collect pinned entries first — into this
  // call's segment [base, end) of the shared scratch stack. Nested calls
  // append above `end` and truncate back before returning; entries are
  // read by index because an append may reallocate.
  const size_t base = anchor_scratch_.size();
  const std::vector<XNodeId>& children = tree_->node(store_[m].xnode).children;
  for (size_t slot = 0; slot < children.size(); ++slot) {
    if (IsCountedXNode(children[slot])) continue;
    for (MatchingId child : store_.slot(m, static_cast<int>(slot))) {
      if (store_[child].confirmed && !store_[child].anchored) {
        store_.Retain(child);
        anchor_scratch_.push_back(child);
      }
    }
  }
  const size_t end = anchor_scratch_.size();
  for (size_t i = base; i < end; ++i) Anchor(anchor_scratch_[i]);
  MaybeReclaim(m);
  for (size_t i = base; i < end; ++i) store_.Release(anchor_scratch_[i]);
  anchor_scratch_.resize(base);
}

void XaosEngine::EmitEarly(MatchingId m) {
  MatchingRecord& r = store_[m];
  if (r.emitted) return;
  r.emitted = true;
  --unemitted_outputs_;
  if (r.output_twin && !emitted_ids_.insert(r.node.id).second) return;
  OutputItem& item = early_items_.emplace_back();
  FillInfo(m, &item.info);
  if (options_.capture_output_subtrees) {
    auto it = captured_.find(item.info.id);
    if (it != captured_.end()) {
      // Move the capture buffer out — its heap storage is freed with the
      // item instead of lingering until end of document.
      item.captured_xml = std::move(it->second);
      captured_.erase(it);
    }
  }
  if (early_items_.size() > 1 &&
      early_items_[early_items_.size() - 2].info.id > item.info.id) {
    early_items_sorted_ = false;
  }
  ++stats_.candidates_emitted_early;
  if (options_.early_item_sink) options_.early_item_sink(item);
}

void XaosEngine::MaybeReclaim(MatchingId m) {
  {
    const MatchingRecord& r = store_[m];
    if (!reclaim_enabled_ || r.reclaimed || !r.anchored || r.dead ||
        !r.closed || r.xnode == kRootXNode ||
        reclaim_blocked_[static_cast<size_t>(r.xnode)]) {
      return;
    }
  }
  // Reclaim only once every non-counted slot has drained to its confirmed
  // count. A stored entry — even an anchored one — may still be the only
  // reference keeping an unconfirmed grandchild's backref target alive;
  // freeing it here could lose an item that confirms later. Counted slots
  // never store confirmed entries (TryConfirm migrates them to counts);
  // their remaining stored entries are unconfirmed, output-free candidates
  // whose loss is harmless (expired backrefs are skipped).
  const std::vector<XNodeId>& children = tree_->node(store_[m].xnode).children;
  for (size_t slot = 0; slot < children.size(); ++slot) {
    if (!IsCountedXNode(children[slot]) &&
        !store_.slot(m, static_cast<int>(slot)).empty()) {
      return;
    }
  }
  store_[m].reclaimed = true;
  ++stats_.candidates_reclaimed;
  store_.ReleaseSlots(m);
  // Detach from parents. Pin every live parent first: removing `m` from a
  // slot can drop its last reference and free it mid-loop, so after the
  // first removal only the id *value* may be used. The pinned parents go
  // into this call's segment [base, end) of the shared scratch stack; the
  // recursive calls below append above `end` and truncate back, and
  // entries are read by index because an append may reallocate.
  PoolList detached = store_.TakeBackrefs(m);
  const size_t base = reclaim_scratch_.size();
  for (uint32_t k = 0; k < detached.size; ++k) {
    const MatchingBackRef ref = store_.backref_data(detached)[k];
    if (!store_.Alive(ref.parent) || store_[ref.parent.index].dead) continue;
    store_.Retain(ref.parent.index);
    reclaim_scratch_.emplace_back(ref.parent.index, static_cast<int>(ref.slot));
  }
  store_.FreeList(&detached);
  const size_t end = reclaim_scratch_.size();
  for (size_t i = base; i < end; ++i) {
    // Anchored => every confirmed count >= 1, so the slot stays satisfied
    // and no undo can trigger; this is pure storage release.
    store_.RemoveFromSlot(reclaim_scratch_[i].first,
                          reclaim_scratch_[i].second, m);
  }
  for (size_t i = base; i < end; ++i) {
    MatchingId parent = reclaim_scratch_[i].first;
    if (store_[parent].anchored) MaybeReclaim(parent);
  }
  for (size_t i = base; i < end; ++i) {
    store_.Release(reclaim_scratch_[i].first);
  }
  reclaim_scratch_.resize(base);
}

void XaosEngine::StartDocument() {
  ResetDocumentState();
  if (!external_cursor_) own_cursor_.Reset();
  ProcessStart("", util::kInvalidSymbol, "",
               NodePosition{.kind = DocNodeKind::kRoot});
  live_root_ = FindMatch(stack_[0], kRootXNode);
}

void XaosEngine::StartElement(const xml::QName& name,
                              xml::AttributeSpan attributes) {
  if (!error_.ok() || inert_) return;
  if (!external_cursor_) own_cursor_.StartElement(attributes.size());
  const DocumentCursor::Node& node = cursor_->top();
  // Replay paths (DOM replayer, recorded events, hand-fed tests) deliver
  // names without interned symbols; resolve against the global table. A
  // name the table has never seen cannot match any query name test.
  util::Symbol symbol = name.symbol;
  if (symbol == util::kInvalidSymbol) {
    symbol = util::SymbolTable::Global().Lookup(name.text);
  }
  ProcessStart(name.text, symbol, "",
               NodePosition{node.id, node.parent_id,
                            static_cast<int32_t>(node.level),
                            static_cast<uint32_t>(node.ordinal),
                            DocNodeKind::kElement});
  if (!error_.ok()) return;

  if (options_.capture_output_subtrees) {
    for (const std::unique_ptr<Capture>& capture : active_captures_) {
      capture->writer.StartElement(name.text);
      for (const xml::AttributeView& attr : attributes) {
        capture->writer.WriteAttribute(attr.name, attr.value);
      }
    }
    Frame& top = stack_[depth_ - 1];
    bool output_match = false;
    for (XNodeId v : top.xnodes) {
      if (is_output_[static_cast<size_t>(v)]) {
        output_match = true;
        break;
      }
    }
    if (output_match) {
      auto capture = std::make_unique<Capture>();
      capture->element_id = top.node.id;
      capture->writer.StartElement(name.text);
      for (const xml::AttributeView& attr : attributes) {
        capture->writer.WriteAttribute(attr.name, attr.value);
      }
      top.capture_index = static_cast<int>(active_captures_.size());
      active_captures_.push_back(std::move(capture));
    }
  }

  if (wants_attributes_) {
    for (size_t k = 0; k < attributes.size(); ++k) {
      const xml::AttributeView& attr = attributes[k];
      util::Symbol attr_symbol = attr.symbol;
      if (attr_symbol == util::kInvalidSymbol) {
        attr_symbol = util::SymbolTable::Global().Lookup(attr.name);
      }
      ProcessStart(attr.name, attr_symbol, attr.value,
                   NodePosition{cursor_->attribute_id(k), node.id,
                                static_cast<int32_t>(node.level) + 1,
                                static_cast<uint32_t>(node.ordinal),
                                DocNodeKind::kAttribute});
      if (!error_.ok()) return;
      ProcessEnd();
    }
  }
}

void XaosEngine::Characters(std::string_view text) {
  if (!error_.ok() || inert_ || depth_ == 0) return;
  if (!external_cursor_) own_cursor_.Characters();
  if (options_.capture_output_subtrees) {
    for (const std::unique_ptr<Capture>& capture : active_captures_) {
      capture->writer.WriteText(text);
    }
  }
  if (wants_text_) {
    const DocumentCursor::Node& node = cursor_->top();
    ProcessStart("", util::kInvalidSymbol, text,
                 NodePosition{cursor_->text_id(), node.id,
                              static_cast<int32_t>(node.level) + 1,
                              static_cast<uint32_t>(node.ordinal),
                              DocNodeKind::kText});
    if (!error_.ok()) return;
    ProcessEnd();
  }
}

void XaosEngine::EndElement(std::string_view /*name*/) {
  if (!error_.ok() || inert_) return;
  if (options_.capture_output_subtrees) {
    for (const std::unique_ptr<Capture>& capture : active_captures_) {
      capture->writer.EndElement();
    }
    Frame& top = stack_[depth_ - 1];
    if (top.capture_index >= 0) {
      XAOS_CHECK_EQ(top.capture_index,
                    static_cast<int>(active_captures_.size()) - 1);
      Capture& capture = *active_captures_.back();
      captured_[capture.element_id] = std::move(capture.xml);
      active_captures_.pop_back();
    }
  }
  ProcessEnd();
  if (!external_cursor_) own_cursor_.EndElement();
}

void XaosEngine::EndDocument() {
  if (!error_.ok()) return;
  if (inert_) {
    stats_.arena_bytes_allocated =
        store_.bytes_allocated() - store_bytes_baseline_;
    // Early-terminated filtering mode: the match is guaranteed; per-item
    // results were not tracked past the confirmation point.
    result_.items.clear();
    result_.matched = true;
    done_ = true;
    return;
  }
  XAOS_CHECK_EQ(depth_, 1u) << "unbalanced events";
  root_structure_ = FindMatch(stack_[0], kRootXNode);
  if (root_structure_ != kNoMatching) store_.Retain(root_structure_);
  ProcessEnd();
  stats_.arena_bytes_allocated =
      store_.bytes_allocated() - store_bytes_baseline_;
  BuildResult(root_structure_);
  done_ = true;
  // A match that was never confirmed early becomes certain here.
  if (result_.matched && confirm_ns_ == 0 && obs::Enabled()) {
    confirm_ns_ = obs::NowNs();
  }
}

void XaosEngine::BuildResult(MatchingId root_structure) {
  result_.matched = false;
  result_.items.clear();
  if (root_structure == kNoMatching || store_[root_structure].dead ||
      !store_.AllSlotsNonEmpty(root_structure)) {
    // Emission requires an anchored (confirmed-through-Root) structure, so
    // an unmatched document can never have emitted anything.
    XAOS_CHECK(early_items_.empty()) << "early items without a root match";
    return;
  }
  result_.matched = true;

  // Items already emitted by earliest answering come first; the residual
  // marked traversal adds only what was never emitted, and the final sort
  // restores document order — byte-identical to the non-earliest engine.
  // Swapping keeps both vectors' capacity for the next document.
  result_.items.swap(early_items_);

  // Marked traversal (Section 4.4): every structure reachable from a
  // satisfied root participates in at least one total matching, so each
  // output x-node's reachable structures are exactly the selected nodes.
  // Structures carry their own visited/emitted marks; only output twins
  // consult the element-id set. When every output structure of the
  // document is already emitted, the walk could add nothing.
  const bool walk = unemitted_outputs_ != 0;
  if (walk) {
    std::vector<MatchingId>& pending = traversal_scratch_;
    pending.assign(1, root_structure);
    store_[root_structure].visited = true;
    while (!pending.empty()) {
      MatchingId m = pending.back();
      pending.pop_back();
      MatchingRecord& r = store_[m];
      if (is_output_[static_cast<size_t>(r.xnode)] && !r.emitted) {
        r.emitted = true;
        --unemitted_outputs_;
        if (!r.output_twin || emitted_ids_.insert(r.node.id).second) {
          OutputItem& item = result_.items.emplace_back();
          FillInfo(m, &item.info);
          if (options_.capture_output_subtrees) {
            auto it = captured_.find(item.info.id);
            if (it != captured_.end()) item.captured_xml = it->second;
          }
        }
      }
      for (int i = 0; i < r.slot_count; ++i) {
        for (MatchingId child : store_.slot(m, i)) {
          if (!store_[child].visited) {
            store_[child].visited = true;
            pending.push_back(child);
          }
        }
      }
    }
  }
  auto by_id = [](const OutputItem& a, const OutputItem& b) {
    return a.info.id < b.info.id;
  };
  // Without a walk, EmitEarly already knows whether proof order was
  // document order.
  if (walk ? !std::is_sorted(result_.items.begin(), result_.items.end(), by_id)
           : !early_items_sorted_) {
    std::sort(result_.items.begin(), result_.items.end(), by_id);
  }
}

TupleEnumeration XaosEngine::OutputTuples(size_t max_tuples) const {
  TupleEnumeration enumeration;
  if (!done_ || !result_.matched || root_structure_ == kNoMatching) {
    return enumeration;
  }
  if (stats_.candidates_reclaimed > 0) {
    // Parts of the structure graph were eagerly reclaimed. Reclamation is
    // only enabled for single-output trees, where the distinct tuples are
    // exactly the result items — synthesize singletons instead of walking
    // the (partially released) graph.
    for (const OutputItem& item : result_.items) {
      if (enumeration.tuples.size() >= max_tuples) {
        enumeration.complete = false;
        break;
      }
      enumeration.tuples.push_back(OutputTuple{item.info});
    }
    return enumeration;
  }
  std::vector<XNodeId> out_nodes;
  for (XNodeId v = 0; v < tree_->size(); ++v) {
    if (is_output_[static_cast<size_t>(v)]) out_nodes.push_back(v);
  }

  std::vector<MatchingId> assignment(static_cast<size_t>(tree_->size()),
                                     kNoMatching);
  std::set<std::vector<ElementId>> seen;
  size_t explored = 0;
  const size_t explore_budget = max_tuples * 64;

  // Full product enumeration over the structure graph: one entry is chosen
  // per slot, recursively; a complete choice is a total matching (x-tree
  // subtree domains are disjoint, so any per-slot combination is valid).
  // The work list holds (structure, next slot to decide) pairs.
  std::function<bool(std::vector<std::pair<MatchingId, int>>&)> run =
      [&](std::vector<std::pair<MatchingId, int>>& work) -> bool {
    if (++explored > explore_budget) {
      enumeration.complete = false;
      return false;
    }
    if (work.empty()) {
      std::vector<ElementId> key;
      OutputTuple tuple;
      key.reserve(out_nodes.size());
      for (XNodeId v : out_nodes) {
        MatchingId m = assignment[static_cast<size_t>(v)];
        XAOS_CHECK(m != kNoMatching);
        key.push_back(store_[m].node.id);
      }
      if (seen.insert(std::move(key)).second) {
        tuple.reserve(out_nodes.size());
        for (XNodeId v : out_nodes) {
          FillInfo(assignment[static_cast<size_t>(v)], &tuple.emplace_back());
        }
        enumeration.tuples.push_back(std::move(tuple));
        if (enumeration.tuples.size() >= max_tuples) {
          enumeration.complete = false;
          return false;
        }
      }
      return true;
    }
    auto [m, slot] = work.back();
    if (slot == store_[m].slot_count) {
      work.pop_back();
      bool keep_going = run(work);
      work.push_back({m, slot});
      return keep_going;
    }
    // Boolean submatchings: output-free slots contribute nothing to the
    // projection; their (released) entries need not be enumerated.
    XNodeId slot_child =
        tree_->node(store_[m].xnode).children[static_cast<size_t>(slot)];
    if (IsCountedXNode(slot_child)) {
      work.back().second = slot + 1;
      bool keep_going = run(work);
      work.back().second = slot;
      return keep_going;
    }
    work.back().second = slot + 1;
    bool keep_going = true;
    for (MatchingId child : store_.slot(m, slot)) {
      const size_t child_xnode = static_cast<size_t>(store_[child].xnode);
      assignment[child_xnode] = child;
      work.push_back({child, 0});
      keep_going = run(work);
      work.pop_back();
      assignment[child_xnode] = kNoMatching;
      if (!keep_going) break;
    }
    work.back().second = slot;
    return keep_going;
  };

  assignment[kRootXNode] = root_structure_;
  std::vector<std::pair<MatchingId, int>> work{{root_structure_, 0}};
  run(work);
  return enumeration;
}

std::vector<LookingForEntry> XaosEngine::DebugLookingForSet() const {
  std::vector<LookingForEntry> out;
  if (depth_ == 0 || done_) {
    out.push_back({kRootXNode, 0, "Root"});
    return out;
  }
  constexpr int kAbsent = -3;
  constexpr int kAny = LookingForEntry::kAnyLevel;  // -1
  int top_level = stack_[depth_ - 1].node.level;
  std::vector<int> lf(static_cast<size_t>(tree_->size()), kAbsent);

  for (XNodeId v : xdag_.TopologicalOrder()) {
    if (v == kRootXNode) continue;  // the root is already matched, not sought
    int combined = kAny;
    for (const query::XDagEdge& edge : xdag_.incoming(v)) {
      XNodeId u = edge.from;
      int constraint = kAbsent;
      bool top_has_u = FindMatch(stack_[depth_ - 1], u) != kNoMatching;
      bool any_open_u = !open_by_xnode_[static_cast<size_t>(u)].empty();
      switch (edge.axis) {
        case Axis::kChild:
        case Axis::kAttribute:
          if (top_has_u) constraint = top_level + 1;
          break;
        case Axis::kDescendant:
          if (any_open_u) constraint = kAny;
          break;
        case Axis::kDescendantOrSelf:
          if (any_open_u) {
            constraint = kAny;
          } else if (lf[static_cast<size_t>(u)] != kAbsent) {
            constraint = lf[static_cast<size_t>(u)];
          }
          break;
        case Axis::kSelf:
          if (lf[static_cast<size_t>(u)] != kAbsent) {
            constraint = lf[static_cast<size_t>(u)];
          }
          break;
        case Axis::kFollowingSibling: {
          const Frame& top = stack_[depth_ - 1];
          for (MatchingId p : top.closed_by_xnode[static_cast<size_t>(u)]) {
            if (!store_[p].dead) {
              constraint = top_level + 1;
              break;
            }
          }
          break;
        }
        case Axis::kParent:
        case Axis::kAncestor:
        case Axis::kAncestorOrSelf:
        case Axis::kPrecedingSibling:
        case Axis::kFollowing:
        case Axis::kPreceding:
          XAOS_CHECK(false) << "unexpected axis in x-dag";
      }
      if (constraint == kAbsent) {
        combined = kAbsent;
        break;
      }
      if (constraint == kAny) continue;
      if (combined == kAny) {
        combined = constraint;
      } else if (combined != constraint) {
        combined = kAbsent;
        break;
      }
    }
    lf[static_cast<size_t>(v)] = combined;
    if (combined != kAbsent) {
      out.push_back({v, combined, tree_->node(v).test.Label()});
    }
  }
  return out;
}

}  // namespace xaos::core
