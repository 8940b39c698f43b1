// Label-indexed multi-engine dispatch.
//
// A fleet drives N XaosEngines from one SAX stream. Instead of fanning
// every event out to every engine (O(N) per event), the fleet keeps an
// inverted index from interned label Symbols to the engines whose x-trees
// mention that label: a start-element only reaches (a) engines mentioning
// the element's tag or one of its attribute names, and (b) a small
// "always-dispatch" set — engines with wildcard node tests, sibling axes
// (they need a dense ancestor stack) or subtree capture (they need every
// event inside matched subtrees). End-element events mirror their start
// exactly; character events go to the engines that test text() or capture.
//
// Event numbering moves to one shared DocumentCursor: the fleet advances it
// for every event, attached engines read node ids/levels/ordinals from it,
// so the filtered view each engine sees produces byte-identical results to
// a naive fan-out (ids are uniform and monotone in document order).
//
// Element and text events reach engines one way: ReplayRun's per-kind
// dispatch bodies. Batching drivers (core/batched_dispatch.h,
// ParallelFleet workers) hand it runs of xml::EventBatch records; the
// evaluators' direct ContentHandler overrides hand it each live event as
// it arrives, without copying it into a batch.

#ifndef XAOS_CORE_ENGINE_FLEET_H_
#define XAOS_CORE_ENGINE_FLEET_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/document_cursor.h"
#include "core/shared_index.h"
#include "core/xaos_engine.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/symbol_table.h"
#include "xml/event_batch.h"
#include "xml/sax_event.h"

namespace xaos::core {

// One live SAX event as a direct ContentHandler callback hands it over, for
// EngineFleet::ReplayRun: no copy into an EventBatch. The views are valid
// only during that callback. Read through the same accessors as batch
// records (engine_fleet.cc), with the event index ignored.
class LiveEvent {
 public:
  LiveEvent(xml::BatchedEvent::Kind kind, util::Symbol symbol,
            std::string_view text, xml::AttributeSpan attributes = {})
      : kind_(kind), symbol_(symbol), text_(text), attributes_(attributes) {}

  xml::BatchedEvent::Kind kind(size_t) const { return kind_; }
  util::Symbol symbol(size_t) const { return symbol_; }
  // Element name or character data.
  std::string_view text(size_t) const { return text_; }
  uint32_t attr_count(size_t) const {
    return static_cast<uint32_t>(attributes_.size());
  }
  util::Symbol attr_symbol(size_t, uint32_t a) const {
    return attributes_[a].symbol;
  }
  std::string_view attr_name(size_t, uint32_t a) const {
    return attributes_[a].name;
  }
  xml::AttributeSpan attributes(size_t) const { return attributes_; }

 private:
  xml::BatchedEvent::Kind kind_;
  util::Symbol symbol_;
  std::string_view text_;
  xml::AttributeSpan attributes_;
};

class EngineFleet {
 public:
  EngineFleet() = default;
  EngineFleet(const EngineFleet&) = delete;
  EngineFleet& operator=(const EngineFleet&) = delete;

  // Registers an engine (not owned; must outlive the fleet's use). All
  // engines must be added before the first StartDocument.
  void AddEngine(XaosEngine* engine);

  // Attaches the shared-prefix subscription matcher (core/shared_index.h;
  // not owned, may be null). The matcher is its own index: it receives
  // every element event, after the shared cursor advanced, alongside the
  // label-filtered engine deliveries. Attach before StartDocument.
  void AttachSharedMatcher(SharedMatcher* matcher) { matcher_ = matcher; }

  // Classifies engines and builds the symbol index. Called lazily by
  // StartDocument; call explicitly after the last AddEngine if you want the
  // cost out of the timed path.
  void Finalize();

  // Document boundaries (the owning evaluator forwards its callbacks here);
  // every event in between arrives through ReplayRun.
  void StartDocument();
  void EndDocument();

  // A projection skip (xml/skip_scanner.h) replaced a subtree's events:
  // advance the shared cursor so downstream ids match a full parse. No
  // engine is notified — a skipped subtree is irrelevant to all of them.
  void SkipSubtree(const xml::SkipReport& report) {
    cursor_.SkipSubtree(report.node_ids, report.elements);
  }

  // Replays batch events [begin, end) — which must not contain
  // document-boundary events — through one devirtualized loop. Consecutive
  // start-elements resolving to the same candidate-engine set reuse a
  // one-entry (symbol, attr-free) memo instead of re-walking the label
  // index; the shared matcher steps through its flat transition tables.
  // Where a batch is cut does not change any result. `attr_scratch` is
  // per-caller reusable storage for the attribute views engines receive.
  void ReplayRun(const xml::EventBatch& batch, size_t begin, size_t end,
                 std::vector<xml::AttributeView>* attr_scratch);
  // The same dispatch over one live element or text event: the evaluators'
  // direct ContentHandler overrides call this, so direct callers see
  // MatchConfirmed and early_item_sink move at the exact event.
  inline void ReplayRun(const LiveEvent& event);

  // Abandons the current document mid-stream (the producer failed): resets
  // the per-document dispatch state so the next StartDocument starts clean
  // instead of tripping the balance checks. Engine per-document state is
  // reset by that StartDocument, as always.
  void AbortDocument();

  size_t engine_count() const { return engines_.size(); }
  // True when at least one engine consumes character data or end-element
  // names (text predicates or subtree captures). When false, a batching
  // producer may capture those events lean — record without payload bytes
  // (xml::EventBatcher::set_lean_payload).
  bool wants_text_events() {
    Finalize();
    return !text_engines_.empty();
  }
  // Engine deliveries suppressed by the dispatch index so far (cumulative
  // across documents): for each element event, engines that did not
  // receive it.
  uint64_t engines_skipped() const { return engines_skipped_; }
  const DocumentCursor& cursor() const { return cursor_; }

 private:
  void Deliver(int idx) {
    if (stamps_[static_cast<size_t>(idx)] != stamp_) {
      stamps_[static_cast<size_t>(idx)] = stamp_;
      // An inert engine (stop_after_confirmed_match triggered) ignores
      // every further event of this document — don't dispatch to it. Its
      // skipped tail is folded back in at EndDocument.
      if (engines_[static_cast<size_t>(idx)]->inert()) return;
      delivered_scratch_.push_back(idx);
    }
  }
  void AddSymbolTargets(util::Symbol symbol, std::string_view name);
  // The dispatch of event `e` of `events`, one body per event kind, shared
  // by both ReplayRun overloads. `Events` reads batch records
  // (engine_fleet.cc) or is a LiveEvent. Defined in this
  // header so a direct handler's inlined ReplayRun folds its switch to the
  // one kind it delivers and calls that body without copying the event.
  template <typename Events>
  void OnStartElement(const Events& events, size_t e);
  template <typename Events>
  void OnEndElement(const Events& events, size_t e);
  template <typename Events>
  void OnCharacters(const Events& events, size_t e);

  std::vector<XaosEngine*> engines_;
  SharedMatcher* matcher_ = nullptr;
  bool finalized_ = false;

  DocumentCursor cursor_;

  // --- dispatch index (rebuilt by Finalize) ---
  std::vector<int> always_dispatch_;           // engine indices
  std::vector<int> text_engines_;              // want Characters events
  std::vector<std::vector<int>> by_symbol_;    // Symbol -> engine indices

  // --- per-start-element scratch ---
  // Stamp-based dedup: an engine can be reached through several symbols of
  // one event; it is delivered at most once.
  std::vector<uint32_t> stamps_;
  uint32_t stamp_ = 0;
  std::vector<int> delivered_scratch_;
  // Per-depth record of which engines received the StartElement, so the
  // EndElement reaches exactly the same set. Entries are reused across
  // elements at the same depth.
  std::vector<std::vector<int>> delivered_stack_;
  size_t depth_ = 0;

  uint64_t engines_skipped_ = 0;
  uint64_t engines_skipped_document_ = 0;

  // --- run memo ---
  // One-entry memo over the last start-element's candidate set: consecutive
  // attribute-free elements with the same interned symbol resolve to the
  // same engines, so the label-index walk is skipped for the whole run.
  // Inertness is monotone within a document, so the memoized set is
  // re-filtered by inert() on reuse instead of being re-derived. The set
  // itself is delivered_stack_[memo_depth_]: only end-elements run between
  // two consecutive start-elements, and they leave the stack entries alone.
  bool memo_valid_ = false;
  util::Symbol memo_symbol_ = util::kInvalidSymbol;
  size_t memo_depth_ = 0;
  // Length of the current same-candidate-set run, flushed into the
  // xaos_dispatch_run_length histogram at each run break / document end.
  uint64_t run_length_ = 0;
  obs::Histogram* run_length_hist_ = nullptr;  // null when obs is off
  void BreakRun() {
    if (run_length_ > 0 && run_length_hist_ != nullptr && obs::Enabled()) {
      run_length_hist_->Record(run_length_);
    }
    run_length_ = 0;
  }
};

inline void EngineFleet::ReplayRun(const LiveEvent& event) {
  switch (event.kind(0)) {
    case xml::BatchedEvent::Kind::kStartElement:
      return OnStartElement(event, 0);
    case xml::BatchedEvent::Kind::kEndElement:
      return OnEndElement(event, 0);
    case xml::BatchedEvent::Kind::kCharacters:
      return OnCharacters(event, 0);
    default:
      XAOS_CHECK(false) << "not a live element or text event";
  }
}

template <typename Events>
void EngineFleet::OnStartElement(const Events& events, size_t e) {
  const uint32_t attr_count = events.attr_count(e);
  const util::Symbol symbol = events.symbol(e);
  cursor_.StartElement(attr_count);
  const std::string_view name = events.text(e);
  if (matcher_ != nullptr) {
    matcher_->StartElement(symbol, name, cursor_.top());
  }
  const bool memo_hit = memo_valid_ && attr_count == 0 &&
                        symbol != util::kInvalidSymbol &&
                        symbol == memo_symbol_;
  if (memo_hit) {
    // Same candidate set as the previous start-element: re-filter the
    // memoized set by inert() (inertness is monotone within a
    // document, so this equals a fresh index walk) and skip the walk.
    ++run_length_;
    delivered_scratch_.clear();
    for (int idx : delivered_stack_[memo_depth_]) {
      if (!engines_[static_cast<size_t>(idx)]->inert()) {
        delivered_scratch_.push_back(idx);
      }
    }
  } else {
    BreakRun();
    run_length_ = 1;
    if (++stamp_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0);
      stamp_ = 1;
    }
    delivered_scratch_.clear();
    for (int idx : always_dispatch_) Deliver(idx);
    AddSymbolTargets(symbol, name);
    for (uint32_t a = 0; a < attr_count; ++a) {
      AddSymbolTargets(events.attr_symbol(e, a), events.attr_name(e, a));
    }
    // Attribute names can widen the candidate set, so only
    // attribute-free elements with an interned symbol are memoizable.
    memo_valid_ = attr_count == 0 && symbol != util::kInvalidSymbol;
    memo_symbol_ = symbol;
  }

  const uint64_t skipped = engines_.size() - delivered_scratch_.size();
  engines_skipped_ += skipped;
  engines_skipped_document_ += skipped;

  if (!delivered_scratch_.empty()) {
    const xml::QName qname(name, symbol);
    const xml::AttributeSpan attrs = events.attributes(e);
    for (int idx : delivered_scratch_) {
      engines_[static_cast<size_t>(idx)]->StartElement(qname, attrs);
    }
  }

  if (depth_ == delivered_stack_.size()) delivered_stack_.emplace_back();
  delivered_stack_[depth_] = delivered_scratch_;  // reuses capacity
  memo_depth_ = depth_;
  ++depth_;
}

template <typename Events>
void EngineFleet::OnEndElement(const Events& events, size_t e) {
  XAOS_CHECK(depth_ > 0) << "unbalanced events";
  --depth_;
  const std::string_view name = events.text(e);
  for (int idx : delivered_stack_[depth_]) {
    engines_[static_cast<size_t>(idx)]->EndElement(name);
  }
  if (matcher_ != nullptr) matcher_->EndElement();
  cursor_.EndElement();
}

template <typename Events>
void EngineFleet::OnCharacters(const Events& events, size_t e) {
  cursor_.Characters();
  if (!text_engines_.empty()) {
    const std::string_view text = events.text(e);
    for (int idx : text_engines_) {
      engines_[static_cast<size_t>(idx)]->Characters(text);
    }
  }
}

}  // namespace xaos::core

#endif  // XAOS_CORE_ENGINE_FLEET_H_
