#include "core/engine_fleet.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "core/shared_index.h"
#include "obs/metrics.h"

namespace xaos::core {
namespace {

// Folds the growth of the global symbol table since the last fold into the
// process-wide registry. The table is process-global while registries can
// be many, so the counter lives in the default registry and the baseline is
// shared: each fold publishes only the delta it won via CAS (no double
// counting across concurrent fleets).
void FoldSymbolsInterned(obs::MetricsRegistry* registry) {
  static std::atomic<uint64_t> folded{0};
  uint64_t now = util::SymbolTable::Global().size();
  uint64_t prev = folded.load(std::memory_order_relaxed);
  while (prev < now) {
    if (folded.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
      registry->GetCounter("xaos_symbols_interned")->Increment(now - prev);
      break;
    }
  }
}

}  // namespace

void EngineFleet::AddEngine(XaosEngine* engine) {
  engines_.push_back(engine);
  finalized_ = false;
}

void EngineFleet::Finalize() {
  if (finalized_) return;
  always_dispatch_.clear();
  text_engines_.clear();
  by_symbol_.clear();
  for (size_t i = 0; i < engines_.size(); ++i) {
    XaosEngine* engine = engines_[i];
    engine->AttachCursor(&cursor_);
    int idx = static_cast<int>(i);
    // Wildcard tests match any name; sibling axes rely on a dense stack
    // (every element delivered); capture mode records whole subtrees.
    bool always = engine->has_any_element_candidates() ||
                  engine->has_any_attribute_candidates() ||
                  engine->wants_siblings() || engine->captures_subtrees();
    if (always) {
      always_dispatch_.push_back(idx);
    } else {
      for (util::Symbol s : engine->mentioned_symbols()) {
        if (static_cast<size_t>(s) >= by_symbol_.size()) {
          by_symbol_.resize(static_cast<size_t>(s) + 1);
        }
        by_symbol_[static_cast<size_t>(s)].push_back(idx);
      }
    }
    if (engine->wants_text() || engine->captures_subtrees()) {
      text_engines_.push_back(idx);
    }
  }
  stamps_.assign(engines_.size(), 0);
  stamp_ = 0;
  finalized_ = true;
}

void EngineFleet::AddSymbolTargets(util::Symbol symbol,
                                   std::string_view name) {
  util::Symbol s = symbol;
  if (s == util::kInvalidSymbol) {
    // Event source without interning (replay paths). A name the table has
    // never seen cannot be mentioned by any engine.
    s = util::SymbolTable::Global().Lookup(name);
  }
  if (s < 0 || static_cast<size_t>(s) >= by_symbol_.size()) return;
  for (int idx : by_symbol_[static_cast<size_t>(s)]) Deliver(idx);
}

void EngineFleet::StartDocument() {
  Finalize();
  cursor_.Reset();
  depth_ = 0;
  engines_skipped_document_ = 0;
  // The memo holds an inert-filtered candidate set; inertness resets per
  // document, so a stale memo would under-deliver.
  memo_valid_ = false;
  BreakRun();
  // Resolved per document, so a registry cleared between documents is
  // never written through a stale pointer.
  run_length_hist_ = obs::Enabled()
                         ? obs::MetricsRegistry::Default().GetHistogram(
                               "xaos_dispatch_run_length")
                         : nullptr;
  if (matcher_ != nullptr) matcher_->StartDocument();
  for (XaosEngine* engine : engines_) engine->StartDocument();
}

namespace {

// Reads batch records through the accessors EngineFleet's per-kind
// dispatch bodies use (LiveEvent offers the same ones).
class BatchEventReader {
 public:
  BatchEventReader(const xml::EventBatch& batch,
                   std::vector<xml::AttributeView>* attr_scratch)
      : batch_(batch), attr_scratch_(attr_scratch) {}

  xml::BatchedEvent::Kind kind(size_t e) const { return event(e).kind; }
  util::Symbol symbol(size_t e) const { return event(e).symbol; }
  // Element name, character data, or the raw bytes of a SkipReport.
  std::string_view text(size_t e) const {
    return batch_.text_slice(event(e).text_offset, event(e).text_size);
  }
  uint32_t attr_count(size_t e) const { return event(e).attr_count; }
  util::Symbol attr_symbol(size_t e, uint32_t a) const {
    return attribute(e, a).symbol;
  }
  std::string_view attr_name(size_t e, uint32_t a) const {
    const xml::BatchedAttribute& attr = attribute(e, a);
    return batch_.text_slice(attr.name_offset, attr.name_size);
  }
  // Views over the batch's arena, rebuilt in the caller's scratch.
  xml::AttributeSpan attributes(size_t e) const {
    attr_scratch_->clear();
    for (uint32_t a = 0; a < attr_count(e); ++a) {
      const xml::BatchedAttribute& attr = attribute(e, a);
      attr_scratch_->push_back(xml::AttributeView{
          batch_.text_slice(attr.name_offset, attr.name_size),
          batch_.text_slice(attr.value_offset, attr.value_size),
          attr.symbol});
    }
    return xml::AttributeSpan(*attr_scratch_);
  }

 private:
  const xml::BatchedEvent& event(size_t e) const { return batch_.events()[e]; }
  const xml::BatchedAttribute& attribute(size_t e, uint32_t a) const {
    return batch_.attribute(event(e).attr_begin + a);
  }

  const xml::EventBatch& batch_;
  std::vector<xml::AttributeView>* attr_scratch_;
};

}  // namespace

void EngineFleet::ReplayRun(const xml::EventBatch& batch, size_t begin,
                            size_t end,
                            std::vector<xml::AttributeView>* attr_scratch) {
  const BatchEventReader events(batch, attr_scratch);
  for (size_t e = begin; e < end; ++e) {
    switch (events.kind(e)) {
      case xml::BatchedEvent::Kind::kStartElement:
        OnStartElement(events, e);
        break;
      case xml::BatchedEvent::Kind::kEndElement:
        OnEndElement(events, e);
        break;
      case xml::BatchedEvent::Kind::kCharacters:
        OnCharacters(events, e);
        break;
      case xml::BatchedEvent::Kind::kSkipSubtree: {
        xml::SkipReport report;
        std::memcpy(&report, events.text(e).data(), sizeof(report));
        SkipSubtree(report);
        break;
      }
      default:
        XAOS_CHECK(false) << "document boundary inside a replay run";
    }
  }
}

void EngineFleet::AbortDocument() {
  depth_ = 0;
  cursor_.Reset();
  memo_valid_ = false;
  BreakRun();
  if (matcher_ != nullptr) matcher_->AbortDocument();
  if (obs::Enabled()) {
    obs::MetricsRegistry::Default()
        .GetCounter("xaos_dispatch_engines_skipped_total")
        ->Increment(engines_skipped_document_);
  }
  engines_skipped_document_ = 0;
}

void EngineFleet::EndDocument() {
  memo_valid_ = false;
  BreakRun();
  if (matcher_ != nullptr) matcher_->EndDocument();
  for (XaosEngine* engine : engines_) {
    engine->EndDocument();
    // The engine only counted the elements it was shown; fold the filtered
    // ones in as discarded so per-document stats still describe the whole
    // document. (For engines that went inert mid-stream this also covers
    // the post-confirmation tail, same as before dispatch filtering.)
    uint64_t seen = engine->stats().elements_total;
    if (cursor_.elements_total() > seen) {
      engine->AccountSkippedElements(cursor_.elements_total() - seen);
    }
  }
  if (obs::Enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    registry.GetCounter("xaos_dispatch_engines_skipped_total")
        ->Increment(engines_skipped_document_);
    FoldSymbolsInterned(&registry);
  }
}

}  // namespace xaos::core
