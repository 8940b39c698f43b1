#include "xml/sax_parser.h"

#include <cstring>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "util/string_util.h"
#include "util/symbol_table.h"
#include "xml/entities.h"
#include "xml/event_batch.h"

namespace xaos::xml {
namespace {

// Longest markup introducer we must see in full before we can classify the
// construct: "<![CDATA[".
constexpr size_t kMaxIntroducer = 9;

// Forwards every event to the wrapped handler, charging the time spent
// inside it to Phase::kMatch. The parser subtracts this from each Feed's
// wall time to get the parse share (see ParserOptions::phase_timers).
class MatchTimingHandler : public ContentHandler {
 public:
  MatchTimingHandler(ContentHandler* inner, obs::PhaseTimers* timers)
      : inner_(inner), timers_(timers) {}

  void StartDocument() override { Timed([&] { inner_->StartDocument(); }); }
  void EndDocument() override { Timed([&] { inner_->EndDocument(); }); }
  void StartElement(const QName& name, AttributeSpan attributes) override {
    Timed([&] { inner_->StartElement(name, attributes); });
  }
  void EndElement(std::string_view name) override {
    Timed([&] { inner_->EndElement(name); });
  }
  void Characters(std::string_view text) override {
    Timed([&] { inner_->Characters(text); });
  }
  void Comment(std::string_view text) override {
    Timed([&] { inner_->Comment(text); });
  }
  void ProcessingInstruction(std::string_view target,
                             std::string_view data) override {
    Timed([&] { inner_->ProcessingInstruction(target, data); });
  }
  void SkippedSubtree(const SkipReport& report) override {
    Timed([&] { inner_->SkippedSubtree(report); });
  }

 private:
  template <typename Fn>
  void Timed(Fn&& fn) {
    uint64_t start = obs::NowNs();
    fn();
    timers_->Add(obs::Phase::kMatch, obs::NowNs() - start);
  }

  ContentHandler* inner_;
  obs::PhaseTimers* timers_;
};

// Name-character membership tables: ScanName runs for every element and
// attribute name, so the per-byte test is one indexed load instead of a
// chain of range compares.
struct NameCharTable {
  bool start[256];
  bool part[256];
};

constexpr NameCharTable MakeNameCharTable() {
  NameCharTable t{};
  for (unsigned c = 0; c < 256; ++c) {
    const bool start = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':' || c >= 0x80;
    t.start[c] = start;
    t.part[c] =
        start || (c >= '0' && c <= '9') || c == '-' || c == '.';
  }
  return t;
}

constexpr NameCharTable kNameChars = MakeNameCharTable();

uint64_t Load8(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Load4(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Offset of the first '&' in `text` whose reference more input could still
// change: no ';' follows it and it is closer to the end than the decoder's
// window (kMaxReferenceBodyBytes + 1 bytes). text.size() if there is none.
// Holding back from there means the decoder sees each reference's bytes
// exactly as the complete document would show them, under any chunking.
size_t HeldReferenceStart(std::string_view text) {
  constexpr size_t kWindow = kMaxReferenceBodyBytes + 1;
  size_t lo = text.size() > kWindow ? text.size() - kWindow : 0;
  const size_t semi = text.substr(lo).rfind(';');
  if (semi != std::string_view::npos) lo += semi + 1;
  const size_t amp = text.find('&', lo);
  return amp == std::string_view::npos ? text.size() : amp;
}

}  // namespace

// Delivers each event through the handler's virtual callbacks. Attributes
// are staged as views (into buffer_ or a decode slot) until StartElement.
class SaxParser::CallbackEmitter {
 public:
  explicit CallbackEmitter(SaxParser* parser)
      : parser_(parser), handler_(parser->handler_) {}

  void Characters(std::string_view text) { handler_->Characters(text); }
  void EndElement(std::string_view name) { handler_->EndElement(name); }
  void SkippedSubtree(const SkipReport& report) {
    handler_->SkippedSubtree(report);
  }

  void OpenStartElement(std::string_view) {
    parser_->attributes_.clear();
    decode_used_ = 0;
  }
  bool HasAttribute(util::Symbol symbol) const {
    for (const AttributeView& existing : parser_->attributes_) {
      if (existing.symbol == symbol) return true;
    }
    return false;
  }
  // Each decoded value keeps its own slot until StartElement returns.
  std::string* DecodeSlot() { return parser_->DecodeSlot(decode_used_++); }
  void AddAttribute(std::string_view name, std::string_view value,
                    util::Symbol symbol) {
    parser_->attributes_.push_back({name, value, symbol});
  }
  void DiscardStartElement() {}
  void CloseStartElement(std::string_view name, util::Symbol symbol) {
    handler_->StartElement(QName(name, symbol),
                           AttributeSpan(parser_->attributes_));
  }

 private:
  SaxParser* parser_;
  ContentHandler* handler_;
  size_t decode_used_ = 0;
};

// Appends element, text and skip records straight into the current batch of
// the handler's EventBatcher, with the same payload rule and publish checks
// as EventBatcher's own callbacks. Attributes are written as records while
// they are validated; a start tag that fails validation is discarded.
class SaxParser::RecordEmitter {
 public:
  explicit RecordEmitter(SaxParser* parser)
      : parser_(parser), batcher_(parser->batcher_) {}

  void Characters(std::string_view text) {
    batcher_->batch()->AddCharacters(text, !batcher_->lean_payload());
    batcher_->EventAdded();
  }
  void EndElement(std::string_view name) {
    batcher_->batch()->AddEndElement(name, !batcher_->lean_payload());
    batcher_->EventAdded();
  }
  void SkippedSubtree(const SkipReport& report) {
    batcher_->batch()->AddSkipSubtree(report);
    batcher_->EventAdded();
  }

  void OpenStartElement(std::string_view name) {
    batch_ = batcher_->batch();
    open_ = batch_->OpenStartElement(name);
  }
  bool HasAttribute(util::Symbol symbol) const {
    return batch_->HasAttribute(open_, symbol);
  }
  // The record copies the value at once, so one slot serves every value.
  std::string* DecodeSlot() { return parser_->DecodeSlot(0); }
  void AddAttribute(std::string_view name, std::string_view value,
                    util::Symbol symbol) {
    batch_->AddAttribute(name, value, symbol);
  }
  void DiscardStartElement() { batch_->DiscardStartElement(open_); }
  void CloseStartElement(std::string_view, util::Symbol symbol) {
    batch_->CloseStartElement(open_, symbol);
    batcher_->EventAdded();
  }

 private:
  SaxParser* parser_;
  EventBatcher* batcher_;
  EventBatch* batch_ = nullptr;
  EventBatch::OpenElement open_;
};

SaxParser::SaxParser(ContentHandler* handler, ParserOptions options)
    : handler_(handler), options_(options) {
  if (options_.scanner_backend.has_value()) {
    scanner_.SetBackend(*options_.scanner_backend);
  }
  if (options_.phase_timers != nullptr) {
    timing_wrapper_ =
        std::make_unique<MatchTimingHandler>(handler, options_.phase_timers);
    handler_ = timing_wrapper_.get();
  }
  // The timing wrapper exposes no batcher: timed parses keep callbacks.
  batcher_ = handler_->batcher();
  projection_filter_ = options_.projection_filter;
  if (projection_filter_ != nullptr &&
      (!options_.coalesce_text || options_.report_comments ||
       options_.report_processing_instructions)) {
    // Skipping cannot reproduce these event streams exactly (see
    // ParserOptions::projection_filter); fall back to a full parse.
    projection_filter_ = nullptr;
    if (obs::Enabled()) {
      obs::MetricsRegistry::Default()
          .GetCounter("xaos_projection_disabled_total")
          ->Increment();
    }
  }
}

template <typename Fn>
SaxParser::Progress SaxParser::WithEmitter(Fn&& fn) {
  if (batcher_ != nullptr) {
    RecordEmitter emit(this);
    return fn(emit);
  }
  CallbackEmitter emit(this);
  return fn(emit);
}

bool SaxParser::IsWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

bool SaxParser::IsNameStartChar(unsigned char c) {
  return kNameChars.start[c];
}

bool SaxParser::IsNameChar(unsigned char c) {
  return kNameChars.part[c];
}

SaxParser::NameKey* SaxParser::ThreadNameCache() {
  // Trivially destructible, so the thread_local needs no exit-time
  // registration; line-aligned, so each set is one cache line.
  alignas(64) thread_local NameKey slots[2 * kNameCacheSets];
  return slots;
}

SaxParser::NameKey SaxParser::KeyOf(std::string_view name) {
  const char* p = name.data();
  const size_t n = name.size();
  NameKey key;
  key.len = static_cast<uint32_t>(n);
  if (n >= 8) {
    // [0, 8) and [n - 8, n) cover up to 16 bytes; [8, 16) the rest of 24.
    key.head = Load8(p);
    key.tail = Load8(p + n - 8);
    if (n > 16) key.mid = Load8(p + 8);
  } else if (n >= 4) {
    key.head = Load4(p) | Load4(p + n - 4) << 32;
  } else if (n > 0) {
    key.head = static_cast<uint64_t>(static_cast<unsigned char>(p[0])) |
               static_cast<uint64_t>(static_cast<unsigned char>(p[n / 2]))
                   << 8 |
               static_cast<uint64_t>(static_cast<unsigned char>(p[n - 1]))
                   << 16;
  }
  return key;
}

util::Symbol SaxParser::InternName(std::string_view name,
                                   const NameKey& key) {
  if (name.size() > kNameKeyBytes) {
    return util::SymbolTable::Global().Intern(name);
  }
  // The two ways of a set are probed most-recent first.
  // (The shift keeps head and tail from cancelling for 8-byte names.)
  const uint64_t hash = ((key.head ^ (key.tail >> 5) ^ key.mid ^ key.len) *
                         0x9e3779b97f4a7c15ull) >>
                        56;
  NameKey* set = name_cache_ + 2 * (hash & (kNameCacheSets - 1));
  if (set[0].SameName(key)) return set[0].symbol;
  if (set[1].SameName(key)) return set[1].symbol;
  set[1] = set[0];
  set[0] = key;
  set[0].symbol = util::SymbolTable::Global().Intern(name);
  return set[0].symbol;
}

size_t SaxParser::ScanName(std::string_view s, size_t i) {
  const char* d = s.data();
  if (i >= s.size() || !kNameChars.start[static_cast<unsigned char>(d[i])]) {
    return 0;
  }
  // Four independent table loads per step, then the byte-wise tail.
  const auto part = [d](size_t k) {
    return kNameChars.part[static_cast<unsigned char>(d[k])];
  };
  size_t n = i + 1;
  while (n + 4 <= s.size() && (part(n) & part(n + 1) & part(n + 2) &
                               part(n + 3))) {
    n += 4;
  }
  while (n < s.size() && part(n)) ++n;
  return n - i;
}

std::string* SaxParser::DecodeSlot(size_t i) {
  if (i == attr_decode_slots_.size()) attr_decode_slots_.emplace_back();
  std::string* slot = &attr_decode_slots_[i];
  slot->clear();
  return slot;
}

void SaxParser::Consume(size_t n) {
  // Jump newline to newline with memchr instead of classifying every byte;
  // only the tail after the last newline contributes to the column.
  const char* p = buffer_.data() + pos_;
  size_t remaining = n;
  while (remaining > 0) {
    const char* nl = static_cast<const char*>(std::memchr(p, '\n', remaining));
    if (nl == nullptr) {
      column_ += static_cast<int>(remaining);
      break;
    }
    ++line_;
    column_ = 1;
    remaining -= static_cast<size_t>(nl - p) + 1;
    p = nl + 1;
  }
  pos_ += n;
  seen_any_content_ = true;
}

void SaxParser::ConsumeCounted(size_t n, uint32_t newlines, size_t last_nl) {
  // The structural scan already counted the span's newlines; fold them in
  // without re-reading a single byte.
  if (newlines > 0) {
    line_ += static_cast<int>(newlines);
    column_ = static_cast<int>(n - last_nl);
  } else {
    column_ += static_cast<int>(n);
  }
  pos_ += n;
  seen_any_content_ = true;
}

void SaxParser::MaterializeTextView() {
  if (!text_in_view_) return;
  text_accum_.assign(text_view_.data(), text_view_.size());
  text_in_view_ = false;
  text_view_ = {};
}

SaxParser::Progress SaxParser::Fail(std::string message) {
  return FailWith(StatusCode::kParseError, std::move(message));
}

SaxParser::Progress SaxParser::FailLimit(std::string message) {
  return FailWith(StatusCode::kResourceExhausted, std::move(message));
}

SaxParser::Progress SaxParser::FailWith(StatusCode code, std::string message) {
  error_ = Status(code, message + " at line " + std::to_string(line_) +
                            ", column " + std::to_string(column_));
  if (obs::Enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    if (code == StatusCode::kResourceExhausted) {
      registry.GetCounter("xaos_limit_rejections_total")->Increment();
    }
    registry.GetCounter("xaos_parse_errors_total")->Increment();
  }
  return Progress::kError;
}

SaxParser::Progress SaxParser::FailAt(size_t offset, StatusCode code,
                                      std::string message) {
  // The parser is poisoned from here on, so advancing the position to the
  // offending byte costs nothing but the newline walk.
  Consume(offset);
  return FailWith(code, std::move(message));
}

Status SaxParser::Feed(std::string_view chunk) {
  if (!error_.ok()) return error_;
  if (finished_) {
    return InvalidArgumentError("Feed() after Finish()");
  }
  // Phase split: everything in this call is parse time except what the
  // timing wrapper attributes to the match phase meanwhile.
  uint64_t start = 0, match_before = 0;
  obs::PhaseTimers* timers = options_.phase_timers;
  if (timers != nullptr) {
    start = obs::NowNs();
    match_before = timers->Ns(obs::Phase::kMatch);
  }
  obs::flight::ScopedSpan feed_span(obs::flight::SpanKind::kParse);
  if (feed_span.active()) {
    feed_span.span()->value = static_cast<int64_t>(chunk.size());
  }
  bytes_fed_ += chunk.size();
  const ParserLimits& limits = options_.limits;
  if (limits.max_total_bytes > 0 && bytes_fed_ > limits.max_total_bytes) {
    FailLimit("document exceeds " + std::to_string(limits.max_total_bytes) +
              " bytes");
    return error_;
  }
  name_cache_ = ThreadNameCache();
  if (!started_document_) {
    started_document_ = true;
    handler_->StartDocument();
  }
  // Compacting/growing buffer_ invalidates any zero-copy pending-text view
  // into it (copy the view out first).
  MaterializeTextView();
  // Compact the consumed prefix before growing the buffer, in whole blocks
  // so the scanner's mask array only shifts.
  if (pos_ >= kScannerBlockBytes) {
    const size_t blocks = pos_ / kScannerBlockBytes;
    buffer_.erase(0, blocks * kScannerBlockBytes);
    pos_ -= blocks * kScannerBlockBytes;
    scanner_.DropBlocks(blocks);
  }
  buffer_.append(chunk.data(), chunk.size());
  Progress p = WithEmitter([this](auto& emit) { return Pump(emit); });
  // Whatever Pump left unconsumed is one incomplete token (plus a few
  // held-back text bytes); bound it so a stream that never closes a
  // construct cannot grow the buffer without limit.
  if (p != Progress::kError && limits.max_token_bytes > 0 &&
      buffer_.size() - pos_ > limits.max_token_bytes) {
    p = FailLimit("unterminated token exceeds " +
                  std::to_string(limits.max_token_bytes) + " bytes");
  }
  if (timers != nullptr) {
    uint64_t total = obs::NowNs() - start;
    uint64_t match = timers->Ns(obs::Phase::kMatch) - match_before;
    timers->Add(obs::Phase::kParse, total > match ? total - match : 0);
  }
  if (p == Progress::kError) return error_;
  return Status::Ok();
}

Status SaxParser::Finish() {
  if (!error_.ok()) return error_;
  if (finished_) return Status::Ok();
  name_cache_ = ThreadNameCache();
  if (!started_document_) {
    started_document_ = true;
    handler_->StartDocument();
  }
  finished_ = true;
  if (skip_active_) {
    Fail("unexpected end of document inside a skipped subtree");
    return error_;
  }
  if (pos_ < buffer_.size()) {
    // Leftover input that Pump() could not complete. Either it is trailing
    // text (legal only if whitespace at top level) or an unterminated token.
    std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
    if (rest.find('<') == std::string_view::npos &&
        rest.find('&') == std::string_view::npos) {
      const TextFacts facts =
          scanner_.ScanText(buffer_.data(), buffer_.size(), pos_);
      Progress p = WithEmitter([&](auto& emit) {
        return AppendTextPiece(emit, 0, rest, rest.size(), /*decode=*/false,
                               facts);
      });
      if (p == Progress::kError) return error_;
      ConsumeCounted(rest.size(), facts.newlines, facts.last_nl);
    } else {
      Fail("unexpected end of document inside markup");
      return error_;
    }
  }
  if (text_pending_) {
    if (!text_all_ws_) {
      Fail("character data outside the document element");
      return error_;
    }
    text_pending_ = false;
    text_in_view_ = false;
    text_view_ = {};
    text_accum_.clear();
    text_all_ws_ = true;
  }
  if (!open_.empty()) {
    Fail("unexpected end of document: unclosed element <" +
         std::string(TopOpenName()) + ">");
    return error_;
  }
  if (!seen_root_) {
    Fail("document has no root element");
    return error_;
  }
  uint64_t start = 0, match_before = 0;
  obs::PhaseTimers* timers = options_.phase_timers;
  if (timers != nullptr) {
    start = obs::NowNs();
    match_before = timers->Ns(obs::Phase::kMatch);
  }
  handler_->EndDocument();
  if (timers != nullptr) {
    uint64_t total = obs::NowNs() - start;
    uint64_t match = timers->Ns(obs::Phase::kMatch) - match_before;
    timers->Add(obs::Phase::kParse, total > match ? total - match : 0);
  }
  // Once per document, fold the parser's counters into the process-wide
  // registry; free when metrics are off.
  if (obs::Enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    registry.GetCounter("xaos_parser_documents_total")->Increment();
    registry.GetCounter("xaos_parser_bytes_total")->Increment(bytes_fed_);
    registry.GetCounter("xaos_parser_elements_total")
        ->Increment(element_count_);
    registry.GetCounter("xaos_parser_text_events_total")
        ->Increment(text_event_count_);
    registry.GetCounter("xaos_scanner_bytes_classified_total")
        ->Increment(scanner_.TakeBytesClassified());
    registry
        .GetGauge(std::string("xaos_scanner_backend{backend=\"") +
                  ScannerBackendName(scanner_.backend()) + "\"}")
        ->Set(1);
  }
  return Status::Ok();
}

template <typename Emit>
void SaxParser::EmitPendingTextSlow(Emit& emit) {
  text_pending_ = false;
  std::string_view text =
      text_in_view_ ? text_view_ : std::string_view(text_accum_);
  if (!text.empty() &&
      (options_.report_whitespace_text || !text_all_ws_)) {
    ++text_event_count_;
    emit.Characters(text);
  }
  text_in_view_ = false;
  text_view_ = {};
  text_accum_.clear();
  text_all_ws_ = true;
}

template <typename Emit>
SaxParser::Progress SaxParser::AppendTextPiece(Emit& emit, size_t at,
                                               std::string_view text,
                                               size_t len, bool decode,
                                               const TextFacts& facts) {
  const std::string_view raw(text.data(), len);
  if (open_.empty() && !facts.all_ws) {
    size_t first = 0;
    while (IsWhitespace(raw[first])) ++first;
    return FailAt(at + first, StatusCode::kParseError,
                  seen_root_ ? "character data after the document element"
                             : "character data before the document element");
  }
  // The first offending construct in document order decides the error, at
  // its own position: a literal "]]>" (XML 1.0 §2.4: only the CDATA-end
  // scanner may consume it), a C0 control other than tab/LF/CR (excluded
  // by the Char production even inside CDATA, as decoded character
  // references always were), or a malformed reference — decoded below up
  // to the first of the other two.
  size_t bad = len;
  const char* what = nullptr;
  if (decode && facts.has_rbracket) {
    const size_t cdata_end = text.find("]]>");
    if (cdata_end < bad) {
      bad = cdata_end;
      what = "']]>' in character data";
    }
  }
  if (facts.has_ctl) {
    const size_t ctl = FindForbiddenControlByte(raw.substr(0, bad));
    if (ctl != std::string_view::npos) {
      bad = ctl;
      what = "control character in character data";
    }
  }
  if (decode && facts.has_amp) {
    // References may decode to whitespace (&#32;) or not (&amp;); only the
    // decoded bytes decide.
    MaterializeTextView();
    const size_t decoded_from = text_accum_.size();
    size_t error_offset = 0;
    Status s = AppendDecodedReferences(
        text, bad, &text_accum_, &entity_references_,
        options_.limits.max_entity_references, &error_offset);
    if (!s.ok()) {
      return FailAt(at + error_offset, s.code(), std::string(s.message()));
    }
    text_all_ws_ =
        text_all_ws_ &&
        IsAllXmlWhitespace(std::string_view(text_accum_).substr(decoded_from));
  } else if (what == nullptr) {
    if (!text_pending_) {
      // First (and in the common case only) piece of the run: keep it as a
      // view into buffer_ and skip the copy entirely.
      text_view_ = raw;
      text_in_view_ = true;
      text_all_ws_ = facts.all_ws;
    } else {
      MaterializeTextView();
      text_accum_.append(raw.data(), raw.size());
      text_all_ws_ = text_all_ws_ && facts.all_ws;
    }
  }
  if (what != nullptr) {
    return FailAt(at + bad, StatusCode::kParseError, what);
  }
  text_pending_ = true;
  if (!options_.coalesce_text) EmitPendingText(emit);
  return Progress::kOk;
}

template <typename Emit>
SaxParser::Progress SaxParser::Pump(Emit& emit) {
  while (pos_ < buffer_.size()) {
    Progress p = skip_active_              ? PumpSkip(emit)
                 : (buffer_[pos_] == '<') ? ParseMarkup(emit)
                                          : ParseText(emit);
    if (p != Progress::kOk) {
      return p == Progress::kNeedMore ? Progress::kOk : p;
    }
  }
  return Progress::kOk;
}

template <typename Emit>
SaxParser::Progress SaxParser::PumpSkip(Emit& emit) {
  size_t consumed = 0;
  SkipScanner::State state =
      skip_scanner_.Scan(scanner_, buffer_, pos_, &consumed);
  // Consume before reporting an error so line/column point at the
  // offending construct, as they do in normal parse mode.
  if (consumed > 0) Consume(consumed);
  switch (state) {
    case SkipScanner::State::kScanning:
      return Progress::kNeedMore;
    case SkipScanner::State::kDone:
      skip_active_ = false;
      return DeliverSkip(emit, skip_scanner_.report());
    case SkipScanner::State::kError:
      return skip_scanner_.limit_error()
                 ? FailLimit(skip_scanner_.error_message())
                 : Fail(skip_scanner_.error_message());
  }
  return Progress::kError;  // unreachable
}

template <typename Emit>
SaxParser::Progress SaxParser::DeliverSkip(Emit& emit,
                                           const SkipReport& report) {
  if (open_.empty()) seen_root_ = true;
  if (obs::Enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    registry.GetCounter("xaos_projection_subtrees_skipped_total")
        ->Increment();
    registry.GetCounter("xaos_projection_bytes_skipped_total")
        ->Increment(report.bytes);
  }
  if (obs::flight::Active()) {
    obs::flight::Span span;
    span.kind = obs::flight::SpanKind::kSkipScan;
    span.end_ns = obs::NowNs();
    // A self-closing skip never armed the scanner; render it as a point.
    span.begin_ns = skip_begin_ns_ != 0 ? skip_begin_ns_ : span.end_ns;
    span.value = static_cast<int64_t>(report.bytes);
    span.value2 = static_cast<int64_t>(report.elements);
    obs::flight::Emit(span);
  }
  skip_begin_ns_ = 0;
  emit.SkippedSubtree(report);
  return Progress::kOk;
}

template <typename Emit>
SaxParser::Progress SaxParser::ParseText(Emit& emit) {
  // One classification pass answers every question this function used to
  // make separate passes for: run end, '&', ']', control bytes,
  // whitespace-ness, newline accounting.
  TextFacts facts = scanner_.ScanText(buffer_.data(), buffer_.size(), pos_);
  const bool saw_lt = facts.first_lt != std::string_view::npos;
  std::string_view text(buffer_.data() + pos_,
                        saw_lt ? facts.first_lt : buffer_.size() - pos_);
  size_t len = text.size();
  if (!saw_lt) {
    // No markup yet. Hold back a trailing reference the next chunk could
    // still complete; everything before it can be emitted. An overlong
    // reference is not held back — the decode rejects it now instead of
    // buffering an unbounded '&'-payload.
    if (facts.has_amp) len = HeldReferenceStart(text);
    // Likewise hold back a trailing "]" / "]]" so a "]]>" split across
    // chunks is still caught on the next Feed. Two brackets suffice: any
    // "]]>" ends with exactly these.
    if (facts.has_rbracket) {
      size_t trail = 0;
      while (trail < 2 && trail < len && text[len - 1 - trail] == ']') {
        ++trail;
      }
      len -= trail;
    }
    if (len == 0) return Progress::kNeedMore;
    // The facts described the untrimmed span; rescan the (chunk-boundary,
    // so cold) trimmed remainder, keeping the buffer's block grid.
    if (len != text.size()) {
      facts = scanner_.ScanText(buffer_.data(), pos_ + len, pos_);
    }
  }
  if (AppendTextPiece(emit, 0, text, len, /*decode=*/true, facts) ==
      Progress::kError) {
    return Progress::kError;
  }
  ConsumeCounted(len, facts.newlines, facts.last_nl);
  return saw_lt ? Progress::kOk : Progress::kNeedMore;
}

template <typename Emit>
SaxParser::Progress SaxParser::ParseMarkup(Emit& emit) {
  std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
  // Wait for enough characters to classify the construct unambiguously.
  if (rest.size() < 2) return Progress::kNeedMore;
  if (rest[1] == '/') {
    // End tags cannot contain quoted values, so the raw '>' mask answers
    // directly — and the block is almost always already classified (the
    // text scan that found this '<' touched it).
    size_t gt = scanner_.NextGt(buffer_.data(), buffer_.size(), pos_ + 2);
    if (gt == std::string_view::npos) return Progress::kNeedMore;
    return ParseEndTag(emit, gt + 2);
  }
  if (rest[1] == '?') return ParsePi(emit);
  if (rest[1] == '!') {
    if (rest.size() < kMaxIntroducer &&
        (StartsWith(std::string_view("<!--").substr(0, rest.size()), rest) ||
         StartsWith(std::string_view("<![CDATA[").substr(0, rest.size()),
                    rest) ||
         StartsWith(std::string_view("<!DOCTYPE").substr(0, rest.size()),
                    rest))) {
      return Progress::kNeedMore;
    }
    if (StartsWith(rest, "<!--")) return ParseComment(emit);
    if (StartsWith(rest, "<![CDATA[")) return ParseCData(emit);
    if (StartsWith(rest, "<!DOCTYPE")) return ParseDoctype();
    return Fail("unsupported markup declaration");
  }
  // Start tag: one structural scan over the body finds the quote-aware '>'
  // and, in the same pass, counts quoted attribute values and newlines.
  // Deferred mode: a stray '<' fails only once a '>' confirms the tag was
  // malformed rather than merely incomplete (the historic contract).
  TagScan scan = scanner_.ScanTag(buffer_.data(), buffer_.size(), pos_ + 1,
                                  /*immediate_lt=*/false);
  if (scan.kind == TagScan::Kind::kNeedMore) return Progress::kNeedMore;
  if (scan.kind == TagScan::Kind::kBadLt) return Fail("'<' inside tag");
  size_t end = 1 + scan.end;
  bool self_closing = end >= 2 && rest[end - 1] == '/';
  return ParseStartTag(emit, end, self_closing, scan);
}

template <typename Emit>
SaxParser::Progress SaxParser::ParseStartTag(Emit& emit, size_t tag_end,
                                             bool self_closing,
                                             const TagScan& scan) {
  // rest[0] == '<', rest[tag_end] == '>'.
  std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
  std::string_view body(rest.data() + 1,
                        tag_end - 1 - (self_closing ? 1 : 0));

  const ParserLimits& limits = options_.limits;
  size_t name_len = ScanName(body, 0);
  if (name_len == 0) return Fail("invalid element name");
  if (name_len > limits.max_name_bytes) {
    return FailLimit("element name exceeds " +
                     std::to_string(limits.max_name_bytes) + " bytes");
  }
  std::string_view name(body.data(), name_len);

  if (open_.empty() && seen_root_) {
    return Fail("multiple document elements (second root <" +
                std::string(name) + ">)");
  }
  if (static_cast<int>(open_.size()) >= limits.max_depth) {
    return FailLimit("maximum element depth of " +
                     std::to_string(limits.max_depth) + " exceeded");
  }

  // The text before this tag is complete either way.
  EmitPendingText(emit);
  if (projection_filter_ != nullptr &&
      projection_filter_->ShouldSkipSubtree(name, open_.size())) {
    // The whole subtree is irrelevant: account for the start tag, then let
    // the skip scanner race to the matching end tag. The element is never
    // pushed onto the open-element stack and emits no events.
    SkipReport initial;
    initial.elements = 1;
    // The tag scan already paired the quotes; no re-scan of the body.
    initial.node_ids = 1 + scan.quoted_values;
    initial.bytes = tag_end + 1;
    ConsumeCounted(tag_end + 1, scan.newlines,
                   scan.newlines > 0 ? scan.last_nl + 1 : scan.last_nl);
    if (self_closing) return DeliverSkip(emit, initial);
    skip_scanner_.Begin(initial, open_.size(), limits.max_depth,
                        options_.report_whitespace_text);
    skip_active_ = true;
    if (obs::flight::Active()) skip_begin_ns_ = obs::NowNs();
    return Progress::kOk;
  }

  emit.OpenStartElement(name);
  if (name_len < body.size()) {
    if (ParseAttributes(emit, body, name_len) == Progress::kError) {
      emit.DiscardStartElement();
      return Progress::kError;
    }
  }
  NameKey key = KeyOf(name);
  key.symbol = InternName(name, key);
  emit.CloseStartElement(name, key.symbol);
  ++element_count_;
  if (self_closing) {
    emit.EndElement(name);
    if (open_.empty()) seen_root_ = true;
  } else {
    open_.push_back(key);
  }
  ConsumeCounted(tag_end + 1, scan.newlines,
                 scan.newlines > 0 ? scan.last_nl + 1 : scan.last_nl);
  return Progress::kOk;
}

template <typename Emit>
SaxParser::Progress SaxParser::ParseAttributes(Emit& emit,
                                               std::string_view body,
                                               size_t i) {
  // Raw names and values are views into `body` (and thus buffer_), which
  // stays put until the tag is consumed; decoded values live in the
  // emitter's decode slot.
  const ParserLimits& limits = options_.limits;
  size_t count = 0;
  while (true) {
    size_t ws = i;
    while (i < body.size() && IsWhitespace(body[i])) ++i;
    if (i >= body.size()) return Progress::kOk;
    if (i == ws) return Fail("expected whitespace before attribute");
    if (count >= limits.max_attribute_count) {
      return FailLimit("more than " +
                       std::to_string(limits.max_attribute_count) +
                       " attributes on one element");
    }
    size_t attr_len = ScanName(body, i);
    if (attr_len == 0) return Fail("invalid attribute name");
    if (attr_len > limits.max_name_bytes) {
      return FailLimit("attribute name exceeds " +
                       std::to_string(limits.max_name_bytes) + " bytes");
    }
    std::string_view attr_name(body.data() + i, attr_len);
    i += attr_len;
    while (i < body.size() && IsWhitespace(body[i])) ++i;
    if (i >= body.size() || body[i] != '=') {
      return Fail("expected '=' after attribute name '" +
                  std::string(attr_name) + "'");
    }
    ++i;
    while (i < body.size() && IsWhitespace(body[i])) ++i;
    if (i >= body.size() || (body[i] != '"' && body[i] != '\'')) {
      return Fail("attribute value must be quoted");
    }
    char quote = body[i];
    ++i;
    size_t value_end = body.find(quote, i);
    if (value_end == std::string_view::npos) {
      return Fail("unterminated attribute value");
    }
    std::string_view raw_value(body.data() + i, value_end - i);
    if (raw_value.size() > limits.max_attribute_value_bytes) {
      return FailLimit("attribute value exceeds " +
                       std::to_string(limits.max_attribute_value_bytes) +
                       " bytes");
    }
    // One classification pass replaces the three validation probes
    // ('<', forbidden control byte, '&').
    ValueFacts value_facts = scanner_.ScanValue(
        buffer_.data(), buffer_.size(),
        static_cast<size_t>(raw_value.data() - buffer_.data()),
        raw_value.size());
    if (value_facts.has_lt) {
      return Fail("'<' in attribute value");
    }
    if (value_facts.has_ctl) {
      return Fail("control character in attribute value");
    }
    std::string_view value = raw_value;
    if (value_facts.has_amp) {
      std::string* slot = emit.DecodeSlot();
      size_t error_offset = 0;
      Status s = AppendDecodedReferences(raw_value, raw_value.size(), slot,
                                         &entity_references_,
                                         limits.max_entity_references,
                                         &error_offset);
      if (!s.ok()) return FailWith(s.code(), std::string(s.message()));
      value = *slot;
    }
    util::Symbol attr_symbol = InternName(attr_name, KeyOf(attr_name));
    // Interned ids make uniqueness an integer compare (names are equal iff
    // their Symbols are).
    if (emit.HasAttribute(attr_symbol)) {
      return Fail("duplicate attribute '" + std::string(attr_name) + "'");
    }
    emit.AddAttribute(attr_name, value, attr_symbol);
    ++count;
    i = value_end + 1;
  }
}

template <typename Emit>
SaxParser::Progress SaxParser::ParseEndTag(Emit& emit, size_t tag_end) {
  std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
  std::string_view body(rest.data() + 2, tag_end - 2);
  // Fast path: the body is byte-identical to the open element's name — the
  // canonical well-formed shape. That name already passed Name syntax and
  // the length limit at its start tag, and a Name cannot contain newlines,
  // so one key compare replaces the per-byte name walk, the
  // trailing-whitespace check and the newline count. Any other shape
  // (trailing whitespace, mismatch, empty stack) falls through to the
  // validating path below.
  if (!open_.empty() && ClosesTop(body)) {
    EmitPendingText(emit);
    emit.EndElement(body);
    open_.pop_back();
    if (open_.empty()) seen_root_ = true;
    pos_ += tag_end + 1;
    column_ += static_cast<int>(tag_end) + 1;
    seen_any_content_ = true;
    return Progress::kOk;
  }
  size_t name_len = ScanName(body, 0);
  if (name_len == 0) return Fail("invalid end-tag name");
  if (name_len > options_.limits.max_name_bytes) {
    return FailLimit("element name exceeds " +
                     std::to_string(options_.limits.max_name_bytes) +
                     " bytes");
  }
  std::string_view name = body.substr(0, name_len);
  size_t i = name_len;
  while (i < body.size() && IsWhitespace(body[i])) ++i;
  if (i != body.size()) return Fail("junk in end tag");

  if (open_.empty()) {
    return Fail("end tag </" + std::string(name) + "> with no open element");
  }
  if (TopOpenName() != name) {
    return Fail("mismatched end tag: expected </" + std::string(TopOpenName()) +
                ">, found </" + std::string(name) + ">");
  }
  EmitPendingText(emit);
  emit.EndElement(name);
  open_.pop_back();
  if (open_.empty()) seen_root_ = true;
  Consume(tag_end + 1);
  return Progress::kOk;
}

template <typename Emit>
SaxParser::Progress SaxParser::ParseComment(Emit& emit) {
  std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
  size_t end = rest.find("-->", 4);
  if (end == std::string_view::npos) return Progress::kNeedMore;
  std::string_view text = rest.substr(4, end - 4);
  if (text.find("--") != std::string_view::npos) {
    return Fail("'--' inside comment");
  }
  if (!text.empty() && text.back() == '-') {
    return Fail("comment must not end with '-'");
  }
  if (options_.report_comments) {
    EmitPendingText(emit);
    handler_->Comment(text);
  }
  Consume(end + 3);
  return Progress::kOk;
}

template <typename Emit>
SaxParser::Progress SaxParser::ParseCData(Emit& emit) {
  std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
  size_t end = rest.find("]]>", 9);
  if (end == std::string_view::npos) return Progress::kNeedMore;
  if (open_.empty()) {
    return Fail("CDATA section outside the document element");
  }
  std::string_view text = rest.substr(9, end - 9);
  // CDATA content may legally contain '<', '&' and ']]' runs, so only the
  // control-byte and whitespace facts matter (and no decoding happens).
  const CDataFacts cdata = scanner_.ScanCData(text);
  TextFacts facts{};
  facts.has_ctl = cdata.has_ctl;
  facts.all_ws = cdata.all_ws;
  if (AppendTextPiece(emit, 9, text, text.size(), /*decode=*/false, facts) ==
      Progress::kError) {
    return Progress::kError;
  }
  Consume(end + 3);
  return Progress::kOk;
}

template <typename Emit>
SaxParser::Progress SaxParser::ParsePi(Emit& emit) {
  std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
  size_t end = rest.find("?>", 2);
  if (end == std::string_view::npos) return Progress::kNeedMore;
  std::string_view body = rest.substr(2, end - 2);
  size_t name_len = ScanName(body, 0);
  if (name_len == 0) return Fail("invalid processing-instruction target");
  if (name_len > options_.limits.max_name_bytes) {
    return FailLimit("processing-instruction target exceeds " +
                     std::to_string(options_.limits.max_name_bytes) +
                     " bytes");
  }
  std::string_view target = body.substr(0, name_len);
  std::string_view data = body.substr(name_len);
  while (!data.empty() && IsWhitespace(data.front())) data.remove_prefix(1);

  bool is_xml_decl = target.size() == 3 &&
                     (target[0] == 'x' || target[0] == 'X') &&
                     (target[1] == 'm' || target[1] == 'M') &&
                     (target[2] == 'l' || target[2] == 'L');
  if (is_xml_decl) {
    if (seen_any_content_) {
      return Fail("XML declaration not at start of document");
    }
  } else if (options_.report_processing_instructions) {
    EmitPendingText(emit);
    handler_->ProcessingInstruction(target, data);
  }
  Consume(end + 2);
  return Progress::kOk;
}

SaxParser::Progress SaxParser::ParseDoctype() {
  std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
  if (seen_root_ || !open_.empty()) {
    return Fail("DOCTYPE after the document element started");
  }
  // Skip to the matching '>' of the declaration, honoring the optional
  // internal subset in [...] and quoted literals.
  char quote = 0;
  int bracket_depth = 0;
  for (size_t i = 9; i < rest.size(); ++i) {
    char c = rest[i];
    if (quote != 0) {
      if (c == quote) quote = 0;
      continue;
    }
    switch (c) {
      case '"':
      case '\'':
        quote = c;
        break;
      case '[':
        ++bracket_depth;
        break;
      case ']':
        if (bracket_depth > 0) --bracket_depth;
        break;
      case '>':
        if (bracket_depth == 0) {
          Consume(i + 1);
          return Progress::kOk;
        }
        break;
      default:
        break;
    }
  }
  return Progress::kNeedMore;
}

Status ParseString(std::string_view document, ContentHandler* handler,
                   ParserOptions options) {
  SaxParser parser(handler, options);
  XAOS_RETURN_IF_ERROR(parser.Feed(document));
  return parser.Finish();
}

}  // namespace xaos::xml
