// A from-scratch streaming (push) XML parser.
//
// The parser accepts input in arbitrary chunks via Feed() and emits SAX-style
// events to a ContentHandler as soon as they are complete, so memory use is
// bounded by the largest single token (tag/comment/CDATA section), not the
// document size. This is the event source the χαoς engine consumes
// (paper Section 2.2, Figure 1).
//
// Supported: elements, attributes, character data, CDATA sections, comments,
// processing instructions, the XML declaration, a skipped DOCTYPE, the five
// predefined entities and numeric character references, and full
// well-formedness checking of everything above (tag balance, single root,
// attribute uniqueness and quoting, name syntax, illegal characters).
// Out of scope (reported as ParseError where encountered): external or
// internal DTD entity definitions beyond the predefined five.

#ifndef XAOS_XML_SAX_PARSER_H_
#define XAOS_XML_SAX_PARSER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/sax_event.h"
#include "xml/skip_scanner.h"
#include "xml/structural_scanner.h"

namespace xaos::obs {
class PhaseTimers;
}  // namespace xaos::obs

namespace xaos::xml {

// Resource-exhaustion guardrails for untrusted input. Every bound that a
// document exceeds fails the parse with StatusCode::kResourceExhausted
// (distinct from kParseError: the document may be well-formed, it just
// costs more than this deployment allows). Defaults are generous enough
// for any sane document; a service facing adversarial traffic should
// tighten them to its actual workload. A value of 0 disables the
// corresponding bound where noted.
struct ParserLimits {
  // Maximum open-element nesting depth.
  int max_depth = 20000;
  // Maximum attributes on one start tag.
  size_t max_attribute_count = 4096;
  // Maximum decoded size of one attribute value, in bytes.
  size_t max_attribute_value_bytes = 8u << 20;
  // Maximum length of one element/attribute/PI name, in bytes.
  size_t max_name_bytes = 64u << 10;
  // Maximum bytes buffered for one incomplete token (tag, comment, CDATA
  // section, DOCTYPE). Bounds parser memory: a stream that never closes a
  // construct is rejected instead of buffered forever. 0 = unlimited.
  size_t max_token_bytes = 256u << 20;
  // Total entity/character references decoded per document. 0 = unlimited.
  uint64_t max_entity_references = 0;
  // Total document size in bytes accepted through Feed(). 0 = unlimited.
  uint64_t max_total_bytes = 0;
};

struct ParserOptions {
  // Merge adjacent character runs (including across CDATA boundaries) into a
  // single Characters() call.
  bool coalesce_text = true;
  // Deliver character runs consisting solely of whitespace. Off by default:
  // the χαoς data model (paper Section 2.1) ignores inter-element whitespace.
  bool report_whitespace_text = false;
  // Deliver Comment() / ProcessingInstruction() events.
  bool report_comments = false;
  bool report_processing_instructions = false;
  // Guardrails against resource-exhausting input (see ParserLimits).
  ParserLimits limits;
  // Optional phase accounting (obs/timer.h): when set, time spent inside
  // handler callbacks is attributed to Phase::kMatch and the remainder of
  // each Feed()/Finish() to Phase::kParse, splitting the single streaming
  // pass into the paper's parse vs. match phases. Costs two clock reads per
  // delivered event; leave null (the default) for zero overhead.
  obs::PhaseTimers* phase_timers = nullptr;
  // Optional document projection (xml/skip_scanner.h): when set, each start
  // tag is offered to the filter, and a subtree it proves irrelevant is
  // skipped by a raw scanner — no attribute parsing, entity decoding or
  // events; the handler receives one SkippedSubtree() instead. Ignored
  // (with xaos_projection_disabled_total incremented) when combined with
  // options it cannot preserve exactly: coalesce_text off (node-id
  // assignment would become chunk-dependent) or reported comments/PIs
  // (their events would be lost inside skips). Must outlive the parser.
  ProjectionFilter* projection_filter = nullptr;
  // Structural-scanner kernel for this parser (skips included). Unset
  // (the default) uses the process-wide DefaultScannerBackend(), i.e. the
  // XAOS_SCANNER override or the best the CPU supports. Every backend
  // produces byte-identical events and error positions; this exists for
  // benchmarking, CI pinning and differential tests.
  std::optional<ScannerBackend> scanner_backend;
};

// Incremental push parser. Typical use:
//
//   MyHandler handler;
//   SaxParser parser(&handler);
//   while (ReadChunk(&chunk)) {
//     XAOS_RETURN_IF_ERROR(parser.Feed(chunk));
//   }
//   XAOS_RETURN_IF_ERROR(parser.Finish());
//
// After the first error the parser is poisoned: further calls return the
// same error. The handler pointer must outlive the parser.
//
// Fused front end: when the handler exposes an EventBatcher
// (ContentHandler::batcher — EventBatcher itself, core::BatchedDispatcher,
// core::ParallelFleet) and no phase timers are set, the parser appends the
// element, text and skip records straight into that batcher's current
// batch instead of calling the handler; the batches are byte-identical to
// what the callbacks would have captured. Every other handler gets exact
// per-event callbacks.
class SaxParser {
 public:
  explicit SaxParser(ContentHandler* handler, ParserOptions options = {});

  SaxParser(const SaxParser&) = delete;
  SaxParser& operator=(const SaxParser&) = delete;

  // Consumes the next chunk of document text.
  Status Feed(std::string_view chunk);

  // Signals end of input; verifies the document is complete and emits
  // EndDocument().
  Status Finish();

  // 1-based position of the next unconsumed input character; used in error
  // messages.
  int line() const { return line_; }
  int column() const { return column_; }

  // Number of start-element events emitted so far.
  uint64_t element_count() const { return element_count_; }

  // Bytes accepted through Feed() so far.
  uint64_t bytes_fed() const { return bytes_fed_; }

 private:
  enum class Progress { kOk, kNeedMore, kError };

  // The two event emitters every parse routine below is instantiated with
  // (defined in sax_parser.cc): CallbackEmitter delivers each event through
  // the handler's virtual callbacks; RecordEmitter appends element, text
  // and skip records straight into the EventBatcher the handler exposes
  // (ContentHandler::batcher). The routines exist once; the emitter is a
  // compile-time choice made once per Feed()/Finish().
  class CallbackEmitter;
  class RecordEmitter;
  template <typename Fn>
  Progress WithEmitter(Fn&& fn);

  template <typename Emit>
  Progress Pump(Emit& emit);            // parse as much of buffer_ as possible
  template <typename Emit>
  Progress ParseText(Emit& emit);       // content until '<'
  template <typename Emit>
  Progress ParseMarkup(Emit& emit);     // dispatch on "<...": tag/comment/...
  // `scan` is the structural scan of the tag body (rest[1..tag_end)); it
  // carries the quoted-value count and newline accounting for the tag.
  template <typename Emit>
  Progress ParseStartTag(Emit& emit, size_t tag_end, bool self_closing,
                         const TagScan& scan);
  // Validates the attributes of a start-tag body from offset `i` (just
  // past the element name) and hands each one to the emitter.
  template <typename Emit>
  Progress ParseAttributes(Emit& emit, std::string_view body, size_t i);
  template <typename Emit>
  Progress ParseEndTag(Emit& emit, size_t tag_end);
  template <typename Emit>
  Progress ParseComment(Emit& emit);
  template <typename Emit>
  Progress ParseCData(Emit& emit);
  template <typename Emit>
  Progress ParsePi(Emit& emit);
  Progress ParseDoctype();
  template <typename Emit>
  Progress PumpSkip(Emit& emit);        // advance an active subtree skip
  // Completes a skip: updates projection counters, marks the root seen when
  // the skipped subtree was the document element, and emits the report.
  template <typename Emit>
  Progress DeliverSkip(Emit& emit, const SkipReport& report);

  // Record a well-formedness error (kParseError) / a limit rejection
  // (kResourceExhausted); both poison the parser and return kError.
  Progress Fail(std::string message);
  Progress FailLimit(std::string message);
  Progress FailWith(StatusCode code, std::string message);
  // FailWith, positioned `offset` bytes past pos_ (the offending byte).
  Progress FailAt(size_t offset, StatusCode code, std::string message);
  // Flush pending text to the emitter. Called once per markup event, and
  // usually with nothing pending — the guard stays inline.
  template <typename Emit>
  void EmitPendingText(Emit& emit) {
    if (text_pending_) EmitPendingTextSlow(emit);
  }
  template <typename Emit>
  void EmitPendingTextSlow(Emit& emit);
  // Appends one character-data piece, text[0, len), to the pending run.
  // The piece starts `at` bytes past pos_; `text` may extend past the
  // piece (to the bytes already buffered) so a reference that starts
  // inside the piece decodes as the whole document would decode it.
  // `facts` come from a structural scan of the piece. Reports the first
  // offending construct in document order at its own position.
  template <typename Emit>
  Progress AppendTextPiece(Emit& emit, size_t at, std::string_view text,
                           size_t len, bool decode, const TextFacts& facts);
  // Copies a zero-copy pending-text view into text_accum_. Must run before
  // anything mutates buffer_ (the view points into it).
  void MaterializeTextView();
  void Consume(size_t n);               // advance pos_, track line/column
  // Consume() with the newline accounting precomputed by a structural scan
  // of the consumed span: `newlines` '\n's, the last at offset `last_nl`.
  void ConsumeCounted(size_t n, uint32_t newlines, size_t last_nl);
  // Reused decode buffer `i` for attribute values with references.
  std::string* DecodeSlot(size_t i);

  // Validating helpers.
  static bool IsNameStartChar(unsigned char c);
  static bool IsNameChar(unsigned char c);
  static bool IsWhitespace(char c);
  // Parses a Name starting at `i` within `s`; returns its length or 0.
  static size_t ScanName(std::string_view s, size_t i);

  // A fixed-width identity of a name, built from constant-size loads (no
  // memcmp, no byte loop): for names of at most kNameKeyBytes bytes two
  // names are equal iff their keys are; longer names share a key only as
  // a first filter. The key also carries the name's Symbol where one is
  // known (open elements, name-cache slots); it is not part of the
  // identity. 32 bytes, so the two ways of a cache set fill one line.
  struct NameKey {
    uint64_t head = 0;
    uint64_t mid = 0;
    uint64_t tail = 0;
    uint32_t len = 0;
    util::Symbol symbol = util::kInvalidSymbol;
    bool SameName(const NameKey& other) const {
      return ((head ^ other.head) | (mid ^ other.mid) | (tail ^ other.tail) |
              (len ^ other.len)) == 0;
    }
  };
  static constexpr size_t kNameKeyBytes = 24;
  static NameKey KeyOf(std::string_view name);

  // The open-element stack holds each element's key with its Symbol: the
  // end-tag check compares keys, and the Symbol recovers the spelling for
  // messages.
  std::string_view TopOpenName() const {
    return util::SymbolTable::Global().Name(open_.back().symbol);
  }
  // Whether `name` closes the innermost open element.
  bool ClosesTop(std::string_view name) const {
    return KeyOf(name).SameName(open_.back()) &&
           (name.size() <= kNameKeyBytes || name == TopOpenName());
  }

  ContentHandler* handler_;
  ParserOptions options_;
  // When options_.phase_timers is set, handler_ points at this wrapper,
  // which times callbacks into the match phase before forwarding to the
  // user's handler.
  std::unique_ptr<ContentHandler> timing_wrapper_;
  // handler_->batcher(): non-null selects the RecordEmitter.
  EventBatcher* batcher_ = nullptr;

  // Unconsumed input (a suffix of the stream) behind a consumed prefix of
  // pos_ bytes. Compaction erases whole 64-byte blocks only, so the
  // scanner's mask array keeps its grid (pos_ < 64 right after a Feed).
  std::string buffer_;
  size_t pos_ = 0;

  // Pending character data. The common case — one contiguous raw run, no
  // references to decode — is held as a zero-copy view into buffer_
  // (text_in_view_); it is materialized into text_accum_ only when a
  // second piece coalesces onto it, a piece needs reference decoding, or
  // the next Feed() is about to mutate buffer_. text_all_ws_ tracks
  // whether the pending run (after decoding) is entirely XML whitespace,
  // maintained incrementally so emission never rescans the text.
  std::string text_accum_;     // pending character data (decoded)
  std::string_view text_view_;
  bool text_in_view_ = false;
  bool text_all_ws_ = true;
  bool text_pending_ = false;  // a (possibly empty) run is pending

  // Stack of open elements: push/pop are one fixed-size record each.
  std::vector<NameKey> open_;
  bool started_document_ = false;
  bool seen_root_ = false;
  bool seen_any_content_ = false;  // anything consumed (XML decl gating)
  bool finished_ = false;

  Status error_;
  int line_ = 1;
  int column_ = 1;
  uint64_t element_count_ = 0;
  uint64_t bytes_fed_ = 0;
  uint64_t text_event_count_ = 0;
  uint64_t entity_references_ = 0;  // decoded so far (limits budget)

  // Per-start-tag scratch for the CallbackEmitter, reused across tags so
  // steady-state parsing does no per-attribute heap allocation:
  // `attributes_` holds views into buffer_ (or into a reused decode slot
  // when the raw value contains references).
  std::vector<AttributeView> attributes_;
  // Deque: slot strings must not move while attributes_ views into them.
  std::deque<std::string> attr_decode_slots_;

  // Vectorized structural front-end for every hot loop below, holding the
  // mask array for buffer_ that the skip scanner reads too.
  StructuralScanner scanner_;

  // Element and attribute names repeat heavily, within a document and
  // across the documents one thread parses, so a small set-associative
  // cache in front of SymbolTable::Global() turns most Intern calls (hash +
  // atomic probe + chain walk) into one compare against a cached NameKey.
  // The cache is thread-local (Symbols are process-wide and stable, so a
  // hit is valid for any parser on that thread); Feed() and Finish() fetch
  // the calling thread's cache, so a parser handed between threads never
  // shares one.
  static constexpr size_t kNameCacheSets = 256;  // power of two; 2 ways
  // The calling thread's 2 * kNameCacheSets slots (len 0 = empty).
  static NameKey* ThreadNameCache();
  NameKey* name_cache_ = nullptr;
  // Symbol of `name`, whose key is `key` (its symbol field unset).
  util::Symbol InternName(std::string_view name, const NameKey& key);

  // Document projection. Null unless options_.projection_filter is set and
  // compatible with the event options (see ParserOptions).
  ProjectionFilter* projection_filter_ = nullptr;
  SkipScanner skip_scanner_;
  bool skip_active_ = false;  // Pump routes input to skip_scanner_
  uint64_t skip_begin_ns_ = 0;  // flight-recorder skip-span start
};

// Convenience: parses a complete in-memory document.
Status ParseString(std::string_view document, ContentHandler* handler,
                   ParserOptions options = {});

}  // namespace xaos::xml

#endif  // XAOS_XML_SAX_PARSER_H_
