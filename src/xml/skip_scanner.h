// Streaming skip-scan for document projection.
//
// When a ProjectionFilter proves a start tag's entire subtree irrelevant to
// every installed query, the SaxParser switches to the SkipScanner: a raw
// scanner that races to the matching end tag tracking only element depth,
// comment/CDATA/PI state, and the structure needed to resume normal parsing
// afterwards. It performs no attribute parsing, no entity decoding, no
// symbol interning, and emits no events — only a SkipReport whose
// `node_ids` count lets dense-id consumers (core::DocumentCursor) stay
// byte-identical to a full parse.
//
// The scan reads the parser's structural masks (xml/structural_scanner.h)
// and advances one 64-byte block per step by mask arithmetic alone: tag
// regions from a prefix-xor of '<'|'>', attribute values from in-tag
// double-quote parity, tag kinds from the '/' mask, text runs from one
// carry-chain add. A block whose structure that arithmetic cannot settle —
// a comment, CDATA section or PI, a single-quoted value, a '>' in text or
// in a value, a stray '<', an undecided '&', the skip's end or the depth
// limit — goes through the per-construct walk instead, so every count,
// error and offset is the walk's.
//
// Divergence contract: the scanner checks only the structure it must (tag
// nesting, terminated constructs, the depth limit), so a document that the
// full parser would reject — mismatched end-tag names, malformed
// attributes, a literal "]]>" in character data, bad references — may be
// accepted in skipped regions. Whenever the full parser accepts a
// document, a projected parse accepts it too and produces identical query
// results; differential tests therefore compare only on baseline success.

#ifndef XAOS_XML_SKIP_SCANNER_H_
#define XAOS_XML_SKIP_SCANNER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "xml/sax_event.h"
#include "xml/structural_scanner.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define XAOS_SKIP_SCANNER_POPCNT 1
#endif

namespace xaos::xml {

// Per-start-tag relevance oracle the evaluator installs via
// ParserOptions::projection_filter. `open_depth` is the number of elements
// already open when the tag appears (the document element sits at 0).
// Returning true asserts that no node in the element's subtree — the
// element itself, its attributes, text, and descendants — can contribute to
// any match; the parser then skips the subtree without events. Stateful
// implementations (query::ProjectionGate tracks a kept-subtree watermark)
// are reset through the handler's StartDocument/abort path.
class ProjectionFilter {
 public:
  virtual ~ProjectionFilter() = default;
  virtual bool ShouldSkipSubtree(std::string_view name, size_t open_depth) = 0;
};

// Resumable scanner over one skipped subtree. The parser seeds it with the
// report for the already-consumed start tag, then feeds it unconsumed
// buffer suffixes until the matching end tag (kDone) or an error. Between
// calls the scanner holds run-classification state, so chunk boundaries may
// land anywhere; bytes of an incomplete construct are left unconsumed and
// rescanned when more input arrives (same policy as the full parser).
class SkipScanner {
 public:
  enum class State { kScanning, kDone, kError };

  // Starts a skip whose start tag the parser consumed already. `initial`
  // carries that tag's element/id/byte counts; `base_open_depth` is the
  // open-element count outside the skip (the skipped root would sit at that
  // depth); `max_depth` is ParserLimits::max_depth, still enforced inside
  // the skip. `count_whitespace_runs` mirrors
  // ParserOptions::report_whitespace_text: when set, all-whitespace text
  // runs would have been reported and so consume a node id.
  void Begin(const SkipReport& initial, size_t base_open_depth, int max_depth,
             bool count_whitespace_runs);

  // Scans the skipped bytes buffer[from, size) as far as possible.
  // `scanner` holds the structural masks of `buffer` (its block grid is
  // anchored at buffer.data()). Sets *consumed to the byte count from
  // `from` the caller should consume (on kError: up to the offending
  // construct, so the parser's line/column land on it).
  State Scan(const StructuralScanner& scanner, std::string_view buffer,
             size_t from, size_t* consumed);

  const SkipReport& report() const { return report_; }

  // After kError: true if the failure is a resource-limit rejection
  // (kResourceExhausted) rather than a well-formedness error.
  bool limit_error() const { return limit_error_; }
  const std::string& error_message() const { return error_message_; }

 private:
  // Block path: takes whole blocks from the one holding `at` while their
  // masks settle every construct in them, committing counts at each block
  // end. Returns the committed position — a construct boundary the
  // per-construct walk resumes from — and sets *stop to the end of the
  // first block it did not take. `*text_from` tracks where the text run
  // ending at the committed position began within this Scan call.
  size_t ScanBlocks(const StructuralScanner& scanner, const char* base,
                    size_t size, size_t at, size_t* text_from, size_t* stop);
  // The block path's body; `kPopcnt` selects the POPCNT instruction for
  // its counts. ScanBlocks runs the POPCNT build under the AVX2 kernel.
  template <bool kPopcnt>
  size_t ScanBlocksWith(const StructuralScanner& scanner, const char* base,
                        size_t size, size_t at, size_t* text_from,
                        size_t* stop);
#if defined(XAOS_SKIP_SCANNER_POPCNT)
  __attribute__((target("popcnt"))) size_t ScanBlocksPopcnt(
      const StructuralScanner& scanner, const char* base, size_t size,
      size_t at, size_t* text_from, size_t* stop);
#endif
  State Error(std::string message, size_t at, size_t* consumed);
  State LimitError(std::string message, size_t at, size_t* consumed);
  // Hot per-run/per-tag paths, inlined: the byte-level classification only
  // runs while a run's whitespace-ness is still undecided.
  void ProcessText(std::string_view run) {
    if (run.empty()) return;
    run_has_content_ = true;
    if (count_ws_runs_ || run_non_ws_) return;
    const char c0 = run.front();
    if (c0 != ' ' && c0 != '\t' && c0 != '\r' && c0 != '\n' && c0 != '&') {
      run_non_ws_ = true;  // decisive first byte: the common real-text case
      return;
    }
    ClassifyText(run);
  }
  void FlushRun() {
    if (run_has_content_ && (count_ws_runs_ || run_non_ws_)) {
      ++report_.node_ids;
    }
    run_has_content_ = false;
    run_non_ws_ = false;
  }
  void ClassifyText(std::string_view run);
  void ProcessCData(const StructuralScanner& scanner,
                    std::string_view content);

  SkipReport report_;
  size_t base_open_depth_ = 0;
  int max_depth_ = 0;
  uint64_t depth_ = 0;  // open elements inside the skip, including its root
  bool count_ws_runs_ = false;
  // Classification of the current (possibly still growing) text run,
  // mirroring the full parser's coalesced pending-text accumulator: a run
  // consumes a node id iff it is non-empty and (count_ws_runs_ || not all
  // whitespace after reference decoding).
  bool run_has_content_ = false;
  bool run_non_ws_ = false;
  bool limit_error_ = false;
  std::string error_message_;
};

}  // namespace xaos::xml

#endif  // XAOS_XML_SKIP_SCANNER_H_
