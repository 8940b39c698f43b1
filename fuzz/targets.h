// Shared fuzz-target bodies, compiler-agnostic: each function is the body
// of one libFuzzer entry point (fuzz_*.cc wraps them in
// LLVMFuzzerTestOneInput), but lives in a plain library so the same logic
// also runs under gcc via the standalone replay driver and inside the
// regular test suite (tests/fuzz_corpus_test.cc replays fuzz/corpus/).
//
// Contract: return 0 always (libFuzzer ignores other values); report an
// invariant violation by trapping (__builtin_trap), which both libFuzzer
// and the sanitizers turn into a reproducible crash with the offending
// input.

#ifndef XAOS_FUZZ_TARGETS_H_
#define XAOS_FUZZ_TARGETS_H_

#include <cstddef>
#include <cstdint>

namespace xaos::fuzz {

// Feeds `data` to the SAX parser under tight ParserLimits, twice: one-shot
// and through an adversarial chunk schedule. Traps if the event streams or
// status codes diverge, if a parse error's message (which carries its line
// and column) differs, or if the handler observes an unbalanced stream.
int RunSaxParserInput(const uint8_t* data, size_t size);

// Treats `data` as an XPath expression: compile, and when that succeeds,
// evaluate over a small fixed document (exercises x-tree building and
// engine construction on hostile expressions).
int RunXPathInput(const uint8_t* data, size_t size);

// Differential target. Input layout: "<xpath>\n<xml document>". When both
// sides are valid, χαoς streaming results must equal the brute-force
// oracle on the DOM; any disagreement traps.
int RunDifferentialInput(const uint8_t* data, size_t size);

// Projection differential. Same input layout as RunDifferentialInput.
// Whenever the unprojected parse+evaluation succeeds, re-running with the
// query's projection filter installed — one-shot and through an adversarial
// chunk schedule — must succeed with the identical verdict and items.
// (Projection may accept documents the baseline rejects, never the
// converse; see xml/skip_scanner.h.) The document also runs with every
// element below its root skipped: each SkipReport must equal the counts of
// the unprojected parse, bytes included, with whitespace runs reported and
// not.
int RunProjectionDifferentialInput(const uint8_t* data, size_t size);

// Structural-scanner differential. Treats `data` as an XML document and
// checks the tentpole invariant of xml/structural_scanner.h at two levels:
// every available classify kernel must produce the scalar kernel's exact
// BlockMasks for every 64-byte block of the input, and a full parse under
// every available backend — one-shot and through an adversarial chunk
// schedule — must yield the scalar backend's byte-identical event stream,
// outcome and error position.
int RunScannerDiffInput(const uint8_t* data, size_t size);

// Shared-index differential. Input layout:
// "<xpath>;<xpath>;...\n<xml document>" — a multi-query pool evaluated
// through the shared-prefix automaton backend and through the per-engine
// path (EngineOptions::enable_shared_index off). Any divergence in per-query
// verdicts, mid-stream confirmations or result items traps.
int RunSharedIndexDiffInput(const uint8_t* data, size_t size);

// Batched-dispatch differential. Input layout:
// "<batch byte><xpath>;<xpath>;...\n<xml document>" — the first byte picks
// the EventBatch size budget (1..64 events), the rest is a multi-query pool
// plus a document. First the document is captured into batches of that
// budget through both parser emitters — records written by the parser into
// an EventBatcher it feeds, and the same batcher fed by callbacks — with and
// without lean payload; any difference in batches or status traps. Then
// the pool is evaluated once through BatchedDispatcher
// (pooled EventBatch replay) and once fed directly as a ContentHandler;
// any divergence between the two in parse outcome,
// verdicts, confirmations or items traps, and so does any divergence of
// verdicts or items from the brute-force matcher (src/baseline) where its
// enumeration completes. A failed parse additionally drives the
// dispatcher's AbortDocument path, which must leave the pool consistent.
int RunBatchedDispatchDiffInput(const uint8_t* data, size_t size);

}  // namespace xaos::fuzz

#endif  // XAOS_FUZZ_TARGETS_H_
