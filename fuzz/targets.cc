#include "targets.h"

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baseline/brute_force_matcher.h"
#include "baseline/compare.h"
#include "core/batched_dispatch.h"
#include "core/multi_engine.h"
#include "dom/dom_builder.h"
#include "query/xtree.h"
#include "xml/event_batch.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"
#include "xml/structural_scanner.h"

namespace xaos::fuzz {
namespace {

// Tight enough that a hostile input can't make one iteration slow or
// memory-hungry, loose enough that real documents in the corpus pass.
xml::ParserOptions FuzzParserOptions() {
  xml::ParserOptions options;
  options.limits.max_depth = 256;
  options.limits.max_attribute_count = 64;
  options.limits.max_attribute_value_bytes = 64u << 10;
  options.limits.max_name_bytes = 4096;
  options.limits.max_token_bytes = 1u << 20;
  options.limits.max_entity_references = 1u << 16;
  options.limits.max_total_bytes = 8u << 20;
  return options;
}

// Traps on any stream-invariant violation; the fuzzer keeps the input.
class TrapHandler : public xml::ContentHandler {
 public:
  void StartDocument() override {
    if (started_) __builtin_trap();
    started_ = true;
  }
  void EndDocument() override {
    if (!started_ || depth_ != 0) __builtin_trap();
  }
  void StartElement(const xml::QName& name, xml::AttributeSpan) override {
    if (!started_ || name.text.empty()) __builtin_trap();
    ++depth_;
  }
  void EndElement(std::string_view) override {
    if (depth_ <= 0) __builtin_trap();
    --depth_;
  }
  void Characters(std::string_view text) override {
    if (depth_ <= 0 || text.empty()) __builtin_trap();
  }

 private:
  bool started_ = false;
  int depth_ = 0;
};

// Batch sink keeping a copy of every published batch.
class CopyingSink : public xml::EventBatcher::Sink {
 public:
  xml::EventBatch* AcquireBatch() override { return &batch_; }
  void PublishBatch(xml::EventBatch* batch) override {
    published.push_back(*batch);
    batch->Clear();
  }
  std::vector<xml::EventBatch> published;

 private:
  xml::EventBatch batch_;
};

// Forwards events to an EventBatcher through its callbacks without exposing
// it, so a parser feeding this handler takes the callback emitter.
class HiddenBatcher : public xml::ContentHandler {
 public:
  explicit HiddenBatcher(xml::EventBatcher* batcher) : batcher_(batcher) {}
  void StartDocument() override { batcher_->StartDocument(); }
  void EndDocument() override { batcher_->EndDocument(); }
  void StartElement(const xml::QName& name,
                    xml::AttributeSpan attributes) override {
    batcher_->StartElement(name, attributes);
  }
  void EndElement(std::string_view name) override {
    batcher_->EndElement(name);
  }
  void Characters(std::string_view text) override {
    batcher_->Characters(text);
  }
  void SkippedSubtree(const xml::SkipReport& report) override {
    batcher_->SkippedSubtree(report);
  }

 private:
  xml::EventBatcher* batcher_;
};

// Captures `document` into batches of the given budget, through the record
// emitter (the parser fed the batcher itself) or the callback emitter.
std::pair<Status, std::vector<xml::EventBatch>> CaptureBatches(
    std::string_view document, const xml::ParserOptions& options,
    size_t batch_events, bool lean, bool record_path) {
  CopyingSink sink;
  xml::EventBatcher batcher(&sink, batch_events, /*max_text_bytes=*/256);
  batcher.set_lean_payload(lean);
  HiddenBatcher hidden(&batcher);
  Status status = xml::ParseString(
      document,
      record_path ? static_cast<xml::ContentHandler*>(&batcher) : &hidden,
      options);
  if (!status.ok()) batcher.AbortDocument();
  return {std::move(status), std::move(sink.published)};
}

}  // namespace

int RunSaxParserInput(const uint8_t* data, size_t size) {
  if (size > (1u << 20)) return 0;
  std::string_view doc(reinterpret_cast<const char*>(data), size);
  xml::ParserOptions options = FuzzParserOptions();

  TrapHandler invariants;
  xml::ParseString(doc, &invariants, options);

  // One-shot vs chunked must agree exactly: same events, and for a
  // malformed document the same status code and message (line and column
  // included). Limit rejections depend on buffering by design, so only
  // their code must match.
  xml::EventRecorder one_shot;
  const Status one_shot_status = xml::ParseString(doc, &one_shot, options);

  static constexpr size_t kSchedule[] = {1, 3, 7, 2, 16, 64, 5};
  xml::EventRecorder chunked;
  xml::SaxParser parser(&chunked, options);
  Status status;
  for (size_t step = size; !doc.empty() && status.ok(); ++step) {
    size_t n = kSchedule[step % (sizeof(kSchedule) / sizeof(kSchedule[0]))];
    if (n > doc.size()) n = doc.size();
    status = parser.Feed(doc.substr(0, n));
    doc.remove_prefix(n);
  }
  if (status.ok()) status = parser.Finish();
  if (status.code() != one_shot_status.code()) __builtin_trap();
  if (status.code() == StatusCode::kParseError &&
      status.message() != one_shot_status.message()) {
    __builtin_trap();
  }
  if (status.ok() && !(chunked.events() == one_shot.events())) {
    __builtin_trap();
  }
  return 0;
}

int RunXPathInput(const uint8_t* data, size_t size) {
  if (size > (1u << 16)) return 0;
  std::string expression(reinterpret_cast<const char*>(data), size);
  StatusOr<core::Query> query = core::Query::Compile(expression,
                                                     /*max_paths=*/8);
  if (!query.ok()) return 0;
  // A compiled expression must also build engines and survive a document.
  core::StreamingEvaluator evaluator(*query);
  xml::ParseString("<a x=\"1\"><b><c>text</c></b><b y=\"2\"/></a>",
                   &evaluator);
  (void)evaluator.Result();
  return 0;
}

int RunDifferentialInput(const uint8_t* data, size_t size) {
  if (size > (1u << 14)) return 0;
  std::string_view input(reinterpret_cast<const char*>(data), size);
  size_t newline = input.find('\n');
  if (newline == std::string_view::npos) return 0;
  std::string expression(input.substr(0, newline));
  std::string document(input.substr(newline + 1));

  StatusOr<core::Query> query = core::Query::Compile(expression,
                                                     /*max_paths=*/4);
  if (!query.ok()) return 0;

  xml::ParserOptions options = FuzzParserOptions();
  StatusOr<dom::Document> dom = dom::ParseToDocument(document, options);
  if (!dom.ok()) return 0;

  core::StreamingEvaluator evaluator(*query);
  Status parse = xml::ParseString(document, &evaluator, options);
  // The same parser accepted the document a line above.
  if (!parse.ok()) __builtin_trap();
  if (!evaluator.status().ok()) return 0;

  std::set<baseline::CanonicalItem> expected;
  for (const query::XTree& tree : query->trees()) {
    baseline::BruteForceOutcome outcome =
        baseline::BruteForceMatch(*dom, tree, /*max_explored=*/200'000);
    if (!outcome.complete) return 0;  // too expensive to oracle; skip
    expected.insert(outcome.items.begin(), outcome.items.end());
  }

  std::vector<baseline::CanonicalItem> actual =
      baseline::CanonicalFromResult(evaluator.Result());
  std::vector<baseline::CanonicalItem> oracle(expected.begin(),
                                              expected.end());
  if (!(actual == oracle)) __builtin_trap();
  return 0;
}

// Feeds `document` through a chunk schedule that splits tags, quoted
// values and references, then finishes.
Status ParseChunked(std::string_view document, xml::ContentHandler* handler,
                    const xml::ParserOptions& options) {
  static constexpr size_t kSchedule[] = {1, 3, 7, 2, 16, 64, 5};
  xml::SaxParser parser(handler, options);
  std::string_view rest(document);
  Status status;
  for (size_t step = document.size(); !rest.empty() && status.ok(); ++step) {
    size_t n = kSchedule[step % (sizeof(kSchedule) / sizeof(kSchedule[0]))];
    if (n > rest.size()) n = rest.size();
    status = parser.Feed(rest.substr(0, n));
    rest.remove_prefix(n);
  }
  return status.ok() ? parser.Finish() : status;
}

// Skips every element below the document element.
class SkipBelowRoot : public xml::ProjectionFilter {
 public:
  bool ShouldSkipSubtree(std::string_view, size_t open_depth) override {
    return open_depth >= 1;
  }
};

class SkipRecorder : public xml::ContentHandler {
 public:
  void SkippedSubtree(const xml::SkipReport& report) override {
    reports.push_back(report);
  }
  std::vector<xml::SkipReport> reports;
};

// Per child of the document element: the elements, attributes and
// reported text runs an unprojected parse delivers inside it.
class SubtreeCounter : public xml::ContentHandler {
 public:
  void StartElement(const xml::QName&,
                    xml::AttributeSpan attributes) override {
    if (++depth_ == 2) counts.emplace_back();
    if (depth_ >= 2) {
      counts.back().elements += 1;
      counts.back().node_ids += 1 + attributes.size();
    }
  }
  void EndElement(std::string_view) override { --depth_; }
  void Characters(std::string_view) override {
    if (depth_ >= 2) counts.back().node_ids += 1;
  }
  std::vector<xml::SkipReport> counts;

 private:
  int depth_ = 0;
};

// Byte spans of the document element's children, from a plain walk over a
// document the full parser accepted: comments, CDATA sections and PIs end
// at their fixed terminators, tags at the first '>' outside quotes.
// Returns false on a DOCTYPE, whose internal subset the walk skips.
bool ChildSpans(std::string_view doc, std::vector<uint64_t>* spans) {
  int depth = 0;
  size_t child_start = 0;
  for (size_t i = doc.find('<'); i != std::string_view::npos;
       i = doc.find('<', i)) {
    const std::string_view rest = doc.substr(i);
    size_t last;  // the construct's final byte
    if (rest.starts_with("<!--")) {
      last = i + rest.find("-->") + 2;
    } else if (rest.starts_with("<![CDATA[")) {
      last = i + rest.find("]]>") + 2;
    } else if (rest.starts_with("<?")) {
      last = i + rest.find("?>") + 1;
    } else if (rest.starts_with("<!")) {
      return false;
    } else if (rest.starts_with("</")) {
      last = doc.find('>', i);
      if (--depth == 1) spans->push_back(last + 1 - child_start);
    } else {
      char quote = 0;
      for (last = i + 1; quote != 0 || doc[last] != '>'; ++last) {
        if (doc[last] == quote) {
          quote = 0;
        } else if (quote == 0 && (doc[last] == '"' || doc[last] == '\'')) {
          quote = doc[last];
        }
      }
      if (++depth == 2) child_start = i;
      if (doc[last - 1] == '/' && --depth == 1) {
        spans->push_back(last + 1 - child_start);
      }
    }
    i = last + 1;
  }
  return true;
}

// Skip-scanner oracle mode: skip every element below the document element.
// Whenever the unprojected parse succeeds, the projected parse must too,
// one-shot and chunked, and each SkipReport must equal that parse's counts
// for the child it covers, with the child's byte span from ChildSpans.
void CheckSkipBelowRoot(std::string_view document) {
  for (bool whitespace : {false, true}) {
    xml::ParserOptions options = FuzzParserOptions();
    options.report_whitespace_text = whitespace;
    SubtreeCounter oracle;
    if (!xml::ParseString(document, &oracle, options).ok()) return;
    std::vector<uint64_t> spans;
    const bool have_spans = ChildSpans(document, &spans);
    if (have_spans && spans.size() != oracle.counts.size()) __builtin_trap();
    SkipBelowRoot filter;
    options.projection_filter = &filter;
    for (int chunked = 0; chunked < 2; ++chunked) {
      SkipRecorder got;
      const Status status = chunked == 0
                                ? xml::ParseString(document, &got, options)
                                : ParseChunked(document, &got, options);
      if (!status.ok() || got.reports.size() != oracle.counts.size()) {
        __builtin_trap();
      }
      for (size_t k = 0; k < got.reports.size(); ++k) {
        const xml::SkipReport& report = got.reports[k];
        if (report.elements != oracle.counts[k].elements ||
            report.node_ids != oracle.counts[k].node_ids ||
            (have_spans && report.bytes != spans[k])) {
          __builtin_trap();
        }
      }
    }
  }
}

int RunProjectionDifferentialInput(const uint8_t* data, size_t size) {
  if (size > (1u << 14)) return 0;
  std::string_view input(reinterpret_cast<const char*>(data), size);
  size_t newline = input.find('\n');
  if (newline == std::string_view::npos) return 0;
  std::string expression(input.substr(0, newline));
  std::string document(input.substr(newline + 1));
  CheckSkipBelowRoot(document);

  StatusOr<core::Query> query = core::Query::Compile(expression,
                                                     /*max_paths=*/4);
  if (!query.ok()) return 0;

  // Baseline: no projection. Only a successful baseline constrains the
  // projected runs (projection checks less well-formedness inside skips).
  xml::ParserOptions options = FuzzParserOptions();
  core::StreamingEvaluator baseline_eval(*query);
  if (!xml::ParseString(document, &baseline_eval, options).ok()) return 0;
  if (!baseline_eval.status().ok()) return 0;
  core::QueryResult baseline_result = baseline_eval.Result();
  std::vector<baseline::CanonicalItem> expected =
      baseline::CanonicalFromResult(baseline_result);

  // Projected, one-shot and chunked: must accept and agree exactly.
  for (int chunked = 0; chunked < 2; ++chunked) {
    core::StreamingEvaluator evaluator(*query);
    xml::ParserOptions projected = options;
    projected.projection_filter = evaluator.projection_filter();
    const Status status =
        chunked == 0 ? xml::ParseString(document, &evaluator, projected)
                     : ParseChunked(document, &evaluator, projected);
    if (!status.ok() || !evaluator.status().ok()) __builtin_trap();
    core::QueryResult result = evaluator.Result();
    if (result.matched != baseline_result.matched) __builtin_trap();
    if (!(baseline::CanonicalFromResult(result) == expected)) {
      __builtin_trap();
    }
  }
  return 0;
}

int RunScannerDiffInput(const uint8_t* data, size_t size) {
  if (size > (1u << 20)) return 0;
  std::string_view doc(reinterpret_cast<const char*>(data), size);

  constexpr xml::ScannerBackend kBackends[] = {
      xml::ScannerBackend::kScalar, xml::ScannerBackend::kSwar,
      xml::ScannerBackend::kSse2, xml::ScannerBackend::kAvx2};

  // Level 1: raw kernels. Every available kernel must reproduce the scalar
  // kernel's masks bit-for-bit on every block, partial tail included
  // (staged zero-padded exactly as StructuralScanner stages it).
  xml::ClassifyBlockFn scalar =
      xml::ScannerKernelForTest(xml::ScannerBackend::kScalar);
  for (size_t off = 0; off < size; off += xml::kScannerBlockBytes) {
    char staged[xml::kScannerBlockBytes] = {};
    size_t len = size - off;
    if (len > xml::kScannerBlockBytes) len = xml::kScannerBlockBytes;
    for (size_t i = 0; i < len; ++i) staged[i] = doc[off + i];
    xml::BlockMasks want;
    scalar(staged, &want);
    for (xml::ScannerBackend backend : kBackends) {
      xml::ClassifyBlockFn kernel = xml::ScannerKernelForTest(backend);
      if (kernel == nullptr || kernel == scalar) continue;
      xml::BlockMasks got;
      kernel(staged, &got);
      // Defaulted operator==: all eleven masks, '/' and '!'/'?' included.
      if (got != want) __builtin_trap();
    }
  }

  // Level 2: full parses. Backends may only differ in how fast they
  // classify, so the event stream, the outcome and the error text (which
  // embeds the line/column position) must all match scalar's — one-shot
  // and under a chunk schedule that splits tags and quoted values.
  xml::ParserOptions options = FuzzParserOptions();
  static constexpr size_t kSchedule[] = {1, 63, 2, 64, 7, 129, 3};
  xml::EventRecorder want_one_shot;
  Status want_status;
  xml::EventRecorder want_chunked;
  Status want_chunked_status;
  bool have_oracle = false;
  for (xml::ScannerBackend backend : kBackends) {
    if (!xml::ScannerBackendAvailable(backend)) continue;
    options.scanner_backend = backend;

    xml::EventRecorder one_shot;
    Status status = xml::ParseString(doc, &one_shot, options);

    xml::EventRecorder chunked;
    xml::SaxParser parser(&chunked, options);
    std::string_view rest = doc;
    Status chunked_status;
    for (size_t step = size; !rest.empty() && chunked_status.ok(); ++step) {
      size_t n = kSchedule[step % (sizeof(kSchedule) / sizeof(kSchedule[0]))];
      if (n > rest.size()) n = rest.size();
      chunked_status = parser.Feed(rest.substr(0, n));
      rest.remove_prefix(n);
    }
    if (chunked_status.ok()) chunked_status = parser.Finish();

    if (!have_oracle) {
      // kScalar is first in kBackends and always available.
      want_one_shot = std::move(one_shot);
      want_status = status;
      want_chunked = std::move(chunked);
      want_chunked_status = chunked_status;
      have_oracle = true;
      continue;
    }
    if (status.code() != want_status.code() ||
        status.message() != want_status.message() ||
        !(one_shot.events() == want_one_shot.events())) {
      __builtin_trap();
    }
    if (chunked_status.code() != want_chunked_status.code() ||
        chunked_status.message() != want_chunked_status.message() ||
        !(chunked.events() == want_chunked.events())) {
      __builtin_trap();
    }
  }
  return 0;
}

int RunSharedIndexDiffInput(const uint8_t* data, size_t size) {
  if (size > (1u << 14)) return 0;
  std::string_view input(reinterpret_cast<const char*>(data), size);
  size_t newline = input.find('\n');
  if (newline == std::string_view::npos) return 0;
  std::string_view query_list = input.substr(0, newline);
  std::string document(input.substr(newline + 1));

  std::vector<core::Query> queries;
  while (!query_list.empty() && queries.size() < 16) {
    size_t semi = query_list.find(';');
    std::string_view expression = query_list.substr(0, semi);
    query_list.remove_prefix(
        semi == std::string_view::npos ? query_list.size() : semi + 1);
    if (expression.empty()) continue;
    StatusOr<core::Query> query =
        core::Query::Compile(expression, /*max_paths=*/4);
    if (!query.ok()) continue;  // keep fuzzing the pool shape
    queries.push_back(std::move(*query));
  }
  if (queries.empty()) return 0;

  core::MultiQueryEvaluator shared;  // enable_shared_index defaults on
  core::EngineOptions oracle_options;
  oracle_options.enable_shared_index = false;
  core::MultiQueryEvaluator oracle(oracle_options);
  for (const core::Query& query : queries) {
    shared.AddQuery(query);
    oracle.AddQuery(query);
  }

  xml::ParserOptions options = FuzzParserOptions();
  Status shared_parse = xml::ParseString(document, &shared, options);
  Status oracle_parse = xml::ParseString(document, &oracle, options);
  if (shared_parse.ok() != oracle_parse.ok()) __builtin_trap();
  if (!shared_parse.ok()) return 0;
  if (shared.status().ok() != oracle.status().ok()) __builtin_trap();
  if (!shared.status().ok()) return 0;

  for (size_t q = 0; q < queries.size(); ++q) {
    if (shared.Matched(q) != oracle.Matched(q)) __builtin_trap();
    if (shared.MatchConfirmed(q) != oracle.MatchConfirmed(q)) {
      __builtin_trap();
    }
    if (!(baseline::CanonicalFromResult(shared.Result(q)) ==
          baseline::CanonicalFromResult(oracle.Result(q)))) {
      __builtin_trap();
    }
  }
  return 0;
}

int RunBatchedDispatchDiffInput(const uint8_t* data, size_t size) {
  if (size < 2 || size > (1u << 14)) return 0;
  size_t batch_events = 1 + (data[0] & 63);
  std::string_view input(reinterpret_cast<const char*>(data + 1), size - 1);
  size_t newline = input.find('\n');
  if (newline == std::string_view::npos) return 0;
  std::string_view query_list = input.substr(0, newline);
  std::string document(input.substr(newline + 1));
  xml::ParserOptions options = FuzzParserOptions();

  // Both parser emitters must capture byte-identical batches (records,
  // arena bytes, cut points, abort marker) and return the same status,
  // with and without lean payload.
  for (bool lean : {false, true}) {
    auto records = CaptureBatches(document, options, batch_events, lean,
                                  /*record_path=*/true);
    auto callbacks = CaptureBatches(document, options, batch_events, lean,
                                    /*record_path=*/false);
    if (records.first.code() != callbacks.first.code() ||
        records.first.message() != callbacks.first.message() ||
        records.second != callbacks.second) {
      __builtin_trap();
    }
  }

  std::vector<core::Query> queries;
  while (!query_list.empty() && queries.size() < 16) {
    size_t semi = query_list.find(';');
    std::string_view expression = query_list.substr(0, semi);
    query_list.remove_prefix(
        semi == std::string_view::npos ? query_list.size() : semi + 1);
    if (expression.empty()) continue;
    StatusOr<core::Query> query =
        core::Query::Compile(expression, /*max_paths=*/4);
    if (!query.ok()) continue;  // keep fuzzing the pool shape
    queries.push_back(std::move(*query));
  }
  if (queries.empty()) return 0;

  // Two feeds of the one dispatch: whole batches of the fuzzed budget, and
  // live events through the evaluator's ContentHandler overrides.
  core::MultiQueryEvaluator batched;
  core::MultiQueryEvaluator direct;
  for (const core::Query& query : queries) {
    batched.AddQuery(query);
    direct.AddQuery(query);
  }
  core::BatchedDispatchOptions dispatch_options;
  dispatch_options.max_batch_events = batch_events;
  dispatch_options.max_batch_text_bytes = 256;
  core::BatchedDispatcher dispatcher(&batched, dispatch_options);

  Status batched_parse = xml::ParseString(document, &dispatcher, options);
  Status direct_parse = xml::ParseString(document, &direct, options);
  if (batched_parse.ok() != direct_parse.ok()) __builtin_trap();
  if (!batched_parse.ok()) {
    // Exercise the mid-stream abort path: buffered events must be
    // discarded and the batch pool must stay reusable (no double release).
    dispatcher.AbortDocument(batched_parse);
    return 0;
  }
  if (batched.status().ok() != direct.status().ok()) __builtin_trap();
  if (!batched.status().ok()) return 0;

  // The independent oracle: the brute-force x-tree matcher over the DOM.
  StatusOr<dom::Document> dom = dom::ParseToDocument(document, options);
  if (!dom.ok()) __builtin_trap();  // the same parser accepted it above
  for (size_t q = 0; q < queries.size(); ++q) {
    if (batched.MatchConfirmed(q) != direct.MatchConfirmed(q)) {
      __builtin_trap();
    }
    bool matched = false;
    std::set<baseline::CanonicalItem> expected;
    bool complete = true;
    for (const query::XTree& tree : queries[q].trees()) {
      baseline::BruteForceOutcome outcome =
          baseline::BruteForceMatch(*dom, tree, /*max_explored=*/200'000);
      complete = complete && outcome.complete;
      matched = matched || outcome.matched;
      expected.insert(outcome.items.begin(), outcome.items.end());
    }
    const core::QueryResult batched_result = batched.Result(q);
    const core::QueryResult direct_result = direct.Result(q);
    if (batched_result.matched != direct_result.matched ||
        batched_result.items.size() != direct_result.items.size()) {
      __builtin_trap();
    }
    for (size_t i = 0; i < batched_result.items.size(); ++i) {
      const core::ElementInfo& a = batched_result.items[i].info;
      const core::ElementInfo& b = direct_result.items[i].info;
      if (a.id != b.id || a.parent_id != b.parent_id ||
          a.ordinal != b.ordinal || a.level != b.level || a.kind != b.kind ||
          a.name != b.name || a.value != b.value) {
        __builtin_trap();
      }
    }
    std::vector<baseline::CanonicalItem> batched_items =
        baseline::CanonicalFromResult(batched_result);
    if (!complete) continue;  // too expensive to oracle; skip
    if (batched.Matched(q) != matched) __builtin_trap();
    if (!(batched_items == std::vector<baseline::CanonicalItem>(
                               expected.begin(), expected.end()))) {
      __builtin_trap();
    }
  }
  return 0;
}

}  // namespace xaos::fuzz
