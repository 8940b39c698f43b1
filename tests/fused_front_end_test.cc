// Differential test for SaxParser's record emitter. A parser feeding an
// EventBatcher writes element, text and skip records into the batcher's
// batches itself; the oracle is the same EventBatcher behind a forwarding
// handler that does not expose it, so the parser feeds it through the
// per-event callbacks. Every published batch (records, attribute records,
// arena bytes, skip reports, abort marker and the cut points between
// batches) and the returned Status must be identical, across chunkings,
// lean payload, projection, batch budgets and scanner backends.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/batched_dispatch.h"
#include "core/multi_engine.h"
#include "core/parallel_fleet.h"
#include "gen/random_workload.h"
#include "gen/xmark_generator.h"
#include "gtest/gtest.h"
#include "xml/event_batch.h"
#include "xml/sax_parser.h"
#include "xml/structural_scanner.h"

namespace xaos::xml {
namespace {

// Keeps a copy of every published batch, recycling the originals.
class RecordingSink : public EventBatcher::Sink {
 public:
  EventBatch* AcquireBatch() override {
    if (free_.empty()) {
      pool_.push_back(std::make_unique<EventBatch>());
      return pool_.back().get();
    }
    EventBatch* batch = free_.back();
    free_.pop_back();
    return batch;
  }
  void PublishBatch(EventBatch* batch) override {
    published.push_back(*batch);
    batch->Clear();
    free_.push_back(batch);
  }

  std::vector<EventBatch> published;

 private:
  std::vector<std::unique_ptr<EventBatch>> pool_;
  std::vector<EventBatch*> free_;
};

// Hands every event to the batcher through its callbacks without exposing
// it (batcher() stays null), so the parser takes the callback emitter.
class ForwardingHandler : public ContentHandler {
 public:
  explicit ForwardingHandler(EventBatcher* batcher) : batcher_(batcher) {}
  void StartDocument() override { batcher_->StartDocument(); }
  void EndDocument() override { batcher_->EndDocument(); }
  void StartElement(const QName& name, AttributeSpan attributes) override {
    batcher_->StartElement(name, attributes);
  }
  void EndElement(std::string_view name) override {
    batcher_->EndElement(name);
  }
  void Characters(std::string_view text) override {
    batcher_->Characters(text);
  }
  void SkippedSubtree(const SkipReport& report) override {
    batcher_->SkippedSubtree(report);
  }

 private:
  EventBatcher* batcher_;
};

// Stateless projection: skips every non-root subtree whose name has a
// length divisible by three, so skips start at many depths.
class LengthFilter : public ProjectionFilter {
 public:
  bool ShouldSkipSubtree(std::string_view name, size_t open_depth) override {
    return open_depth > 0 && name.size() % 3 == 0;
  }
};

struct Setting {
  size_t chunk = 0;  // 0 = whole document in one Feed
  bool lean = false;
  bool projection = false;
  size_t max_events = 256;
  size_t max_text_bytes = 32 * 1024;
  ScannerBackend backend = ScannerBackend::kScalar;
  ParserLimits limits;

  std::string Describe() const {
    return "chunk=" + std::to_string(chunk) + " lean=" + std::to_string(lean) +
           " projection=" + std::to_string(projection) +
           " budget=" + std::to_string(max_events) + "/" +
           std::to_string(max_text_bytes) +
           " backend=" + ScannerBackendName(backend);
  }
};

struct Outcome {
  Status status;
  std::vector<EventBatch> batches;
};

Outcome Capture(const std::string& doc, const Setting& setting,
                bool record_path) {
  RecordingSink sink;
  EventBatcher batcher(&sink, setting.max_events, setting.max_text_bytes);
  batcher.set_lean_payload(setting.lean);
  ForwardingHandler forwarding(&batcher);
  LengthFilter filter;
  ParserOptions options;
  options.scanner_backend = setting.backend;
  options.limits = setting.limits;
  if (setting.projection) options.projection_filter = &filter;
  SaxParser parser(record_path ? static_cast<ContentHandler*>(&batcher)
                               : &forwarding,
                   options);
  Outcome outcome;
  std::string_view rest(doc);
  const size_t chunk = setting.chunk == 0 ? doc.size() + 1 : setting.chunk;
  while (!rest.empty() && outcome.status.ok()) {
    const size_t n = std::min(chunk, rest.size());
    outcome.status = parser.Feed(rest.substr(0, n));
    rest.remove_prefix(n);
  }
  if (outcome.status.ok()) outcome.status = parser.Finish();
  if (!outcome.status.ok()) batcher.AbortDocument();
  outcome.batches = std::move(sink.published);
  return outcome;
}

std::string DescribeEvent(const EventBatch& batch, const BatchedEvent& e) {
  std::string out = "kind=" + std::to_string(static_cast<int>(e.kind)) +
                    " symbol=" + std::to_string(e.symbol) + " text='" +
                    std::string(batch.text_slice(e.text_offset, e.text_size)) +
                    "'";
  for (uint32_t i = 0; i < e.attr_count; ++i) {
    const BatchedAttribute& a = batch.attribute(e.attr_begin + i);
    out += " @" + std::string(batch.text_slice(a.name_offset, a.name_size)) +
           "=" + std::string(batch.text_slice(a.value_offset, a.value_size));
  }
  return out;
}

SkipReport ReadSkip(const EventBatch& batch, const BatchedEvent& e) {
  SkipReport report;
  std::string_view raw = batch.text_slice(e.text_offset, e.text_size);
  EXPECT_EQ(raw.size(), sizeof(report));
  if (raw.size() == sizeof(report)) {
    std::memcpy(&report, raw.data(), sizeof(report));
  }
  return report;
}

// Field-by-field comparison with a pointed message at the first difference.
void ExpectSameBatches(const Outcome& want, const Outcome& got,
                       const std::string& label) {
  ASSERT_EQ(got.status.code(), want.status.code()) << label;
  ASSERT_EQ(got.status.message(), want.status.message()) << label;
  ASSERT_EQ(got.batches.size(), want.batches.size())
      << label << ": batch cut points differ";
  for (size_t b = 0; b < want.batches.size(); ++b) {
    const EventBatch& w = want.batches[b];
    const EventBatch& g = got.batches[b];
    const std::string where = label + " batch " + std::to_string(b);
    ASSERT_EQ(g.aborts_document(), w.aborts_document()) << where;
    ASSERT_EQ(g.event_count(), w.event_count()) << where << ": cut point";
    for (size_t i = 0; i < w.event_count(); ++i) {
      const BatchedEvent& we = w.events()[i];
      const BatchedEvent& ge = g.events()[i];
      ASSERT_TRUE(ge == we) << where << " event " << i << ": want "
                            << DescribeEvent(w, we) << ", got "
                            << DescribeEvent(g, ge);
      if (we.kind == BatchedEvent::Kind::kSkipSubtree) {
        const SkipReport ws = ReadSkip(w, we);
        const SkipReport gs = ReadSkip(g, ge);
        EXPECT_EQ(gs.elements, ws.elements) << where << " event " << i;
        EXPECT_EQ(gs.node_ids, ws.node_ids) << where << " event " << i;
        EXPECT_EQ(gs.bytes, ws.bytes) << where << " event " << i;
      }
    }
    ASSERT_EQ(g.attribute_count(), w.attribute_count()) << where;
    for (size_t i = 0; i < w.attribute_count(); ++i) {
      ASSERT_TRUE(g.attribute(i) == w.attribute(i))
          << where << " attribute " << i;
    }
    ASSERT_EQ(g.text_slice(0, static_cast<uint32_t>(g.text_bytes())),
              w.text_slice(0, static_cast<uint32_t>(w.text_bytes())))
        << where << ": arena bytes";
    ASSERT_TRUE(g == w) << where;
  }
}

std::vector<ScannerBackend> Backends() {
  std::vector<ScannerBackend> out;
  for (ScannerBackend backend :
       {ScannerBackend::kScalar, ScannerBackend::kSwar, ScannerBackend::kSse2,
        ScannerBackend::kAvx2}) {
    if (ScannerBackendAvailable(backend)) out.push_back(backend);
  }
  return out;
}

// Runs `doc` through both emitters under every chunking, payload rule,
// projection setting and backend (and two batch budgets).
void ExpectEmittersAgree(const std::string& doc, const std::string& label,
                         ParserLimits limits = {}) {
  for (ScannerBackend backend : Backends()) {
    for (size_t chunk : {size_t{0}, size_t{1}, size_t{7}, size_t{64 << 10}}) {
      for (bool lean : {false, true}) {
        for (bool projection : {false, true}) {
          for (size_t budget : {size_t{256}, size_t{3}}) {
            Setting setting;
            setting.chunk = chunk;
            setting.lean = lean;
            setting.projection = projection;
            setting.max_events = budget;
            setting.max_text_bytes = budget == 3 ? 16 : 32 * 1024;
            setting.backend = backend;
            setting.limits = limits;
            const std::string where = label + " [" + setting.Describe() + "]";
            ExpectSameBatches(Capture(doc, setting, /*record_path=*/false),
                              Capture(doc, setting, /*record_path=*/true),
                              where);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(FusedFrontEndTest, HandlersExposeTheirBatcher) {
  RecordingSink sink;
  EventBatcher batcher(&sink, 8, 64);
  EXPECT_EQ(batcher.batcher(), &batcher);
  ForwardingHandler forwarding(&batcher);
  EXPECT_EQ(forwarding.batcher(), nullptr);

  StatusOr<core::Query> query = core::Query::Compile("//a");
  ASSERT_TRUE(query.ok());
  core::StreamingEvaluator evaluator(*query);
  core::BatchedDispatcher dispatcher(&evaluator);
  EXPECT_NE(dispatcher.batcher(), nullptr);
  EXPECT_EQ(evaluator.batcher(), nullptr);
  core::ParallelFleet fleet;
  EXPECT_NE(fleet.batcher(), nullptr);
}

TEST(FusedFrontEndTest, AxisCorpusDocument) {
  ExpectEmittersAgree(
      "<a k=\"1\"><b><a><c/></a><d/></b><c/>"
      "<b x=\"y\"><c/><a/><e>text</e></b></a>",
      "axis");
}

TEST(FusedFrontEndTest, RobustnessDocuments) {
  const std::vector<std::string> docs = {
      "<a><b x='1'>t&amp;u</b><![CDATA[raw]]></a>",
      "<a><b></a></b>",
      "<a>&#xZZ;</a>",
      "<a><!-- c --><b/></a>",
      "<a>]]></a>",
      "<a x=\"v\" x=\"w\"/>",
      "<?xml version=\"1.0\"?><!DOCTYPE a [<!ENTITY e \"v\">]><a/>",
      "<r>text']]></r>",
      "<r>abc&am</r>",
      "<r>&#0;]]></r>",
      "<r>&&bogus;</r>",
      // A bad attribute after pending text: the partial start-tag record
      // must be discarded.
      "<r>mixed <b a=\"1\" a=\"2\"/></r>",
      "<r>mixed <b a=\"1\" c=\"&bad;\"/></r>",
      "<r>mixed <b a=\"1\" c=\"x\x01\"/></r>",
      "<r><abc q=\"&lt;&#65;\" zz='&quot;'>x</abc><de/><xyz/>tail</r>",
      "<r>  <abc><b/>deep<c/></abc>\n<abc/></r>",
      "<?xml version=\"1.0\"?><a x=\"1&amp;\"><!--c--><b><![CDATA[z]]>"
      "t</b></a>",
      "<r>" + std::string(150, 'x') + "<abc k='" + std::string(90, 'v') +
          "'>" + std::string(70, 'y') + "</abc></r>",
  };
  int i = 0;
  for (const std::string& doc : docs) {
    ExpectEmittersAgree(doc, "robustness doc " + std::to_string(i++));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FusedFrontEndTest, LimitDocuments) {
  ParserLimits tight;
  tight.max_depth = 4;
  tight.max_attribute_count = 2;
  tight.max_attribute_value_bytes = 8;
  tight.max_name_bytes = 8;
  tight.max_token_bytes = 64;
  tight.max_entity_references = 3;
  tight.max_total_bytes = 512;
  const std::vector<std::string> docs = {
      "<a><a><a><a><a>deep</a></a></a></a></a>",
      "<a>text<b p=\"1\" q=\"2\" r=\"3\"/></a>",
      "<a>text<b v=\"123456789\"/></a>",
      "<averylongelementname/>",
      "<a><!-- " + std::string(80, 'c') + " --></a>",
      "<a>&amp;&amp;&amp;&amp;</a>",
      "<a>" + std::string(600, 't') + "</a>",
      "<a>x<b v=\"&amp;&amp;&amp;&amp;\"/></a>",
  };
  int i = 0;
  for (const std::string& doc : docs) {
    ExpectEmittersAgree(doc, "limits doc " + std::to_string(i++), tight);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FusedFrontEndTest, RandomWorkloadDocuments) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    gen::RandomDocOptions doc_options;
    doc_options.target_elements = 150;
    auto workload =
        gen::GenerateWorkload(gen::RandomQueryOptions{}, doc_options, seed);
    ASSERT_TRUE(workload.ok());
    ExpectEmittersAgree(workload->document,
                        "workload seed " + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FusedFrontEndTest, XMarkDocument) {
  gen::XMarkOptions options;
  options.scale = 0.0005;
  options.indent = 1;
  const std::string doc = gen::GenerateXMark(options);
  for (ScannerBackend backend : Backends()) {
    for (size_t chunk : {size_t{0}, size_t{7}, size_t{64 << 10}}) {
      for (bool projection : {false, true}) {
        Setting setting;
        setting.chunk = chunk;
        setting.lean = true;
        setting.projection = projection;
        setting.backend = backend;
        const std::string where = "xmark [" + setting.Describe() + "]";
        ExpectSameBatches(Capture(doc, setting, false),
                          Capture(doc, setting, true), where);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace xaos::xml
