// Block-boundary corpus for the projection skip scanner. The scanner
// counts a skipped subtree 64 bytes per step from the structural masks and
// hands any block it cannot settle by mask arithmetic to its
// per-construct walk. Each construct that forces that hand-off is placed
// at block offsets 0, 1, 62 and 63 inside a skipped subtree spanning many
// blocks, and every SkipReport is compared with an independent oracle: the
// counts of an unprojected full parse of the same document, and byte spans
// known from the document's construction. Errors are compared with the
// unprojected parse's Status by code and by message, which embeds the
// line/column position.

#include <string>
#include <string_view>
#include <vector>

#include "gen/xmark_generator.h"
#include "gtest/gtest.h"
#include "util/status.h"
#include "xml/sax_parser.h"
#include "xml/structural_scanner.h"

namespace xaos::xml {
namespace {

constexpr size_t kBlock = kScannerBlockBytes;

// Skips every element below the document element.
class SkipBelowRoot : public ProjectionFilter {
 public:
  bool ShouldSkipSubtree(std::string_view, size_t open_depth) override {
    return open_depth >= 1;
  }
};

// Records the projected parse's skip reports.
class ReportRecorder : public ContentHandler {
 public:
  void SkippedSubtree(const SkipReport& report) override {
    reports.push_back(report);
  }
  std::vector<SkipReport> reports;
};

// The oracle's counts: per child of the document element, the elements,
// attributes and reported text runs an unprojected parse delivers inside
// it (a skip's node ids), plus the child's name.
class SubtreeCounter : public ContentHandler {
 public:
  void StartElement(const QName& name, AttributeSpan attributes) override {
    if (++depth_ == 2) {
      counts.emplace_back();
      names.emplace_back(name.text);
    }
    if (depth_ >= 2) {
      counts.back().elements += 1;
      counts.back().node_ids += 1 + attributes.size();
    }
  }
  void EndElement(std::string_view) override { --depth_; }
  void Characters(std::string_view) override {
    if (depth_ >= 2) counts.back().node_ids += 1;
  }
  std::vector<SkipReport> counts;
  std::vector<std::string> names;

 private:
  int depth_ = 0;
};

// Feeds `doc` in `chunk`-byte pieces (0 = whole) and finishes.
Status Parse(std::string_view doc, ContentHandler* handler,
             const ParserOptions& options, size_t chunk) {
  SaxParser parser(handler, options);
  if (chunk == 0) chunk = doc.size();
  for (size_t at = 0; at < doc.size(); at += chunk) {
    Status status = parser.Feed(doc.substr(at, chunk));
    if (!status.ok()) return status;
  }
  return parser.Finish();
}

std::string Describe(const SkipReport& r) {
  return std::to_string(r.elements) + "/" + std::to_string(r.node_ids) +
         "/" + std::to_string(r.bytes);
}

// Parses `doc` unprojected and skipping every child of the root; the
// outcomes must agree, and on success each skip report must equal the
// oracle's counts with the byte span `spans[k]` of child k.
void ExpectSkipsMatchOracle(const std::string& doc,
                            const std::vector<size_t>& spans,
                            ParserOptions options, size_t chunk,
                            const std::string& label) {
  SubtreeCounter oracle;
  const Status want = Parse(doc, &oracle, options, chunk);
  SkipBelowRoot filter;
  options.projection_filter = &filter;
  ReportRecorder got;
  const Status status = Parse(doc, &got, options, chunk);
  ASSERT_EQ(status.code(), want.code())
      << label << ": " << status << " vs " << want;
  ASSERT_EQ(status.message(), want.message()) << label;
  if (!want.ok()) return;
  ASSERT_EQ(got.reports.size(), oracle.counts.size()) << label;
  ASSERT_EQ(spans.size(), oracle.counts.size()) << label;
  for (size_t k = 0; k < spans.size(); ++k) {
    SkipReport expected = oracle.counts[k];
    expected.bytes = spans[k];
    EXPECT_EQ(Describe(got.reports[k]), Describe(expected))
        << label << ": child " << k << " <" << oracle.names[k] << ">";
  }
}

// Clean content the block path takes whole: attributes, self-closing and
// end tags, decided text (with a reference), whitespace-only runs.
constexpr std::string_view kFiller =
    "<item id=\"item7\" featured=\"yes\"><name>duteous nine</name>\n"
    "  <payment>Creditcard</payment><empty/><note>a &amp; b</note>\n"
    "</item>\n";

// Appends an element (at least 7 bytes) that brings doc->size() to
// `offset` modulo the block size.
void PadTo(std::string* doc, size_t offset) {
  size_t pad = (offset + kBlock - doc->size() % kBlock) % kBlock;
  if (pad < 7) pad += kBlock;
  *doc += "<p>" + std::string(pad - 7, 'p') + "</p>";
}

struct Construct {
  const char* name;
  std::string text;
  size_t anchor;  // the byte of `text` placed on the block offset
};

// Everything the block path hands to the per-construct walk, anchored on
// the byte that forces the hand-off, and a self-closing tag whose '/' and
// '>' a block edge may split.
std::vector<Construct> Constructs() {
  return {
      {"self-closing tag", "<empty/>", 6},
      {"comment", "<!-- note -->", 0},
      {"markup in comment", "<!-- c > d <e> - -->", 0},
      {"pi", "<?target data?>", 0},
      {"cdata", "<![CDATA[ x ]]>", 0},
      {"markup in cdata", "<![CDATA[ <x> ]] > ]]>", 0},
      {"whitespace reference", "&#32;  \n", 0},
      {"single-quoted value", "<v a='x' b=\"y\"/>", 5},
      {"gt in text", "> a", 0},
      {"gt in value", "<v a=\"x>y\"/>", 7},
      {"straddling tag",
       "<long a1=\"aaaaaaaaaaaa\" a2=\"bbbbbbbbbbbb\" "
       "a3=\"cccccccccccc\" a4=\"dddddddddddd\">t</long>",
       0},
      {"lt in tag", "<v a=\"1\" <w>", 9},
  };
}

// <doc> [bulk] <skip>filler ... construct ... filler</skip> <tail/>
// </doc>. `bulk_blocks` whole blocks of skipped content come first, so a
// 64 KiB chunk boundary lands inside the second child. Returns the
// children's byte spans through `spans`.
std::string BuildDocument(std::string_view construct, size_t offset,
                          size_t bulk_blocks, std::vector<size_t>* spans) {
  std::string doc = "<doc>";
  spans->clear();
  if (bulk_blocks > 0) {
    const size_t start = doc.size();
    doc += "<bulk>";
    while (doc.size() + kFiller.size() + 64 < start + bulk_blocks * kBlock) {
      doc += kFiller;
    }
    PadTo(&doc, start + bulk_blocks * kBlock - 7);
    doc += "</bulk>";
    spans->push_back(doc.size() - start);
  }
  const size_t start = doc.size();
  doc += "<skip>";
  for (int k = 0; k < 4; ++k) doc += kFiller;
  PadTo(&doc, offset);
  doc += construct;
  for (int k = 0; k < 4; ++k) doc += kFiller;
  doc += "</skip>";
  spans->push_back(doc.size() - start);
  doc += "\n<tail/>";
  spans->push_back(7);
  doc += "</doc>";
  return doc;
}

constexpr size_t kOffsets[] = {0, 1, 62, 63};

std::vector<ScannerBackend> AvailableBackends() {
  std::vector<ScannerBackend> backends;
  for (ScannerBackend b : {ScannerBackend::kScalar, ScannerBackend::kSwar,
                           ScannerBackend::kSse2, ScannerBackend::kAvx2}) {
    if (ScannerBackendAvailable(b)) backends.push_back(b);
  }
  return backends;
}

// Runs one document builder at every offset, whitespace setting, chunking
// (whole under every backend; 1 and 7 bytes; 64 KiB over a document with
// 64 KiB of bulk in front) against the oracle.
template <typename Build>
void RunCorpus(const std::string& name, Build build, ParserOptions options) {
  for (size_t offset : kOffsets) {
    for (bool ws : {false, true}) {
      options.report_whitespace_text = ws;
      const std::string label = name + " at offset " +
                                std::to_string(offset) +
                                (ws ? " (whitespace runs)" : "");
      std::vector<size_t> spans;
      const std::string doc = build(offset, 0, &spans);
      for (ScannerBackend backend : AvailableBackends()) {
        ParserOptions pinned = options;
        pinned.scanner_backend = backend;
        ExpectSkipsMatchOracle(doc, spans, pinned, 0,
                               label + " " + ScannerBackendName(backend));
      }
      ExpectSkipsMatchOracle(doc, spans, options, 1, label + ", 1-byte");
      ExpectSkipsMatchOracle(doc, spans, options, 7, label + ", 7-byte");
      const std::string big = build(offset, 1020, &spans);
      ExpectSkipsMatchOracle(big, spans, options, 64 << 10,
                             label + ", 64 KiB");
      ExpectSkipsMatchOracle(big, spans, options, 0, label + ", bulk whole");
    }
  }
}

TEST(SkipScanBlockBoundaryTest, FallbackConstructs) {
  for (const Construct& construct : Constructs()) {
    RunCorpus(
        construct.name,
        [&](size_t offset, size_t bulk, std::vector<size_t>* spans) {
          return BuildDocument(construct.text,
                               (offset + kBlock - construct.anchor) % kBlock,
                               bulk, spans);
        },
        ParserOptions{});
  }
}

TEST(SkipScanBlockBoundaryTest, SkipEndsAtEveryBlockEdge) {
  // The skipped subtree's final '>' on block offsets 0, 1, 62 and 63: the
  // last block of the skip holds its end.
  RunCorpus(
      "skip end",
      [](size_t offset, size_t bulk, std::vector<size_t>* spans) {
        std::string doc = BuildDocument("", 0, bulk, spans);
        const size_t end = doc.find("</skip>");
        std::string pad;
        PadTo(&pad, (offset + kBlock - (end + 6) % kBlock) % kBlock);
        doc.insert(end, pad);
        (*spans)[spans->size() - 2] += pad.size();
        return doc;
      },
      ParserOptions{});
}

TEST(SkipScanBlockBoundaryTest, DepthLimitHitExactlyAndExceeded) {
  // The skip opens at depth 2 (root, skip); a chain of `levels` elements
  // below it reaches depth 2 + levels. At the limit the document passes,
  // one deeper it fails at that element's '<' in both parses.
  ParserOptions options;
  options.limits.max_depth = 9;
  for (int levels : {7, 8}) {
    std::string chain;
    for (int k = 0; k < levels; ++k) chain += "<d>";
    chain += "deep";
    for (int k = 0; k < levels; ++k) chain += "</d>";
    RunCorpus(
        "depth chain of " + std::to_string(levels),
        [&](size_t offset, size_t bulk, std::vector<size_t>* spans) {
          // The deepest '<' sits on the offset.
          const size_t deepest = 3 * static_cast<size_t>(levels - 1);
          return BuildDocument(chain, (offset + kBlock * 8 - deepest) % kBlock,
                               bulk, spans);
        },
        options);
  }
}

TEST(SkipScanBlockBoundaryTest, ReferenceHeldBackAtChunkEnd) {
  // The first chunk ends inside a reference of decided text, on block
  // offsets 0, 1, 62 and 63. Both parses hold the incomplete reference
  // back, so with max_token_bytes below its length both fail at its '&'.
  ParserOptions options;
  options.limits.max_token_bytes = 2;
  for (size_t offset : kOffsets) {
    std::vector<size_t> spans;
    std::string doc = BuildDocument("", 0, 0, &spans);
    const size_t end = doc.find("</skip>");
    std::string text;
    PadTo(&text, (offset + kBlock - (end + 8) % kBlock) % kBlock);
    text += "word &amp; more";
    doc.insert(end, text);
    const size_t cut = end + text.size() - 7;  // after "&am"
    ASSERT_EQ(cut % kBlock, offset);
    for (bool ws : {false, true}) {
      options.report_whitespace_text = ws;
      SubtreeCounter oracle;
      Status want;
      SkipBelowRoot filter;
      ReportRecorder got;
      Status status;
      for (ContentHandler* handler : {static_cast<ContentHandler*>(&oracle),
                                      static_cast<ContentHandler*>(&got)}) {
        ParserOptions run = options;
        if (handler == &got) run.projection_filter = &filter;
        SaxParser parser(handler, run);
        Status s = parser.Feed(std::string_view(doc).substr(0, cut));
        if (s.ok()) s = parser.Feed(std::string_view(doc).substr(cut));
        if (s.ok()) s = parser.Finish();
        (handler == &got ? status : want) = s;
      }
      EXPECT_EQ(want.code(), StatusCode::kResourceExhausted) << want;
      EXPECT_EQ(status.code(), want.code()) << offset << ": " << status;
      EXPECT_EQ(status.message(), want.message()) << offset;
    }
  }
}

TEST(SkipScanBlockBoundaryTest, XMarkBodies) {
  // Whole XMark documents with every child of <site> skipped, as the
  // block path sees them on the selective workloads.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    gen::XMarkOptions xmark;
    xmark.scale = 0.005;
    xmark.seed = seed;
    xmark.indent = seed % 2 == 0 ? 1 : 0;
    const std::string doc = gen::GenerateXMark(xmark);
    SubtreeCounter names;
    ASSERT_TRUE(Parse(doc, &names, ParserOptions{}, 0).ok());
    // The children of <site> carry no attributes and never nest in
    // themselves: their spans run from "<name>" to "</name>".
    std::vector<size_t> spans;
    for (const std::string& name : names.names) {
      const size_t begin = doc.find("<" + name + ">");
      const size_t end = doc.find("</" + name + ">");
      ASSERT_NE(begin, std::string::npos);
      ASSERT_NE(end, std::string::npos);
      spans.push_back(end + name.size() + 3 - begin);
    }
    for (bool ws : {false, true}) {
      ParserOptions options;
      options.report_whitespace_text = ws;
      for (size_t chunk : {size_t{0}, size_t{7}, size_t{64 << 10}}) {
        ExpectSkipsMatchOracle(doc, spans, options, chunk,
                               "xmark seed " + std::to_string(seed) +
                                   " chunk " + std::to_string(chunk));
      }
    }
  }
}

}  // namespace
}  // namespace xaos::xml
