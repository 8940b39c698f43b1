// Robustness tests for the streaming parser: adversarial and mutated
// inputs must produce a clean Status (never a crash, hang, or inconsistent
// event stream), and chunking must never change the outcome.

#include <random>
#include <string>
#include <vector>

#include "gen/random_workload.h"
#include "gtest/gtest.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace xaos::xml {
namespace {

// Handler that checks event-stream invariants (balance, nesting).
class InvariantHandler : public ContentHandler {
 public:
  void StartDocument() override {
    EXPECT_FALSE(started_);
    started_ = true;
  }
  void EndDocument() override {
    EXPECT_TRUE(started_);
    EXPECT_EQ(depth_, 0);
    ended_ = true;
  }
  void StartElement(const QName& name, AttributeSpan) override {
    EXPECT_TRUE(started_ && !ended_);
    EXPECT_FALSE(name.text.empty());
    ++depth_;
    ++elements_;
  }
  void EndElement(std::string_view) override {
    EXPECT_GT(depth_, 0);
    --depth_;
  }
  void Characters(std::string_view text) override {
    EXPECT_GT(depth_, 0);  // whitespace-only runs are dropped by default
    EXPECT_FALSE(text.empty());
  }

  int elements() const { return elements_; }

 private:
  bool started_ = false;
  bool ended_ = false;
  int depth_ = 0;
  int elements_ = 0;
};

// Parses and returns ok-ness; the handler asserts stream invariants even
// for documents that eventually fail.
bool TryParse(const std::string& doc) {
  InvariantHandler handler;
  return ParseString(doc, &handler).ok();
}

TEST(ParserRobustnessTest, RandomPrintableGarbage) {
  std::mt19937_64 rng(42);
  const std::string charset =
      "<>/=\"' abcdefgh&;![]-?0123456789\n\tCDATA";
  for (int round = 0; round < 500; ++round) {
    std::string doc;
    size_t len = rng() % 200;
    for (size_t i = 0; i < len; ++i) {
      doc.push_back(charset[rng() % charset.size()]);
    }
    TryParse(doc);  // must not crash; ok-ness irrelevant
  }
}

TEST(ParserRobustnessTest, MutatedValidDocuments) {
  std::mt19937_64 rng(7);
  auto workload = gen::GenerateWorkload({}, {.target_elements = 120}, 3);
  ASSERT_TRUE(workload.ok());
  const std::string& base = workload->document;
  int still_valid = 0;
  for (int round = 0; round < 1000; ++round) {
    std::string doc = base;
    int mutations = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations; ++m) {
      size_t pos = rng() % doc.size();
      switch (rng() % 3) {
        case 0:
          doc[pos] = static_cast<char>('!' + rng() % 90);
          break;
        case 1:
          doc.erase(pos, 1);
          break;
        case 2:
          doc.insert(pos, 1, static_cast<char>('!' + rng() % 90));
          break;
      }
    }
    if (TryParse(doc)) ++still_valid;
  }
  // Some mutations hit text content and stay well-formed; most break.
  EXPECT_GT(still_valid, 0);
  EXPECT_LT(still_valid, 1000);
}

TEST(ParserRobustnessTest, TruncationsAlwaysFailCleanly) {
  const std::string doc =
      "<?xml version=\"1.0\"?><a x=\"1&amp;\"><!--c--><b><![CDATA[z]]>"
      "t</b></a>";
  for (size_t cut = 0; cut < doc.size() - 1; ++cut) {
    InvariantHandler handler;
    Status status = ParseString(doc.substr(0, cut), &handler);
    EXPECT_FALSE(status.ok()) << "truncated at " << cut;
  }
  EXPECT_TRUE(TryParse(doc));
}

// The outcome of one chunked parse must match the one-shot parse: the same
// events, and for a malformed document the same Status — code and full
// message, line and column included. Limit rejections depend on how much
// input is buffered by design, so only their code must match.
void ExpectSameOutcome(const Status& got, const Status& want,
                       const std::string& doc) {
  EXPECT_EQ(got.code(), want.code()) << doc;
  if (want.code() != StatusCode::kResourceExhausted) {
    EXPECT_EQ(got.message(), want.message()) << doc;
  }
}

TEST(ParserRobustnessTest, ChunkingNeverChangesOutcome) {
  std::mt19937_64 rng(11);
  // A handful of tricky docs, some valid and some not.
  const std::vector<std::string> docs = {
      "<a><b x='1'>t&amp;u</b><![CDATA[raw]]></a>",
      "<a><b></a></b>",
      "<a>&#xZZ;</a>",
      "<a><!-- c --><b/></a>",
      "<a>]]></a>",
      "<a x=\"v\" x=\"w\"/>",
      "<?xml version=\"1.0\"?><!DOCTYPE a [<!ENTITY e \"v\">]><a/>",
      // Errors inside character data, reported at the offending construct
      // whatever the chunk boundaries.
      "<r>text']]></r>",
      "<r>abc&am</r>",
      "<r>&#0;]]></r>",
      "<r>&&bogus;</r>",
      "<r>ok&amp;\x01&bad;</r>",
      "<r/>  \n  trailing",
      "<r>&" + std::string(40, 'e') + "</r>",
  };
  for (const std::string& doc : docs) {
    EventRecorder reference;
    const Status reference_status = ParseString(doc, &reference);
    for (int round = 0; round < 31; ++round) {
      EventRecorder chunked;
      SaxParser parser(&chunked);
      Status status;
      size_t i = 0;
      while (i < doc.size() && status.ok()) {
        // Round 0 feeds single bytes; the rest draw 1..7-byte chunks.
        size_t n = round == 0 ? 1 : 1 + rng() % 7;
        status = parser.Feed(std::string_view(doc).substr(i, n));
        i += n;
      }
      if (status.ok()) status = parser.Finish();
      ExpectSameOutcome(status, reference_status, doc);
      if (status.ok() && reference_status.ok()) {
        EXPECT_EQ(chunked.events(), reference.events()) << doc;
      }
    }
  }
}

TEST(ParserRobustnessTest, VeryLongTokens) {
  // 1 MB attribute value and text run; exercise buffer compaction.
  std::string big(1 << 20, 'x');
  EXPECT_TRUE(TryParse("<a v=\"" + big + "\">" + big + "</a>"));
  // Long tag name.
  std::string name(10000, 'n');
  EXPECT_TRUE(TryParse("<" + name + "/>"));
}

TEST(ParserRobustnessTest, ManySiblingsAndDeepNesting) {
  std::string wide = "<r>";
  for (int i = 0; i < 50000; ++i) wide += "<x/>";
  wide += "</r>";
  InvariantHandler handler;
  ASSERT_TRUE(ParseString(wide, &handler).ok());
  EXPECT_EQ(handler.elements(), 50001);

  std::string deep;
  for (int i = 0; i < 10000; ++i) deep += "<d>";
  for (int i = 0; i < 10000; ++i) deep += "</d>";
  EXPECT_TRUE(TryParse(deep));
}

TEST(ParserRobustnessTest, NonAsciiBytesInNamesAndText) {
  // Bytes >= 0x80 are accepted in names (UTF-8 tolerant mode).
  EXPECT_TRUE(TryParse("<caf\xC3\xA9>\xC3\xBC</caf\xC3\xA9>"));
  // But names cannot start with a digit or symbol.
  EXPECT_FALSE(TryParse("<9a/>"));
  EXPECT_FALSE(TryParse("<-a/>"));
}

TEST(ParserRobustnessTest, FeedAfterErrorKeepsFailing) {
  InvariantHandler handler;
  SaxParser parser(&handler);
  ASSERT_FALSE(parser.Feed("<a></b>").ok());
  EXPECT_FALSE(parser.Feed("<c/>").ok());
  EXPECT_FALSE(parser.Finish().ok());
}

TEST(ParserRobustnessTest, FeedAfterFinishRejected) {
  InvariantHandler handler;
  SaxParser parser(&handler);
  ASSERT_TRUE(parser.Feed("<a/>").ok());
  ASSERT_TRUE(parser.Finish().ok());
  EXPECT_FALSE(parser.Feed("<b/>").ok());
}

}  // namespace
}  // namespace xaos::xml
