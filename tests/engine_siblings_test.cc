// Sibling axes (following-sibling / preceding-sibling): the paper states
// χαoς "can be extended to handle all thirteen axis specifiers"; this suite
// exercises that extension, including the deferred-satisfaction machinery
// (a closed element's following siblings arrive later) and its interaction
// with optimistic undo.

#include <string>
#include <vector>

#include "baseline/brute_force_matcher.h"
#include "baseline/compare.h"
#include "baseline/navigational_engine.h"
#include "core/multi_engine.h"
#include "dom/dom_builder.h"
#include "gen/random_workload.h"
#include "gtest/gtest.h"
#include "query/xtree_builder.h"
#include "test_util.h"
#include "xml/sax_parser.h"

namespace xaos {
namespace {

using test::EvalStreaming;
using test::Names;
using test::Ordinals;

TEST(SiblingTest, FollowingSiblingStep) {
  const std::string xml = "<r><a/><b/><a/><c/></r>";
  // Elements after each a under the same parent.
  auto items = EvalStreaming("//a/following-sibling::*", xml);
  EXPECT_EQ(Names(items), (std::vector<std::string>{"b", "a", "c"}));
  items = EvalStreaming("//a/following-sibling::c", xml);
  EXPECT_EQ(Ordinals(items), (std::vector<uint32_t>{5}));
}

TEST(SiblingTest, PrecedingSiblingStep) {
  const std::string xml = "<r><a/><b/><a/><c/></r>";
  auto items = EvalStreaming("//c/preceding-sibling::a", xml);
  EXPECT_EQ(Ordinals(items), (std::vector<uint32_t>{2, 4}));
  EXPECT_TRUE(EvalStreaming("//b/preceding-sibling::c", xml).empty());
}

TEST(SiblingTest, SiblingsRequireSameParent) {
  // b is in a different subtree: not a sibling of a.
  const std::string xml = "<r><k><a/></k><b/></r>";
  EXPECT_TRUE(EvalStreaming("//a/following-sibling::b", xml).empty());
  EXPECT_TRUE(EvalStreaming("//b/preceding-sibling::a", xml).empty());
  // But at the right level, it works.
  EXPECT_EQ(EvalStreaming("//k/following-sibling::b", xml).size(), 1u);
}

TEST(SiblingTest, FollowingSiblingPredicateIsDeferred) {
  // At </a> the sibling b has not been seen: the a-matching must stay
  // pending and complete when b closes.
  const std::string xml = "<r><a/><x/><b/></r>";
  auto items = EvalStreaming("//a[following-sibling::b]", xml);
  EXPECT_EQ(Ordinals(items), (std::vector<uint32_t>{2}));
  // And fail cleanly when b never arrives.
  EXPECT_TRUE(EvalStreaming("//a[following-sibling::b]",
                            "<r><a/><x/></r>")
                  .empty());
}

TEST(SiblingTest, PrecedingSiblingPredicate) {
  const std::string xml = "<r><b/><a/><a/></r>";
  auto items = EvalStreaming("//a[preceding-sibling::b]", xml);
  EXPECT_EQ(Ordinals(items), (std::vector<uint32_t>{3, 4}));
}

TEST(SiblingTest, ChainedSiblingSteps) {
  const std::string xml = "<r><a/><b/><c/></r>";
  auto items =
      EvalStreaming("//a/following-sibling::b/following-sibling::c", xml);
  EXPECT_EQ(Ordinals(items), (std::vector<uint32_t>{4}));
  items = EvalStreaming("//c/preceding-sibling::b/preceding-sibling::a", xml);
  EXPECT_EQ(Ordinals(items), (std::vector<uint32_t>{2}));
}

TEST(SiblingTest, SiblingWithDescendantConstraint) {
  const std::string xml =
      "<r><a/><b><k/></b><a/><b/></r>";
  // a's with a following b sibling that contains k.
  auto items = EvalStreaming("//a[following-sibling::b[k]]", xml);
  EXPECT_EQ(Ordinals(items), (std::vector<uint32_t>{2}));
}

TEST(SiblingTest, DeferredCompletionCascades) {
  // Chain of deferred completions: a needs fs b, which needs fs c.
  const std::string xml = "<r><a/><b/><c/></r>";
  auto items = EvalStreaming(
      "//a[following-sibling::b[following-sibling::c]]", xml);
  EXPECT_EQ(Ordinals(items), (std::vector<uint32_t>{2}));
  EXPECT_TRUE(EvalStreaming(
                  "//a[following-sibling::b[following-sibling::c]]",
                  "<r><a/><b/></r>")
                  .empty());
}

TEST(SiblingTest, RetractionWhenOptimisticSiblingDies) {
  // b qualifies only optimistically (its own ancestor-z-with-v is pending);
  // the a[fs::b] matching must first complete and then be retracted when
  // b's condition fails, and survive when a second valid b arrives.
  const std::string xml_fail =
      "<r><z><a/><b><w/></b></z></r>";
  // //a[following-sibling::b[w/ancestor::z[q]]] — z has no q: b's predicate
  // fails after optimistic adoption.
  auto items = EvalStreaming(
      "//a[following-sibling::b[w/ancestor::z[q]]]", xml_fail);
  EXPECT_TRUE(items.empty());

  const std::string xml_ok = "<r><z><q/><a/><b><w/></b></z></r>";
  items = EvalStreaming(
      "//a[following-sibling::b[w/ancestor::z[q]]]", xml_ok);
  EXPECT_EQ(items.size(), 1u);
}

TEST(SiblingTest, MixedWithBackwardAxes) {
  const std::string xml =
      "<r><g><m/><a/><x><w/></x></g><g><a/><x><w/></x></g></r>";
  // w's whose x parent has a preceding sibling a preceded by m.
  auto items = EvalStreaming(
      "//w/parent::x/preceding-sibling::a[preceding-sibling::m]", xml);
  EXPECT_EQ(Ordinals(items), (std::vector<uint32_t>{4}));
}

TEST(SiblingTest, RecursiveSiblingsUnderNestedParents) {
  const std::string xml = "<r><a><a/><b/></a><b/></r>";
  auto items = EvalStreaming("//a/following-sibling::b", xml);
  // Inner a(3) has sibling b(4); outer a(2) has sibling b(5).
  EXPECT_EQ(Ordinals(items), (std::vector<uint32_t>{4, 5}));
}

TEST(SiblingTest, ConfirmationWaitsForSibling) {
  auto trees = query::CompileToXTrees("//a[following-sibling::b]");
  ASSERT_TRUE(trees.ok());
  core::XaosEngine engine(&trees->front());
  const std::string xml = "<r><a/><x/><b/><y/></r>";
  xml::SaxParser parser(&engine);
  size_t b_end = xml.find("<b/>") + 4;
  for (size_t i = 0; i < xml.size(); ++i) {
    ASSERT_TRUE(parser.Feed(std::string_view(xml).substr(i, 1)).ok());
    if (i + 1 < b_end) {
      EXPECT_FALSE(engine.match_confirmed()) << "confirmed at byte " << i + 1;
    }
  }
  ASSERT_TRUE(parser.Finish().ok());
  EXPECT_TRUE(engine.match_confirmed());
}

// A following-sibling propagation walks the parent frame's list of closed
// preceding siblings while it links into them, and each link can run a
// confirmation cascade or a deferred completion that walks the same list
// again (nested). Undo cascades leave that list holding dead and retracted
// (pending again) entries: here b's optimistic ancestor::z[q] fails when a
// z without q closes, which undoes the b's and retracts the a's they
// completed, and in the next z later siblings propagate into a list whose
// entries earlier cascades changed. The walk must skip the dead entries
// and relink the retracted ones, at every chunking.
TEST(SiblingTest, PropagationOverClosedListChangedByUndo) {
  const std::string xml =
      "<r>"
      "<z><a/><b><w/></b><a/><b><w/></b><c/></z>"
      "<z><q/><a/><b><w/></b><a/><x/><b><w/></b><c/><a/><c/></z>"
      "<z><a/><b/><a/><b><w/></b><c/><b><w/></b><c/></z>"
      "</r>";
  for (const char* expression :
       {"//a[following-sibling::b[w/ancestor::z[q]]]",
        "//a[following-sibling::b[following-sibling::c]]",
        "//$a/following-sibling::$b[w/ancestor::z[q]]",
        "//a[following-sibling::b[w/ancestor::z[q]][following-sibling::c]]"}) {
    const test::BruteForceAnswer want = test::EvalBruteForce(expression, xml);
    auto trees = query::CompileToXTrees(expression);
    ASSERT_TRUE(trees.ok()) << expression;
    ASSERT_EQ(trees->size(), 1u) << expression;
    for (size_t chunk : {size_t{1}, size_t{7}, xml.size()}) {
      core::XaosEngine engine(&trees->front());
      xml::SaxParser parser(&engine);
      for (size_t i = 0; i < xml.size(); i += chunk) {
        ASSERT_TRUE(parser.Feed(std::string_view(xml).substr(i, chunk)).ok());
      }
      ASSERT_TRUE(parser.Finish().ok());
      EXPECT_EQ(engine.Matched(), want.matched) << expression;
      EXPECT_EQ(baseline::CanonicalFromResult(engine.result()), want.items)
          << expression << " chunk " << chunk;
    }
  }
  // The first expression really does undo adopted b's (and, through them,
  // retract the a's they completed).
  auto trees = query::CompileToXTrees(
      "//a[following-sibling::b[w/ancestor::z[q]]]");
  ASSERT_TRUE(trees.ok());
  core::XaosEngine engine(&trees->front());
  ASSERT_TRUE(xml::ParseString(xml, &engine).ok());
  EXPECT_GT(engine.stats().structures_undone, 0u);
  EXPECT_EQ(Ordinals(baseline::CanonicalFromResult(engine.result())),
            (std::vector<uint32_t>{12, 15}));
}

// Differential sweep with sibling axes enabled in the random generator.
class SiblingDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SiblingDifferentialTest, EnginesAgree) {
  gen::RandomQueryOptions query_options;
  query_options.allow_siblings = true;
  gen::RandomDocOptions doc_options;
  doc_options.target_elements = 500;
  doc_options.max_noise_depth = 6;

  auto workload =
      gen::GenerateWorkload(query_options, doc_options, GetParam());
  ASSERT_TRUE(workload.ok()) << workload.status();

  auto streaming =
      core::EvaluateStreaming(workload->expression, workload->document);
  ASSERT_TRUE(streaming.ok())
      << streaming.status() << " for " << workload->expression;
  auto doc = dom::ParseToDocument(workload->document);
  ASSERT_TRUE(doc.ok());

  baseline::NavigationalEngine nav(&*doc);
  auto nav_refs = nav.Evaluate(workload->expression);
  ASSERT_TRUE(nav_refs.ok());

  auto trees = query::CompileToXTrees(workload->expression);
  ASSERT_TRUE(trees.ok());
  std::set<baseline::CanonicalItem> oracle_items;
  for (const query::XTree& tree : *trees) {
    auto outcome = baseline::BruteForceMatch(*doc, tree, 20'000'000);
    ASSERT_TRUE(outcome.complete);
    oracle_items.insert(outcome.items.begin(), outcome.items.end());
  }

  auto streaming_items = baseline::CanonicalFromResult(*streaming);
  auto nav_items = baseline::CanonicalFromRefs(*doc, *nav_refs);
  std::vector<baseline::CanonicalItem> oracle(oracle_items.begin(),
                                              oracle_items.end());
  EXPECT_EQ(streaming_items, nav_items) << workload->expression;
  EXPECT_EQ(streaming_items, oracle) << workload->expression;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SiblingDifferentialTest,
                         ::testing::Range<uint64_t>(5000, 5100));

}  // namespace
}  // namespace xaos
