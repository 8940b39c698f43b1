// Cross-cutting property tests: semantic equivalences that must hold for
// arbitrary documents and queries, checked over randomized inputs.

#include <algorithm>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "baseline/brute_force_matcher.h"
#include "baseline/compare.h"
#include "core/multi_engine.h"
#include "core/xaos_engine.h"
#include "dom/dom_builder.h"
#include "dom/serializer.h"
#include "gen/random_workload.h"
#include "gtest/gtest.h"
#include "query/reroot.h"
#include "query/xtree_builder.h"
#include "xml/sax_parser.h"

namespace xaos {
namespace {

std::vector<baseline::CanonicalItem> Canon(const core::QueryResult& result) {
  return baseline::CanonicalFromResult(result);
}

core::QueryResult MustEval(const std::string& expr, const std::string& xml,
                           core::EngineOptions options = {}) {
  auto result = core::EvaluateStreaming(expr, xml, options);
  EXPECT_TRUE(result.ok()) << result.status() << " for " << expr;
  return result.ok() ? *result : core::QueryResult{};
}

// --- serialization round trips ---------------------------------------------

class RoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripTest, SerializeParseSerializeIsIdentity) {
  auto workload =
      gen::GenerateWorkload({}, {.target_elements = 300}, GetParam());
  ASSERT_TRUE(workload.ok());
  auto doc = dom::ParseToDocument(workload->document);
  ASSERT_TRUE(doc.ok());
  std::string once = dom::SerializeDocument(*doc);
  auto doc2 = dom::ParseToDocument(once);
  ASSERT_TRUE(doc2.ok()) << doc2.status();
  EXPECT_EQ(dom::SerializeDocument(*doc2), once);
  EXPECT_EQ(doc2->element_count(), doc->element_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest,
                         ::testing::Range<uint64_t>(0, 20));

// --- capture correctness ----------------------------------------------------

class CapturePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CapturePropertyTest, CapturedXmlEqualsDomSubtree) {
  auto workload =
      gen::GenerateWorkload({}, {.target_elements = 400}, GetParam());
  ASSERT_TRUE(workload.ok());
  core::EngineOptions options;
  options.capture_output_subtrees = true;
  core::QueryResult result =
      MustEval(workload->expression, workload->document, options);

  auto doc = dom::ParseToDocument(workload->document);
  ASSERT_TRUE(doc.ok());
  std::vector<uint32_t> ordinals = baseline::ComputeElementOrdinals(*doc);

  for (const core::OutputItem& item : result.items) {
    if (item.info.kind != query::DocNodeKind::kElement) continue;
    // Locate the DOM node with the same element ordinal.
    dom::NodeId node = dom::kInvalidNode;
    for (dom::NodeId id = 0; id < doc->node_count(); ++id) {
      if (doc->IsElement(id) && ordinals[id] == item.info.ordinal) {
        node = id;
        break;
      }
    }
    ASSERT_NE(node, dom::kInvalidNode);
    EXPECT_EQ(item.captured_xml, dom::SerializeSubtree(*doc, node))
        << workload->expression;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapturePropertyTest,
                         ::testing::Range<uint64_t>(100, 120));

// --- or-semantics ------------------------------------------------------------

class OrSemanticsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrSemanticsTest, OrEqualsUnionOfBranches) {
  std::mt19937_64 rng(GetParam());
  gen::RandomQueryOptions options;
  options.node_tests = 3;
  xpath::LocationPath base = gen::GenerateRandomPath(options, rng);
  auto doc = gen::GenerateDocumentForPath(
      base, {.target_elements = 500, .max_noise_depth = 6}, rng);
  ASSERT_TRUE(doc.ok());

  char l1 = static_cast<char>('A' + rng() % 8);
  char l2 = static_cast<char>('A' + rng() % 8);
  std::string stem = xpath::ToString(base);
  std::string with_or = stem + "[" + std::string(1, l1) + " or " +
                        std::string(1, l2) + "]";
  std::string branch1 = stem + "[" + std::string(1, l1) + "]";
  std::string branch2 = stem + "[" + std::string(1, l2) + "]";

  auto merged = Canon(MustEval(with_or, *doc));
  auto a = Canon(MustEval(branch1, *doc));
  auto b = Canon(MustEval(branch2, *doc));
  std::set<baseline::CanonicalItem> expected(a.begin(), a.end());
  expected.insert(b.begin(), b.end());
  EXPECT_EQ(merged,
            (std::vector<baseline::CanonicalItem>(expected.begin(),
                                                  expected.end())))
      << with_or;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrSemanticsTest,
                         ::testing::Range<uint64_t>(200, 230));

// --- intersection semantics --------------------------------------------------

class IntersectSemanticsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntersectSemanticsTest, IntersectEqualsSetIntersection) {
  std::mt19937_64 rng(GetParam());
  // Two random queries forced to share their output label.
  gen::RandomQueryOptions options;
  options.node_tests = 3;
  xpath::LocationPath p1 = gen::GenerateRandomPath(options, rng);
  xpath::LocationPath p2 = gen::GenerateRandomPath(options, rng);
  p2.steps.back().test = p1.steps.back().test;

  auto doc = gen::GenerateDocumentForPath(
      p1, {.target_elements = 600, .max_noise_depth = 6}, rng);
  ASSERT_TRUE(doc.ok());

  auto t1 = query::BuildXTree(p1);
  auto t2 = query::BuildXTree(p2);
  ASSERT_TRUE(t1.ok() && t2.ok());
  auto merged = query::Intersect(*t1, *t2);
  ASSERT_TRUE(merged.ok()) << merged.status();

  core::XaosEngine engine(&*merged);
  ASSERT_TRUE(xml::ParseString(*doc, &engine).ok());
  auto via_intersect = Canon(engine.result());

  auto r1 = Canon(MustEval(xpath::ToString(p1), *doc));
  auto r2 = Canon(MustEval(xpath::ToString(p2), *doc));
  std::vector<baseline::CanonicalItem> expected;
  std::set_intersection(r1.begin(), r1.end(), r2.begin(), r2.end(),
                        std::back_inserter(expected));
  EXPECT_EQ(via_intersect, expected)
      << xpath::ToString(p1) << "  ∩  " << xpath::ToString(p2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntersectSemanticsTest,
                         ::testing::Range<uint64_t>(300, 330));

// --- tuple semantics ---------------------------------------------------------

class TupleSemanticsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TupleSemanticsTest, TuplesMatchBruteForce) {
  std::mt19937_64 rng(GetParam());
  gen::RandomQueryOptions options;
  options.node_tests = 4;
  xpath::LocationPath path = gen::GenerateRandomPath(options, rng);
  // Mark two random steps as outputs.
  path.steps.front().output_marked = true;
  path.steps.back().output_marked = true;

  auto doc = gen::GenerateDocumentForPath(
      path, {.target_elements = 300, .max_noise_depth = 5}, rng);
  ASSERT_TRUE(doc.ok());
  auto tree = query::BuildXTree(path);
  ASSERT_TRUE(tree.ok());

  core::XaosEngine engine(&*tree);
  ASSERT_TRUE(xml::ParseString(*doc, &engine).ok());
  core::TupleEnumeration tuples = engine.OutputTuples(1'000'000);
  ASSERT_TRUE(tuples.complete);

  auto dom = dom::ParseToDocument(*doc);
  ASSERT_TRUE(dom.ok());
  baseline::BruteForceOutcome oracle =
      baseline::BruteForceMatch(*dom, *tree, 20'000'000);
  ASSERT_TRUE(oracle.complete);

  // Compare tuple sets via canonical item lists.
  std::set<std::vector<baseline::CanonicalItem>> engine_tuples;
  for (const core::OutputTuple& tuple : tuples.tuples) {
    std::vector<baseline::CanonicalItem> canon;
    for (const core::ElementInfo& info : tuple) {
      core::OutputItem item;
      item.info = info;
      canon.push_back(baseline::CanonicalFromOutputItem(item));
    }
    engine_tuples.insert(std::move(canon));
  }
  std::set<std::vector<baseline::CanonicalItem>> oracle_tuples(
      oracle.tuples.begin(), oracle.tuples.end());
  EXPECT_EQ(engine_tuples, oracle_tuples) << xpath::ToString(path);
}

// A random document over tags a/b/c whose elements carry `id` / `x`
// attributes and interleave text with child elements, so attribute, text()
// and wildcard outputs all have candidates.
std::string RandomAttributeTextDocument(std::mt19937_64& rng, int elements) {
  const char* const kTags[] = {"a", "b", "c"};
  const char* const kAttrs[] = {"id", "x"};
  const char* const kWords[] = {"red", "green", "blue"};
  std::string xml;
  int remaining = elements;
  std::function<void(int)> element = [&](int depth) {
    --remaining;
    const char* tag = kTags[rng() % 3];
    xml += "<";
    xml += tag;
    for (const char* attr : kAttrs) {
      if (rng() % 2 == 0) {
        xml += std::string(" ") + attr + "=\"" + kWords[rng() % 3] + "\"";
      }
    }
    xml += ">";
    int children = depth < 5 ? static_cast<int>(rng() % 4) : 0;
    for (int i = 0; i < children && remaining > 0; ++i) {
      if (rng() % 3 == 0) xml += kWords[rng() % 3];
      element(depth + 1);
    }
    if (rng() % 2 == 0) xml += kWords[rng() % 3];
    xml += "</";
    xml += tag;
    xml += ">";
  };
  xml += "<r>";
  while (remaining > 0) element(1);
  xml += "</r>";
  return xml;
}

// Output items are rebuilt from a compact record: a named test's name from
// the x-node, wildcard names and attribute/text values from the engine's
// byte arena. Tuples over such outputs must equal the brute-force
// matcher's, names and values included.
TEST_P(TupleSemanticsTest, AttributeTextAndWildcardOutputs) {
  std::mt19937_64 rng(GetParam());
  const std::string doc = RandomAttributeTextDocument(rng, 120);
  auto dom = dom::ParseToDocument(doc);
  ASSERT_TRUE(dom.ok());
  for (const char* expression :
       {"//$*/$@*", "//$a/$text()", "//$*[@id]/$@x", "//$b//$*/$text()",
        "//$*/$@id", "//a/$*/$text()", "//$c/$*", "//*/$@*"}) {
    auto trees = query::CompileToXTrees(expression);
    ASSERT_TRUE(trees.ok()) << expression;
    ASSERT_EQ(trees->size(), 1u) << expression;
    const query::XTree& tree = trees->front();

    core::XaosEngine engine(&tree);
    ASSERT_TRUE(xml::ParseString(doc, &engine).ok());
    core::TupleEnumeration tuples = engine.OutputTuples(1'000'000);
    ASSERT_TRUE(tuples.complete) << expression;
    baseline::BruteForceOutcome oracle =
        baseline::BruteForceMatch(*dom, tree, 20'000'000);
    ASSERT_TRUE(oracle.complete) << expression;

    std::set<std::vector<baseline::CanonicalItem>> engine_tuples;
    for (const core::OutputTuple& tuple : tuples.tuples) {
      std::vector<baseline::CanonicalItem> canon;
      for (const core::ElementInfo& info : tuple) {
        core::OutputItem item;
        item.info = info;
        canon.push_back(baseline::CanonicalFromOutputItem(item));
      }
      engine_tuples.insert(std::move(canon));
    }
    std::set<std::vector<baseline::CanonicalItem>> oracle_tuples(
        oracle.tuples.begin(), oracle.tuples.end());
    EXPECT_EQ(engine_tuples, oracle_tuples) << expression << " on " << doc;
    // Canonical items identify a text node by its owner's ordinal and its
    // value, so two equal text runs of one element collapse into one entry
    // (the oracle's item list is duplicate-free).
    std::vector<baseline::CanonicalItem> items =
        baseline::CanonicalFromResult(engine.result());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    EXPECT_EQ(items, oracle.items) << expression << " on " << doc;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TupleSemanticsTest,
                         ::testing::Range<uint64_t>(400, 430));

// --- confirmation properties --------------------------------------------------

class ConfirmationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConfirmationPropertyTest, ConfirmationIsSoundAndStopModeAgrees) {
  auto workload =
      gen::GenerateWorkload({}, {.target_elements = 500}, GetParam());
  ASSERT_TRUE(workload.ok());
  auto trees = query::CompileToXTrees(workload->expression);
  ASSERT_TRUE(trees.ok());

  // Full run, tracking whether confirmation ever fired mid-stream.
  core::XaosEngine engine(&trees->front());
  xml::SaxParser parser(&engine);
  bool confirmed_midstream = false;
  const std::string& doc = workload->document;
  for (size_t i = 0; i < doc.size(); i += 97) {
    ASSERT_TRUE(parser.Feed(std::string_view(doc).substr(i, 97)).ok());
    confirmed_midstream = confirmed_midstream || engine.match_confirmed();
  }
  ASSERT_TRUE(parser.Finish().ok());

  // Soundness: a mid-stream confirmation implies a final match.
  if (confirmed_midstream) {
    EXPECT_TRUE(engine.Matched()) << workload->expression;
  }

  // Early-stop mode returns the same boolean verdict.
  core::EngineOptions stop;
  stop.stop_after_confirmed_match = true;
  core::XaosEngine stopper(&trees->front(), stop);
  ASSERT_TRUE(xml::ParseString(doc, &stopper).ok());
  EXPECT_EQ(stopper.Matched(), engine.Matched()) << workload->expression;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfirmationPropertyTest,
                         ::testing::Range<uint64_t>(500, 560));

// --- engine accounting ---------------------------------------------------------

class AccountingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AccountingTest, StatsInvariants) {
  auto workload =
      gen::GenerateWorkload({}, {.target_elements = 400}, GetParam());
  ASSERT_TRUE(workload.ok());
  auto trees = query::CompileToXTrees(workload->expression);
  ASSERT_TRUE(trees.ok());
  auto engine = std::make_unique<core::XaosEngine>(&trees->front());
  ASSERT_TRUE(xml::ParseString(workload->document, &*engine).ok());

  const core::EngineStats& stats = engine->stats();
  EXPECT_LE(stats.elements_discarded, stats.elements_total);
  EXPECT_LE(stats.structures_live, stats.structures_created);
  EXPECT_LE(stats.structures_live, stats.structures_live_peak);
  EXPECT_LE(stats.structures_undone, stats.structures_created);

  // Every result item must be backed by a live structure.
  if (!engine->result().items.empty()) {
    EXPECT_GT(stats.structures_live, 0u);
  }
  // Processing an unmatched document releases (almost) everything.
  ASSERT_TRUE(xml::ParseString("<zzz/>", &*engine).ok());
  EXPECT_LE(engine->stats().structures_live, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccountingTest,
                         ::testing::Range<uint64_t>(600, 640));

}  // namespace
}  // namespace xaos
