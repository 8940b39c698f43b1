// Dispatch differential tests. Every event reaches the engines through one
// dispatch (EngineFleet::ReplayRun, with the shared matcher stepping through
// its flattened transition tables), fed either by BatchedDispatcher with
// whole batches or by the evaluators' direct ContentHandler overrides with
// one live event at a time. Verdicts and items of both feeds must equal the
// independent src/baseline oracles (NavigationalEngine for single-output
// queries, BruteForceMatch for tuple queries) over the axis corpus, random
// workloads, chunked feeds and ParallelFleet shardings; captures and the
// earliest-emission order must agree between the two feeds at every batch
// budget. Plus the pool-return double-release regression for mid-batch
// aborts, and the shared matcher's interner compaction.

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "baseline/brute_force_matcher.h"
#include "baseline/compare.h"
#include "baseline/navigational_engine.h"
#include "core/batched_dispatch.h"
#include "core/multi_engine.h"
#include "core/parallel_fleet.h"
#include "core/shared_index.h"
#include "dom/dom_builder.h"
#include "gen/random_workload.h"
#include "gtest/gtest.h"
#include "query/xtree_builder.h"
#include "xml/sax_parser.h"

namespace xaos {
namespace {

const char kAxisDoc[] =
    "<a k=\"1\"><b><a><c/></a><d/></b><c/>"
    "<b x=\"y\"><c/><a/><e>text</e></b></a>";

// 17 expressions mixing shared-backend chains, per-engine queries (backward
// axes, predicates, attributes, text, a tuple) and byte-identical
// duplicates, so every dispatch backend and the alias fan-out run through
// the batch loop.
const char* const kAxisCorpus[] = {
    "/a/b/c",          "/a/b/c",
    "//a//c",          "//c",
    "/a/*/c",          "//*",
    "//b/a",           "//zzz",
    "//c/ancestor::a", "//b[c]/a | //a[c]",
    "//b[@x]",         "//c/following-sibling::a",
    "//e[text()='text']",
    "//d",             "/a/b//c",
    "//b/e",           "//$b/$c",
};

std::vector<std::string> AxisExpressions() {
  return std::vector<std::string>(kAxisCorpus,
                                  kAxisCorpus + std::size(kAxisCorpus));
}

std::vector<core::Query> CompileAll(
    const std::vector<std::string>& expressions) {
  std::vector<core::Query> queries;
  for (const std::string& expression : expressions) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    EXPECT_TRUE(query.ok()) << expression << ": " << query.status();
    if (query.ok()) queries.push_back(std::move(*query));
  }
  return queries;
}

void ParseInto(const std::string& xml, xml::ContentHandler* handler,
               size_t chunk) {
  if (chunk == 0) {
    ASSERT_TRUE(xml::ParseString(xml, handler).ok());
    return;
  }
  xml::SaxParser parser(handler);
  for (size_t i = 0; i < xml.size(); i += chunk) {
    ASSERT_TRUE(parser.Feed(std::string_view(xml).substr(i, chunk)).ok());
  }
  ASSERT_TRUE(parser.Finish().ok());
}

struct Expected {
  bool matched = false;
  std::vector<baseline::CanonicalItem> items;
};

// The independent answer for each expression over `xml`, from the DOM:
// the navigational engine for single-output queries, the brute-force
// x-tree matcher (union over disjuncts) for tuple queries.
std::vector<Expected> OracleAnswers(const std::vector<std::string>& expressions,
                                    const std::string& xml) {
  std::vector<Expected> answers(expressions.size());
  StatusOr<dom::Document> doc = dom::ParseToDocument(xml);
  EXPECT_TRUE(doc.ok()) << doc.status();
  if (!doc.ok()) return answers;
  baseline::NavigationalEngine nav(&*doc);
  for (size_t q = 0; q < expressions.size(); ++q) {
    Expected& want = answers[q];
    if (expressions[q].find('$') == std::string::npos) {
      auto refs = nav.Evaluate(expressions[q]);
      EXPECT_TRUE(refs.ok()) << expressions[q] << ": " << refs.status();
      if (!refs.ok()) continue;
      want.items = baseline::CanonicalFromRefs(*doc, *refs);
      want.matched = !want.items.empty();
      continue;
    }
    auto trees = query::CompileToXTrees(expressions[q]);
    EXPECT_TRUE(trees.ok()) << expressions[q] << ": " << trees.status();
    if (!trees.ok()) continue;
    std::set<baseline::CanonicalItem> items;
    for (const query::XTree& tree : *trees) {
      baseline::BruteForceOutcome outcome = baseline::BruteForceMatch(*doc, tree);
      EXPECT_TRUE(outcome.complete) << expressions[q];
      want.matched = want.matched || outcome.matched;
      items.insert(outcome.items.begin(), outcome.items.end());
    }
    want.items.assign(items.begin(), items.end());
  }
  return answers;
}

// Requires `evaluator`'s verdicts and canonical items to equal `want`.
template <typename Evaluator>
void ExpectAnswers(const Evaluator& evaluator,
                   const std::vector<std::string>& expressions,
                   const std::vector<Expected>& want, const char* feed) {
  for (size_t q = 0; q < expressions.size(); ++q) {
    EXPECT_EQ(want[q].matched, evaluator.Matched(q))
        << feed << ": verdict mismatch for " << expressions[q];
    EXPECT_EQ(want[q].items,
              baseline::CanonicalFromResult(evaluator.Result(q)))
        << feed << ": result mismatch for " << expressions[q];
  }
}

// Everything an item reports except captured XML, for comparing feeds:
// node ids must agree too, not just the oracle's canonical form.
std::vector<std::string> ItemFields(const core::QueryResult& result) {
  std::vector<std::string> fields;
  for (const core::OutputItem& item : result.items) {
    const core::ElementInfo& info = item.info;
    fields.push_back(std::to_string(info.id) + "/" +
                     std::to_string(info.parent_id) + " " + info.ToString() +
                     " " + info.value);
  }
  return fields;
}

// Runs `expressions` over `xml` through (a) a BatchedDispatcher in front of
// a MultiQueryEvaluator and (b) the evaluator fed directly as a
// ContentHandler, and requires both to reproduce the baseline oracle.
// `batch_events` shrinks the batch budget so documents span many batches;
// `chunk` feeds the parser in chunk-byte slices (0 = one shot).
void ExpectMatchesOracle(const std::vector<std::string>& expressions,
                         const std::string& xml, size_t chunk = 0,
                         size_t batch_events = 8,
                         core::EngineOptions options = {}) {
  std::vector<core::Query> queries = CompileAll(expressions);
  ASSERT_EQ(queries.size(), expressions.size());
  core::MultiQueryEvaluator batched(options);
  core::MultiQueryEvaluator direct(options);
  for (const core::Query& query : queries) {
    batched.AddQuery(query);
    direct.AddQuery(query);
  }

  core::BatchedDispatchOptions dispatch_options;
  dispatch_options.max_batch_events = batch_events;
  core::BatchedDispatcher dispatcher(&batched, dispatch_options);
  ParseInto(xml, &dispatcher, chunk);
  ParseInto(xml, &direct, chunk);
  ASSERT_TRUE(batched.status().ok()) << batched.status();
  ASSERT_TRUE(direct.status().ok()) << direct.status();
  EXPECT_GT(dispatcher.batches_replayed(), 0u);

  const std::vector<Expected> want = OracleAnswers(expressions, xml);
  ExpectAnswers(batched, expressions, want, "batched");
  ExpectAnswers(direct, expressions, want, "direct");
  for (size_t q = 0; q < expressions.size(); ++q) {
    EXPECT_EQ(direct.MatchConfirmed(q), batched.MatchConfirmed(q))
        << "confirmation mismatch for " << expressions[q];
    EXPECT_EQ(ItemFields(direct.Result(q)), ItemFields(batched.Result(q)))
        << "item mismatch between feeds for " << expressions[q];
  }
}

TEST(BatchedDifferentialTest, AxisCorpus) {
  ExpectMatchesOracle(AxisExpressions(), kAxisDoc);
}

TEST(BatchedDifferentialTest, ChunkedFeeds) {
  // Chunked feeds shift where batch publishes land relative to element
  // boundaries; results must not care.
  for (size_t chunk : {1u, 7u, 64u}) {
    ExpectMatchesOracle(AxisExpressions(), kAxisDoc, chunk);
  }
}

TEST(BatchedDifferentialTest, SingleEventBatches) {
  // Degenerate budget: one event per batch maximizes boundary crossings.
  ExpectMatchesOracle(AxisExpressions(), kAxisDoc, /*chunk=*/0,
                      /*batch_events=*/1);
}

TEST(BatchedDifferentialTest, LeanTextKeepsNodeIds) {
  // No query reads text, so both feeds capture text and end-element events
  // lean; text runs must still consume node ids identically.
  ExpectMatchesOracle({"/a/b/c", "//c", "//b/a", "//c/ancestor::a", "//a[c]"},
                      "<a>t1<b>t2<c/>t3<a>x<c/>y</a></b>tail<c/>z</a>");
}

TEST(BatchedDifferentialTest, PerEngineBackendMatchesOracle) {
  // The shared automaton off: every subscription runs its own engines
  // behind the label index.
  core::EngineOptions options;
  options.enable_shared_index = false;
  ExpectMatchesOracle(AxisExpressions(), kAxisDoc, /*chunk=*/0,
                      /*batch_events=*/8, options);
}

// Feeds that must agree on captures and emission order: the evaluator fed
// directly, then BatchedDispatcher with 1- and 8-event budgets.
constexpr size_t kDirectFeed = 0;
constexpr size_t kFeeds[] = {kDirectFeed, 1, 8};

void ParseThroughFeed(const std::string& xml,
                      core::MultiQueryEvaluator* evaluator, size_t feed) {
  if (feed == kDirectFeed) {
    ParseInto(xml, evaluator, 0);
    return;
  }
  core::BatchedDispatchOptions dispatch_options;
  dispatch_options.max_batch_events = feed;
  core::BatchedDispatcher dispatcher(evaluator, dispatch_options);
  ParseInto(xml, &dispatcher, 0);
}

TEST(BatchedDifferentialTest, CapturesAreByteIdentical) {
  // Subtree capture disables the shared backend and keeps engines in the
  // always-dispatch set; captured XML must match byte-for-byte.
  std::vector<std::string> expressions = {"//b/c", "//e", "/a/b"};
  std::vector<core::Query> queries = CompileAll(expressions);
  core::EngineOptions options;
  options.capture_output_subtrees = true;
  std::vector<std::vector<core::QueryResult>> results;
  for (size_t feed : kFeeds) {
    core::MultiQueryEvaluator evaluator(options);
    for (const core::Query& query : queries) evaluator.AddQuery(query);
    ParseThroughFeed(kAxisDoc, &evaluator, feed);
    std::vector<core::QueryResult>& row = results.emplace_back();
    for (size_t q = 0; q < queries.size(); ++q) {
      row.push_back(evaluator.Result(q));
    }
  }
  const std::vector<Expected> want = OracleAnswers(expressions, kAxisDoc);
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(want[q].items, baseline::CanonicalFromResult(results[0][q]))
        << expressions[q];
    EXPECT_FALSE(results[0][q].items.empty()) << expressions[q];
    for (size_t f = 1; f < results.size(); ++f) {
      const core::QueryResult& expected = results[0][q];
      const core::QueryResult& actual = results[f][q];
      ASSERT_EQ(expected.items.size(), actual.items.size()) << expressions[q];
      for (size_t i = 0; i < expected.items.size(); ++i) {
        EXPECT_EQ(expected.items[i].info.id, actual.items[i].info.id);
        EXPECT_FALSE(expected.items[i].captured_xml.empty());
        EXPECT_EQ(expected.items[i].captured_xml, actual.items[i].captured_xml)
            << expressions[q] << " item " << i << " feed " << kFeeds[f];
      }
    }
  }
}

TEST(BatchedDifferentialTest, EarliestEmissionOrderMatches) {
  // Early items reach the sink in the same order on every feed (batching
  // only changes when buffered events are handed over, not their sequence).
  StatusOr<core::Query> query = core::Query::Compile("//b | //c");
  ASSERT_TRUE(query.ok());
  std::vector<std::vector<core::ElementId>> orders;
  for (size_t feed : kFeeds) {
    std::vector<core::ElementId>& emitted = orders.emplace_back();
    core::EngineOptions options;
    options.enable_shared_index = false;  // the sink is an engine feature
    options.early_item_sink = [&](const core::OutputItem& item) {
      emitted.push_back(item.info.id);
    };
    core::MultiQueryEvaluator evaluator(options);
    evaluator.AddQuery(*query);
    ParseThroughFeed(kAxisDoc, &evaluator, feed);
  }
  // Every oracle item is emitted early, exactly once.
  std::vector<Expected> want = OracleAnswers({"//b | //c"}, kAxisDoc);
  EXPECT_EQ(orders[0].size(), want[0].items.size());
  EXPECT_FALSE(orders[0].empty());
  for (size_t f = 1; f < orders.size(); ++f) {
    EXPECT_EQ(orders[0], orders[f]) << "feed " << kFeeds[f];
  }
}

TEST(BatchedDifferentialTest, DirectHandlerConfirmsAtTheExactEvent) {
  // A directly fed evaluator dispatches each event as it arrives: MatchConfirmed
  // and the early-item sink move at the confirming event, not later.
  std::vector<core::ElementId> emitted;
  core::EngineOptions options;
  options.early_item_sink = [&](const core::OutputItem& item) {
    emitted.push_back(item.info.id);
  };
  core::MultiQueryEvaluator evaluator(options);
  StatusOr<core::Query> shared = core::Query::Compile("/a/b/c");
  StatusOr<core::Query> engine = core::Query::Compile("//c[@k]");
  ASSERT_TRUE(shared.ok() && engine.ok());
  size_t shared_q = evaluator.AddQuery(*shared);
  size_t engine_q = evaluator.AddQuery(*engine);
  ASSERT_EQ(evaluator.shared_subscription_count(), 1u);

  const std::vector<xml::AttributeView> no_attrs;
  const std::vector<xml::AttributeView> k_attr = {
      xml::AttributeView{"k", "1", util::kInvalidSymbol}};
  evaluator.StartDocument();
  evaluator.StartElement(xml::QName("a"), xml::AttributeSpan(no_attrs));
  evaluator.StartElement(xml::QName("b"), xml::AttributeSpan(no_attrs));
  EXPECT_FALSE(evaluator.MatchConfirmed(shared_q));
  evaluator.StartElement(xml::QName("c"), xml::AttributeSpan(no_attrs));
  EXPECT_TRUE(evaluator.MatchConfirmed(shared_q));
  EXPECT_FALSE(evaluator.MatchConfirmed(engine_q));
  evaluator.EndElement("c");
  evaluator.StartElement(xml::QName("c"), xml::AttributeSpan(k_attr));
  // The engine proves an element's candidacy when the element closes.
  EXPECT_FALSE(evaluator.MatchConfirmed(engine_q));
  EXPECT_TRUE(emitted.empty());
  evaluator.EndElement("c");
  EXPECT_TRUE(evaluator.MatchConfirmed(engine_q));
  EXPECT_EQ(emitted.size(), 1u);
  evaluator.EndElement("b");
  evaluator.EndElement("a");
  evaluator.EndDocument();
  EXPECT_TRUE(evaluator.Matched(shared_q));
  EXPECT_TRUE(evaluator.Matched(engine_q));
  EXPECT_EQ(evaluator.Result(engine_q).items.size(), 1u);
}

TEST(BatchedDifferentialTest, FlushExposesMidStreamVerdicts) {
  StatusOr<core::Query> query = core::Query::Compile("/a/b/c");
  ASSERT_TRUE(query.ok());
  core::MultiQueryEvaluator evaluator;
  size_t q = evaluator.AddQuery(*query);
  core::BatchedDispatchOptions options;
  options.max_batch_events = 1024;  // nothing publishes on its own
  core::BatchedDispatcher dispatcher(&evaluator, options);
  xml::SaxParser parser(&dispatcher);
  ASSERT_TRUE(parser.Feed("<a><b><c/>").ok());
  dispatcher.Flush();
  EXPECT_TRUE(evaluator.MatchConfirmed(q));
  ASSERT_TRUE(parser.Feed("</b></a>").ok());
  ASSERT_TRUE(parser.Finish().ok());
  EXPECT_TRUE(evaluator.Matched(q));
}

// --- random workloads -------------------------------------------------------

class BatchedRandomDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchedRandomDifferentialTest, MatchesOracle) {
  uint64_t seed = GetParam();
  gen::RandomQueryOptions query_options;
  gen::RandomDocOptions doc_options;
  doc_options.target_elements = 300;
  doc_options.max_noise_depth = 6;

  // 3 workloads per seed x 30 seeds = 90 random (query, document) pairs;
  // each document runs the whole expression pool.
  std::vector<std::string> expressions;
  std::vector<std::string> documents;
  for (uint64_t i = 0; i < 3; ++i) {
    auto workload =
        gen::GenerateWorkload(query_options, doc_options, seed * 16 + i);
    ASSERT_TRUE(workload.ok()) << workload.status();
    expressions.push_back(workload->expression);
    documents.push_back(workload->document);
  }
  for (const std::string& document : documents) {
    ExpectMatchesOracle(expressions, document, /*chunk=*/0,
                        /*batch_events=*/64);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedRandomDifferentialTest,
                         ::testing::Range<uint64_t>(0, 30));

// --- ParallelFleet ----------------------------------------------------------

TEST(BatchedParallelTest, WorkersAgreeWithOracle) {
  std::vector<std::string> expressions = AxisExpressions();
  for (int i = 0; i < 8; ++i) {
    expressions.push_back("//b/absent_" + std::to_string(i));
    expressions.push_back("/a/b/c");
  }
  std::vector<core::Query> queries = CompileAll(expressions);
  ASSERT_EQ(queries.size(), expressions.size());
  const std::vector<Expected> want = OracleAnswers(expressions, kAxisDoc);

  for (int workers : {1, 2, 4}) {
    core::ParallelFleetOptions options;
    options.num_workers = workers;
    options.max_batch_events = 4;  // force many batches per document
    core::ParallelFleet fleet(options);
    for (const core::Query& query : queries) fleet.AddQuery(query);
    ASSERT_TRUE(xml::ParseString(kAxisDoc, &fleet).ok());
    ASSERT_TRUE(fleet.status().ok()) << fleet.status();
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(want[q].matched, fleet.Matched(q))
          << "workers=" << workers << " query " << expressions[q];
      EXPECT_EQ(want[q].items, baseline::CanonicalFromResult(fleet.Result(q)))
          << "workers=" << workers << " query " << expressions[q];
    }
  }
}

TEST(BatchedParallelTest, AdaptivePolicyGrowsAndDecays) {
  core::AdaptiveBatchPolicy policy;
  policy.base = 8;
  policy.cap = 32;
  policy.decay_publishes = 2;
  policy.current = 8;
  EXPECT_EQ(policy.OnPublish(true), 16u);   // stall: double
  EXPECT_EQ(policy.OnPublish(true), 32u);   // stall: double to cap
  EXPECT_EQ(policy.OnPublish(true), 32u);   // capped
  EXPECT_EQ(policy.OnPublish(false), 32u);  // quiet 1/2: hold
  EXPECT_EQ(policy.OnPublish(false), 16u);  // quiet 2/2: halve
  EXPECT_EQ(policy.OnPublish(false), 16u);
  EXPECT_EQ(policy.OnPublish(false), 8u);   // back at base
  EXPECT_EQ(policy.OnPublish(false), 8u);   // never below base
  EXPECT_EQ(policy.OnPublish(false), 8u);
}

TEST(BatchedParallelTest, AdaptiveCoalescingUnderBackPressure) {
  // A slow shard (large pool, tiny rings, tiny base batches) must trigger
  // the policy: by the end of the stream the budget has grown past base.
  // The pool runs on per-engine backends, so every <b> steps each of a
  // shard's engines and the workers stay far slower than the producer for
  // the whole document. On the shared automaton a shard costs about as
  // much as the producer; on a host with quick thread wake-ups its rings
  // then drain between publishes and the budget decays back to base before
  // the end of the stream.
  std::vector<core::Query> queries;
  for (int i = 0; i < 64; ++i) {
    StatusOr<core::Query> query =
        core::Query::Compile("//b/pool_" + std::to_string(i));
    ASSERT_TRUE(query.ok());
    queries.push_back(std::move(*query));
  }
  std::string doc = "<a>";
  for (int i = 0; i < 4000; ++i) doc += "<b><c/></b>";
  doc += "</a>";

  core::ParallelFleetOptions options;
  options.num_workers = 2;
  options.max_batch_events = 2;
  options.ring_capacity = 2;
  options.max_batch_events_cap = 256;
  options.engine_options.enable_shared_index = false;
  core::ParallelFleet fleet(options);
  for (const core::Query& query : queries) fleet.AddQuery(query);
  ASSERT_TRUE(xml::ParseString(doc, &fleet).ok());
  ASSERT_TRUE(fleet.status().ok());
  if (fleet.publish_stalls() > 0) {
    EXPECT_GT(fleet.current_batch_events(), 2u);
  }
  // Everything still matched correctly despite resized batches.
  EXPECT_TRUE(fleet.MatchedQueries().empty());
}

// --- mid-batch abort and the pool double-release regression -----------------

TEST(BatchedAbortTest, AbortMidBatchDiscardsBufferedEvents) {
  StatusOr<core::Query> query = core::Query::Compile("/a/b/c");
  ASSERT_TRUE(query.ok());
  core::MultiQueryEvaluator evaluator;
  size_t q = evaluator.AddQuery(*query);
  core::BatchedDispatchOptions options;
  options.max_batch_events = 1024;  // keep the whole document buffered
  core::BatchedDispatcher dispatcher(&evaluator, options);

  xml::SaxParser parser(&dispatcher);
  ASSERT_TRUE(parser.Feed("<a><b><c/></b>").ok());
  dispatcher.AbortDocument(InternalError("producer died"));
  // The buffered partial capture never reached the engines.
  EXPECT_EQ(dispatcher.batches_replayed(), 0u);
  EXPECT_FALSE(evaluator.Matched(q));
  EXPECT_FALSE(evaluator.status().ok());

  // The dispatcher and its pool stay reusable.
  core::BatchedDispatcher fresh_parse_helper(&evaluator);
  ParseInto("<a><b><c/></b></a>", &fresh_parse_helper, 0);
  EXPECT_TRUE(evaluator.Matched(q));
}

TEST(BatchedAbortTest, ReentrantAbortDoesNotDoubleReleaseBatch) {
  // Regression: EventBatcher::PublishCurrent still holds current_ while the
  // sink replays the batch, so an AbortDocument raised from *inside* the
  // replay (here: an earliest-emission sink) re-publishes the same batch
  // pointer. Without the pool guard the batch would enter the free list
  // twice and later be handed to two writers.
  StatusOr<core::Query> query = core::Query::Compile("//c");
  ASSERT_TRUE(query.ok());
  core::EngineOptions options;
  options.enable_shared_index = false;  // engine backend drives the sink
  core::MultiQueryEvaluator evaluator(options);
  size_t q = evaluator.AddQuery(*query);

  core::BatchedDispatchOptions dispatch_options;
  dispatch_options.max_batch_events = 4;
  core::BatchedDispatcher dispatcher(&evaluator, dispatch_options);
  bool aborted = false;
  // Rebuild the evaluator's sink after construction is impossible (options
  // are copied), so drive the abort from the parse loop instead: feed
  // events until the first batch replayed, then abort mid-document.
  xml::SaxParser parser(&dispatcher);
  // 4 events fill the batch: StartDocument, <a>, <x>, <c> — the last one
  // triggers the publish + replay.
  ASSERT_TRUE(parser.Feed("<a><x><c>").ok());
  ASSERT_GE(dispatcher.batches_replayed(), 1u);
  dispatcher.AbortDocument(InternalError("mid-batch failure"));
  aborted = true;
  EXPECT_TRUE(aborted);
  // One distinct batch may sit in the free pool per acquisition; duplicate
  // entries would exceed the number of batches ever created.
  EXPECT_LE(dispatcher.pool_free_for_test(), 2u);

  // Reuse after the abort: correctness proves no two "free" handles alias
  // the same arena.
  for (int doc = 0; doc < 3; ++doc) {
    core::BatchedDispatcher reuse(&evaluator, dispatch_options);
    ParseInto("<a><x><c/></x></a>", &reuse, 0);
    EXPECT_TRUE(evaluator.Matched(q));
  }
}

// --- shared-matcher interner compaction -------------------------------------

// Forwards events to a directly fed evaluator and, after every event,
// checks the interner bound: never more sets than max(limit, the sets the
// open path references).
class InternerBoundChecker : public xml::ContentHandler {
 public:
  InternerBoundChecker(core::MultiQueryEvaluator* evaluator, size_t limit)
      : evaluator_(evaluator), limit_(limit) {}

  void StartDocument() override { evaluator_->StartDocument(); }
  void EndDocument() override { evaluator_->EndDocument(); }
  void StartElement(const xml::QName& name,
                    xml::AttributeSpan attributes) override {
    evaluator_->StartElement(name, attributes);
    Check();
  }
  void EndElement(std::string_view name) override {
    evaluator_->EndElement(name);
    Check();
  }
  void Characters(std::string_view text) override {
    evaluator_->Characters(text);
  }

  size_t peak_sets() const { return peak_sets_; }

 private:
  void Check() {
    const core::SharedMatcher* matcher = evaluator_->shared_matcher_for_test();
    const size_t sets = matcher->interned_set_count();
    peak_sets_ = std::max(peak_sets_, sets);
    ASSERT_LE(sets, std::max(limit_, matcher->open_path_set_count()));
  }

  core::MultiQueryEvaluator* evaluator_;
  size_t limit_;
  size_t peak_sets_ = 0;
};

// Evaluates `expressions` over `xml` with the shared matcher's interner
// capped at `limit` sets, directly (bound checked after every event) and
// through 8-event batches; both must equal the baseline oracle and both
// must have compacted.
void ExpectCompactionTransparent(const std::vector<std::string>& expressions,
                                 const std::string& xml, size_t limit) {
  std::vector<core::Query> queries = CompileAll(expressions);
  ASSERT_EQ(queries.size(), expressions.size());
  core::MultiQueryEvaluator direct;
  core::MultiQueryEvaluator batched;
  for (const core::Query& query : queries) {
    direct.AddQuery(query);
    batched.AddQuery(query);
  }
  ASSERT_EQ(direct.shared_subscription_count(), expressions.size());
  // A minimal first document builds each matcher so the limit can be set.
  ParseInto("<zzz/>", &direct, 0);
  ParseInto("<zzz/>", &batched, 0);
  direct.shared_matcher_for_test()->set_flat_set_limit_for_test(limit);
  batched.shared_matcher_for_test()->set_flat_set_limit_for_test(limit);

  InternerBoundChecker checker(&direct, limit);
  ParseInto(xml, &checker, 0);
  core::BatchedDispatchOptions dispatch_options;
  dispatch_options.max_batch_events = 8;
  core::BatchedDispatcher dispatcher(&batched, dispatch_options);
  ParseInto(xml, &dispatcher, 0);

  const std::vector<Expected> want = OracleAnswers(expressions, xml);
  ExpectAnswers(direct, expressions, want, "direct");
  ExpectAnswers(batched, expressions, want, "batched");
  EXPECT_GT(direct.shared_matcher_for_test()->set_compactions(), 0u);
  EXPECT_GT(batched.shared_matcher_for_test()->set_compactions(), 0u);
  EXPECT_GT(checker.peak_sets(), 0u);

  // The compacted matcher keeps serving documents.
  ParseInto(xml, &dispatcher, 0);
  ExpectAnswers(batched, expressions, want, "batched, second document");
}

const std::vector<std::string> kCompactionPool = {
    "/a/b/c", "//a//c", "/a/*/c", "//c", "//b/a", "//d", "//a/b//d", "//*/e"};

TEST(SharedCompactionTest, DeepDocument) {
  // 60 nested levels cycling through a, b, e with c/d leaves at each level:
  // the open path alone references far more sets than the cap.
  std::string doc;
  const char* const names[] = {"a", "b", "e"};
  for (int i = 0; i < 60; ++i) {
    doc += std::string("<") + names[i % 3] + "><c/><d/>";
  }
  for (int i = 59; i >= 0; --i) doc += std::string("</") + names[i % 3] + ">";
  ExpectCompactionTransparent(kCompactionPool, doc, /*limit=*/8);
}

TEST(SharedCompactionTest, WideDocument) {
  // A shallow document with hundreds of distinct sibling shapes: the cap
  // bites on breadth, with the open path staying short.
  std::string doc = "<a>";
  for (int i = 0; i < 300; ++i) {
    const std::string tag = "t" + std::to_string(i % 37);
    doc += "<b><" + tag + "><c/><a><d/></a></" + tag + "></b><e><c/></e>";
  }
  doc += "</a>";
  ExpectCompactionTransparent(kCompactionPool, doc, /*limit=*/6);
}

TEST(SharedCompactionTest, StepCacheHitsAccumulate) {
  std::vector<std::string> expressions = {"/a/b/c", "//b", "//c"};
  core::MultiQueryEvaluator batched;
  for (const core::Query& query : CompileAll(expressions)) {
    batched.AddQuery(query);
  }
  std::string doc = "<a>";
  for (int i = 0; i < 200; ++i) doc += "<b><c/></b>";
  doc += "</a>";
  core::BatchedDispatcher dispatcher(&batched);
  ParseInto(doc, &dispatcher, 0);
  core::SharedMatcher* matcher = batched.shared_matcher_for_test();
  ASSERT_NE(matcher, nullptr);
  // Far below the default cap: nothing to compact.
  EXPECT_EQ(matcher->set_compactions(), 0u);
  // A repetitive document steps through a handful of distinct
  // (state-set, symbol) configurations: hits dominate misses.
  EXPECT_GT(matcher->flat_cache_hits(), matcher->flat_cache_misses());
}

}  // namespace
}  // namespace xaos
