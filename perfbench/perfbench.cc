// Layer-ledger benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [options]
//
// Runs one workload as a single-client closed loop: each document is fed in
// 64 KiB SaxParser::Feed chunks through the same public entry points
// xaos_grep and pubsub_router use (StreamingEvaluator or
// MultiQueryEvaluator behind BatchedDispatcher, with the evaluator's
// projection_filter() installed), and the next document starts only after
// every verdict and item of the previous one has been read. Every measured
// document is checked against the src/baseline oracle.
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports per-layer
// metrics from a separate traced run of the same documents: spans timed
// around calls into each layer's public functions (no instrumentation
// inside the library), plus stage-isolation passes (tokenize only,
// tokenize + capture). Its replay spans come from a benchmark-owned
// EventBatcher sink that mirrors BatchedDispatcher; every count metric of
// the traced pipeline must equal the untraced BatchedDispatcher run's.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a {"report": ...} line with the parameters, host provenance,
// sample counts and (traced runs) per-span statistics. Exit code 0 when
// every document matched the oracle, 1 on any mismatch, 2 on bad usage or
// set-up failure.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "baseline/compare.h"
#include "core/batched_dispatch.h"
#include "core/multi_engine.h"
#include "obs/json.h"
#include "spans.h"
#include "util/cpu_features.h"
#include "workloads.h"
#include "xml/event_batch.h"
#include "xml/sax_parser.h"
#include "xml/structural_scanner.h"

namespace perfbench {
namespace {

using namespace xaos;

constexpr size_t kChunkBytes = 64 * 1024;
// Set-ups repeated during the untraced loop, on top of the two that serve
// the pipelines: as many as fit in kSetupShare of the loop's time, within
// [kMinSetups, kMaxSetups].
constexpr double kSetupShare = 0.05;
constexpr int kMinSetups = 20;
constexpr int kMaxSetups = 1000;
// Throughput window. On shared cloud VMs a core can run for seconds to a
// minute at a time up to ~1.65x faster than in its contended state (seen
// on a 4-vCPU Xeon VM), so a run's median and mean depend on how much of
// it fell in the fast state. The gated figures are therefore the
// contended-state ones: the 10th percentile of windowed throughput and the
// 90th percentiles of latency and of set-up time.
constexpr double kWindowNs = 0.5e9;

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--zipf-exponent X] [--subscriptions N] "
               "[--pool-docs N] [--trace-out FILE]\nworkloads:",
               problem.c_str());
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

// Parses "--flag value" and "--flag=value" forms. Returns 0 on success,
// else the exit code.
int ParseArgs(int argc, char** argv, Params* params) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage("missing value for " + flag);
    }
    char* end = nullptr;
    double number = std::strtod(value.c_str(), &end);
    bool numeric = !value.empty() && end != nullptr && *end == '\0';
    if (flag == "--workload") {
      params->workload = value;
      continue;
    }
    if (flag == "--trace-out") {
      params->trace_out = value;
      continue;
    }
    if (!numeric) return Usage("bad or unknown flag: " + flag + " " + value);
    if (flag == "--seed" && number >= 0) {
      params->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds" && number > 0) {
      params->seconds = number;
    } else if (flag == "--trace" && (number == 0 || number == 1)) {
      params->trace = number == 1;
    } else if (flag == "--zipf-exponent" && number >= 0) {
      params->zipf_exponent = number;
    } else if (flag == "--subscriptions" && number >= 1) {
      params->subscriptions = static_cast<int>(number);
    } else if (flag == "--pool-docs" && number >= 1) {
      params->pool_docs = static_cast<int>(number);
    } else {
      return Usage("bad or unknown flag: " + flag + " " + value);
    }
  }
  if (params->workload.empty()) return Usage("--workload is required");
  return 0;
}

// Nearest-rank percentile of `samples` (q in (0, 1]).
double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Times of early_item_sink calls for the document in progress.
struct EarlySink {
  uint64_t first_ns = 0;
  uint64_t items = 0;
};

// One set-up: the compiled subscriptions registered in a fresh evaluator,
// its dispatcher and the parser options carrying its projection filter.
// Held by pointer: the evaluator's early_item_sink captures `sink`.
struct Stack {
  EarlySink sink;
  std::unique_ptr<core::StreamingEvaluator> streaming;
  std::unique_ptr<core::MultiQueryEvaluator> multi;
  std::unique_ptr<core::BatchedDispatcher> dispatcher;
  xml::ParserOptions parser_options;
  double compile_ns = 0;
  double register_ns = 0;
  double index_build_ns = 0;

  void ReplayBatch(const xml::EventBatch& batch,
                   std::vector<xml::AttributeView>* scratch) {
    if (multi) {
      multi->ReplayBatch(batch, scratch);
    } else {
      streaming->ReplayBatch(batch, scratch);
    }
  }
  bool wants_text_events() {
    return multi ? multi->wants_text_events() : streaming->wants_text_events();
  }
  Status status() const {
    return multi ? multi->status() : streaming->status();
  }
  core::EngineStats AggregateStats() const {
    return multi ? multi->AggregateStats() : streaming->AggregateStats();
  }
  uint64_t engines_skipped() const {
    return multi ? multi->engines_skipped() : streaming->engines_skipped();
  }
  void AbortDocument(const Status& cause) {
    if (multi) {
      multi->AbortDocument(cause);
    } else {
      streaming->AbortDocument(cause);
    }
  }
};

// Backend-routing counts of a set-up.
struct Routing {
  uint64_t shared_states = 0;
  uint64_t shared_subscriptions = 0;
  uint64_t alias_subscriptions = 0;
  uint64_t engine_count = 0;
  bool operator==(const Routing&) const = default;
};

Routing RoutingOf(const Stack& stack) {
  Routing routing;
  if (stack.multi) {
    routing.shared_states = stack.multi->shared_state_count();
    routing.shared_subscriptions = stack.multi->shared_subscription_count();
    routing.alias_subscriptions = stack.multi->alias_count();
    routing.engine_count = stack.multi->engine_count();
  } else {
    routing.engine_count = stack.streaming->engines().size();
  }
  return routing;
}

// Set-up as a user pays it: compile every subscription, build the
// evaluator and register them, derive the projection filter, and run the
// first (tiny) document, whose StartDocument builds the shared index.
bool SetUp(const Workload& workload, Stack* stack, std::string* error) {
  uint64_t t0 = NowNs();
  std::vector<core::Query> queries;
  queries.reserve(workload.expressions.size());
  for (const std::string& expression : workload.expressions) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    if (!query.ok()) {
      *error = expression + ": " + query.status().ToString();
      return false;
    }
    queries.push_back(std::move(*query));
  }
  uint64_t t1 = NowNs();
  core::EngineOptions options;
  EarlySink* sink = &stack->sink;
  options.early_item_sink = [sink](const core::OutputItem&) {
    if (sink->first_ns == 0) sink->first_ns = NowNs();
    ++sink->items;
  };
  xml::ProjectionFilter* filter = nullptr;
  if (workload.multi) {
    stack->multi = std::make_unique<core::MultiQueryEvaluator>(options);
    for (const core::Query& query : queries) stack->multi->AddQuery(query);
    stack->dispatcher =
        std::make_unique<core::BatchedDispatcher>(stack->multi.get());
    filter = stack->multi->projection_filter();
  } else {
    stack->streaming =
        std::make_unique<core::StreamingEvaluator>(queries.front(), options);
    stack->dispatcher =
        std::make_unique<core::BatchedDispatcher>(stack->streaming.get());
    filter = stack->streaming->projection_filter();
  }
  stack->parser_options.projection_filter = filter;
  uint64_t t2 = NowNs();
  Status status = xml::ParseString("<warmup/>", stack->dispatcher.get(),
                                   stack->parser_options);
  uint64_t t3 = NowNs();
  if (!status.ok() || !stack->status().ok()) {
    *error = "warm-up document failed: " +
             (status.ok() ? stack->status() : status).ToString();
    return false;
  }
  stack->compile_ns = static_cast<double>(t1 - t0);
  stack->register_ns = static_cast<double>(t2 - t1);
  stack->index_build_ns = static_cast<double>(t3 - t2);
  return true;
}

// What the closed loop reads after each document: every subscription's
// verdict and, per distinct expression, the answering subscription's
// result (aliases share their first copy's result by construction).
struct Readout {
  std::vector<uint8_t> verdicts;
  std::vector<core::QueryResult> results;
};

void ReadResults(const Workload& workload, Stack* stack, Readout* out) {
  out->verdicts.resize(workload.expressions.size());
  out->results.resize(workload.distinct.size());
  if (stack->multi) {
    for (size_t q = 0; q < out->verdicts.size(); ++q) {
      out->verdicts[q] = stack->multi->Matched(q);
    }
    for (size_t d = 0; d < out->results.size(); ++d) {
      out->results[d] = stack->multi->Result(workload.first_subscription[d]);
    }
  } else {
    out->results[0] = stack->streaming->Result();
    out->verdicts[0] = out->results[0].matched;
  }
}

bool MatchesOracle(const Workload& workload, const Readout& readout,
                   const std::vector<Expected>& want) {
  for (size_t q = 0; q < readout.verdicts.size(); ++q) {
    if ((readout.verdicts[q] != 0) != want[workload.distinct_of[q]].matched) {
      return false;
    }
  }
  for (size_t d = 0; d < readout.results.size(); ++d) {
    if (readout.results[d].matched != want[d].matched ||
        baseline::CanonicalFromResult(readout.results[d]) != want[d].items) {
      return false;
    }
  }
  return true;
}

bool AnyVerdict(const Readout& readout) {
  return std::any_of(readout.verdicts.begin(), readout.verdicts.end(),
                     [](uint8_t v) { return v != 0; });
}

// Per-document counts that both pipelines must reproduce exactly.
struct DocCounts {
  uint64_t elements_parsed = 0;  // SaxParser::element_count()
  uint64_t batches = 0;
  uint64_t items = 0;
  uint64_t early_items = 0;
  uint64_t engines_skipped = 0;
  uint64_t elements_total = 0;
  uint64_t elements_discarded = 0;
  uint64_t structures_created = 0;
  uint64_t structures_reclaimed = 0;
  uint64_t peak_matching_bytes = 0;
  bool operator==(const DocCounts&) const = default;
};

void FillEngineCounts(const Stack& stack, const Readout& readout,
                      DocCounts* counts) {
  core::EngineStats stats = stack.AggregateStats();
  counts->elements_total = stats.elements_total;
  counts->elements_discarded = stats.elements_discarded;
  counts->structures_created = stats.structures_created;
  counts->structures_reclaimed = stats.candidates_reclaimed;
  counts->peak_matching_bytes = stats.structure_memory.peak_bytes;
  counts->early_items = stack.sink.items;
  for (const core::QueryResult& result : readout.results) {
    counts->items += result.items.size();
  }
}

// Seeded visiting order over the document pool: a fresh permutation per
// cycle.
class DocOrder {
 public:
  DocOrder(size_t pool, uint64_t seed) : order_(pool), rng_(seed) {
    for (size_t i = 0; i < pool; ++i) order_[i] = i;
  }
  size_t Next() {
    if (next_ == order_.size()) next_ = 0;
    if (next_ == 0) std::shuffle(order_.begin(), order_.end(), rng_);
    return order_[next_++];
  }
  bool at_cycle_end() const { return next_ == order_.size(); }

 private:
  std::vector<size_t> order_;
  std::mt19937_64 rng_;
  size_t next_ = 0;
};

// Set-up timings, one entry per set-up.
struct SetupSamples {
  std::vector<double> total_ns, compile_ns, register_ns, index_ns;

  void Add(const Stack& stack) {
    compile_ns.push_back(stack.compile_ns);
    register_ns.push_back(stack.register_ns);
    index_ns.push_back(stack.index_build_ns);
    total_ns.push_back(stack.compile_ns + stack.register_ns +
                       stack.index_build_ns);
  }
};

// Shared state of a run: inputs, oracle, failure accounting, set-up
// samples and the per-document counts of the untraced pipeline.
struct Run {
  const Workload* workload = nullptr;
  const std::vector<std::vector<Expected>>* expected = nullptr;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool equivalent = true;
  bool setups_ok = true;
  SetupSamples setups;
  std::vector<std::string> problems;
  std::vector<std::optional<DocCounts>> untraced_counts;

  void Problem(std::string message) {
    if (problems.size() < 10) problems.push_back(std::move(message));
  }
};

// Results of one closed loop.
struct LoopStats {
  std::vector<double> latency_ns;
  std::vector<double> ttfm_ns;
  // Throughput of consecutive windows of at least kWindowNs of summed
  // document wall time; the open window's bytes and time.
  std::vector<double> window_mbps;
  double window_bytes = 0;
  double window_ns = 0;
  uint64_t docs = 0;
  uint64_t bytes = 0;
  DocCounts totals;  // summed over documents (peak: max)
  uint64_t events = 0;
  uint64_t subtrees_skipped = 0;
  uint64_t bytes_skipped = 0;

  void Add(const DocCounts& c) {
    totals.elements_parsed += c.elements_parsed;
    totals.batches += c.batches;
    totals.items += c.items;
    totals.early_items += c.early_items;
    totals.engines_skipped += c.engines_skipped;
    totals.elements_total += c.elements_total;
    totals.elements_discarded += c.elements_discarded;
    totals.structures_created += c.structures_created;
    totals.structures_reclaimed += c.structures_reclaimed;
    totals.peak_matching_bytes =
        std::max(totals.peak_matching_bytes, c.peak_matching_bytes);
  }
};

// Feeds `doc` in kChunkBytes slices, then Finish(). `before_chunk` /
// `after_chunk` bracket every Feed and the Finish (is_finish true).
template <typename Before, typename After>
Status FeedDocument(xml::SaxParser* parser, std::string_view doc,
                    Before&& before_chunk, After&& after_chunk) {
  for (size_t offset = 0; offset < doc.size(); offset += kChunkBytes) {
    before_chunk(false);
    Status status = parser->Feed(doc.substr(offset, kChunkBytes));
    after_chunk();
    if (!status.ok()) return status;
  }
  before_chunk(true);
  Status status = parser->Finish();
  after_chunk();
  return status;
}

// Book-keeping after a document's verdicts were read (untimed): oracle
// check, ttfm sample, counts.
void AfterDocument(Run* run, Stack* stack, size_t doc, const Status& parse,
                   const Readout& readout, uint64_t begin_ns, uint64_t end_ns,
                   DocCounts* counts, LoopStats* loop) {
  ++run->attempted;
  ++loop->docs;
  const size_t size = run->workload->documents[doc].size();
  const double bytes = static_cast<double>(size);
  const double latency = static_cast<double>(end_ns - begin_ns);
  loop->bytes += size;
  loop->latency_ns.push_back(latency);
  loop->window_bytes += bytes;
  loop->window_ns += latency;
  if (loop->window_ns >= kWindowNs) {
    loop->window_mbps.push_back(loop->window_bytes / loop->window_ns * 1e3);
    loop->window_bytes = loop->window_ns = 0;
  }
  if (!parse.ok() || !stack->status().ok()) {
    ++run->failed;
    run->Problem("document " + std::to_string(doc) + " failed: " +
                 (parse.ok() ? stack->status() : parse).ToString());
    return;
  }
  if (!MatchesOracle(*run->workload, readout, (*run->expected)[doc])) {
    ++run->failed;
    run->Problem("document " + std::to_string(doc) +
                 " differs from the oracle");
  }
  if (stack->sink.first_ns != 0) {
    loop->ttfm_ns.push_back(
        static_cast<double>(stack->sink.first_ns - begin_ns));
  } else if (AnyVerdict(readout)) {
    loop->ttfm_ns.push_back(static_cast<double>(end_ns - begin_ns));
  }
  FillEngineCounts(*stack, readout, counts);
  loop->Add(*counts);
}

// The untraced closed loop through BatchedDispatcher. Runs whole cycles of
// the pool until `seconds` have passed, so every document is visited
// equally often and per-document averages repeat exactly. Between
// documents (untimed for them) it repeats the set-up, evenly spread, so
// the set-up samples see the same host conditions as the documents do.
LoopStats RunUntraced(Run* run, Stack* stack, double seconds, uint64_t seed) {
  LoopStats loop;
  DocOrder order(run->workload->documents.size(), seed);
  Readout readout;
  const uint64_t start = NowNs();
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  const double one_setup_ns = std::max(
      1.0, *std::min_element(run->setups.total_ns.begin(),
                             run->setups.total_ns.end()));
  const size_t setups_wanted =
      run->setups.total_ns.size() +
      static_cast<size_t>(std::clamp(kSetupShare * budget / one_setup_ns,
                                     double{kMinSetups}, double{kMaxSetups}));
  const uint64_t setup_every =
      budget / (setups_wanted - run->setups.total_ns.size());
  uint64_t next_setup = start;
  do {
    if (NowNs() >= next_setup && run->setups.total_ns.size() < setups_wanted) {
      Stack extra;
      std::string error;
      if (SetUp(*run->workload, &extra, &error)) {
        run->setups.Add(extra);
      } else {
        run->setups_ok = false;
        run->Problem("repeated set-up failed: " + error);
      }
      next_setup += setup_every;
    }
    size_t doc = order.Next();
    std::string_view text = run->workload->documents[doc];
    xml::SaxParser parser(stack->dispatcher.get(), stack->parser_options);
    stack->sink = EarlySink{};
    uint64_t skipped_before = stack->engines_skipped();
    uint64_t batches_before = stack->dispatcher->batches_replayed();

    uint64_t begin = NowNs();
    Status status = FeedDocument(&parser, text, [](bool) {}, [] {});
    if (status.ok()) ReadResults(*run->workload, stack, &readout);
    uint64_t end = NowNs();

    if (!status.ok()) stack->dispatcher->AbortDocument(status);
    DocCounts counts;
    counts.elements_parsed = parser.element_count();
    counts.batches = stack->dispatcher->batches_replayed() - batches_before;
    counts.engines_skipped = stack->engines_skipped() - skipped_before;
    uint64_t failed_before = run->failed;
    AfterDocument(run, stack, doc, status, readout, begin, end, &counts, &loop);
    if (run->failed != failed_before) continue;
    std::optional<DocCounts>& seen = run->untraced_counts[doc];
    if (seen && !(*seen == counts)) {
      run->equivalent = false;
      run->Problem("untraced counts of document " + std::to_string(doc) +
                   " changed between visits");
    }
    seen = counts;
  } while (!order.at_cycle_end() || NowNs() - start < budget);
  return loop;
}

// EventBatcher sink mirroring BatchedDispatcher (pooled batches, sequence
// stamps, aborting batches never replayed), with a core.replay span around
// each ReplayBatch and batch-boundary counts.
class TracedReplaySink : public xml::EventBatcher::Sink {
 public:
  TracedReplaySink(Stack* stack, SpanRecorder* recorder)
      : stack_(stack), recorder_(recorder) {}

  xml::EventBatch* AcquireBatch() override {
    if (free_.empty()) {
      pool_.push_back(std::make_unique<xml::EventBatch>());
      return pool_.back().get();
    }
    xml::EventBatch* batch = free_.back();
    free_.pop_back();
    return batch;
  }

  void PublishBatch(xml::EventBatch* batch) override {
    if (!batch->aborts_document()) {
      batch->set_sequence(++sequence_);
      int32_t span = recorder_->Begin(SpanName::kReplay, doc, parent);
      stack_->ReplayBatch(*batch, &attr_scratch_);
      recorder_->End(span);
      ++batches;
      events += batch->event_count();
      for (const xml::BatchedEvent& event : batch->events()) {
        if (event.kind == xml::BatchedEvent::Kind::kStartElement) {
          ++start_elements;
        } else if (event.kind == xml::BatchedEvent::Kind::kSkipSubtree) {
          std::string_view raw =
              batch->text_slice(event.text_offset, event.text_size);
          xml::SkipReport report;
          if (raw.size() == sizeof(report)) {
            std::memcpy(&report, raw.data(), sizeof(report));
            bytes_skipped += report.bytes;
          }
          ++subtrees_skipped;
        }
      }
    }
    batch->Clear();
    free_.push_back(batch);
  }

  // Attribution of the next replay spans (set by the loop).
  uint32_t doc = 0;
  int32_t parent = -1;
  // Per-document counts (reset by the loop).
  uint64_t batches = 0;
  uint64_t events = 0;
  uint64_t start_elements = 0;
  uint64_t subtrees_skipped = 0;
  uint64_t bytes_skipped = 0;

 private:
  Stack* stack_;
  SpanRecorder* recorder_;
  std::vector<std::unique_ptr<xml::EventBatch>> pool_;
  std::vector<xml::EventBatch*> free_;
  std::vector<xml::AttributeView> attr_scratch_;
  uint64_t sequence_ = 0;
};

// The traced closed loop: the same documents through the mirror sink, with
// doc / xml.feed / xml.finish / core.replay / core.result spans.
LoopStats RunTraced(Run* run, Stack* stack, SpanRecorder* recorder,
                    double seconds, uint64_t seed) {
  LoopStats loop;
  DocOrder order(run->workload->documents.size(), seed);
  Readout readout;
  TracedReplaySink sink(stack, recorder);
  core::BatchedDispatchOptions budgets;
  xml::EventBatcher batcher(&sink, budgets.max_batch_events,
                            budgets.max_batch_text_bytes);
  const uint64_t start = NowNs();
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  uint32_t sequence = 0;
  do {
    size_t doc = order.Next();
    std::string_view text = run->workload->documents[doc];
    xml::SaxParser parser(&batcher, stack->parser_options);
    batcher.set_lean_payload(!stack->wants_text_events());
    stack->sink = EarlySink{};
    sink.doc = sequence;
    sink.batches = sink.events = sink.start_elements = 0;
    sink.subtrees_skipped = sink.bytes_skipped = 0;
    uint64_t skipped_before = stack->engines_skipped();

    int32_t doc_span = recorder->Begin(SpanName::kDoc, sequence, -1);
    int32_t chunk_span = -1;
    Status status = FeedDocument(
        &parser, text,
        [&](bool finish) {
          chunk_span = recorder->Begin(
              finish ? SpanName::kFinish : SpanName::kFeed, sequence, doc_span);
          sink.parent = chunk_span;
        },
        [&] { recorder->End(chunk_span); });
    if (status.ok()) {
      int32_t result_span =
          recorder->Begin(SpanName::kResult, sequence, doc_span);
      ReadResults(*run->workload, stack, &readout);
      recorder->End(result_span);
    }
    recorder->End(doc_span);
    ++sequence;
    const Span& span = recorder->spans()[static_cast<size_t>(doc_span)];

    if (!status.ok()) {
      batcher.AbortDocument();
      stack->AbortDocument(status);
    }
    DocCounts counts;
    counts.elements_parsed = parser.element_count();
    counts.batches = sink.batches;
    counts.engines_skipped = stack->engines_skipped() - skipped_before;
    uint64_t failed_before = run->failed;
    AfterDocument(run, stack, doc, status, readout, span.begin_ns, span.end_ns,
                  &counts, &loop);
    if (run->failed != failed_before) continue;
    loop.events += sink.events;
    loop.subtrees_skipped += sink.subtrees_skipped;
    loop.bytes_skipped += sink.bytes_skipped;
    const std::optional<DocCounts>& untraced = run->untraced_counts[doc];
    if (!untraced || !(*untraced == counts) ||
        sink.start_elements != counts.elements_parsed) {
      run->equivalent = false;
      run->Problem("traced counts of document " + std::to_string(doc) +
                   " differ from the untraced pipeline");
    }
  } while (!order.at_cycle_end() || NowNs() - start < budget);
  return loop;
}

// A batch sink that discards every batch (capture-only stage isolation).
class DiscardSink : public xml::EventBatcher::Sink {
 public:
  xml::EventBatch* AcquireBatch() override { return &batch_; }
  void PublishBatch(xml::EventBatch* batch) override {
    events += batch->event_count();
    batch->Clear();
  }
  uint64_t events = 0;

 private:
  xml::EventBatch batch_;
};

struct IsolationStats {
  double tokenize_ns = 0;
  double capture_ns = 0;
  uint64_t bytes = 0;
  uint64_t events = 0;
  uint64_t docs = 0;
};

// Stage isolation: each document parsed without projection into a no-op
// handler (tokenize) and into an EventBatcher with a discarding sink
// (tokenize + capture), alternating so drift hits both alike.
bool RunIsolation(Run* run, Stack* stack, SpanRecorder* recorder,
                  double seconds, uint64_t seed, IsolationStats* stats) {
  DocOrder order(run->workload->documents.size(), seed);
  xml::ContentHandler noop;
  DiscardSink discard;
  core::BatchedDispatchOptions budgets;
  xml::EventBatcher batcher(&discard, budgets.max_batch_events,
                            budgets.max_batch_text_bytes);
  batcher.set_lean_payload(!stack->wants_text_events());
  const uint64_t start = NowNs();
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  uint32_t sequence = 0;
  do {
    size_t doc = order.Next();
    std::string_view text = run->workload->documents[doc];
    for (SpanName stage : {SpanName::kTokenize, SpanName::kCapture}) {
      xml::ContentHandler* handler =
          stage == SpanName::kTokenize ? &noop : &batcher;
      xml::SaxParser parser(handler);
      int32_t span = recorder->Begin(stage, sequence, -1);
      Status status = FeedDocument(&parser, text, [](bool) {}, [] {});
      recorder->End(span);
      if (!status.ok()) {
        run->Problem("stage isolation parse failed: " + status.ToString());
        return false;
      }
      const Span& s = recorder->spans()[static_cast<size_t>(span)];
      double ns = static_cast<double>(s.end_ns - s.begin_ns);
      (stage == SpanName::kTokenize ? stats->tokenize_ns : stats->capture_ns) +=
          ns;
    }
    stats->bytes += text.size();
    ++stats->docs;
    ++sequence;
  } while (!order.at_cycle_end() || NowNs() - start < budget);
  stats->events = discard.events;
  return true;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name +
           "\": {\"value\": " + obs::JsonNumber(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string ParamsJson(const Params& p) {
  return "{\"workload\":\"" + obs::JsonEscape(p.workload) +
         "\",\"seed\":" + std::to_string(p.seed) +
         ",\"seconds\":" + obs::JsonNumber(p.seconds) +
         ",\"trace\":" + (p.trace ? "1" : "0") +
         ",\"zipf_exponent\":" + obs::JsonNumber(p.zipf_exponent) +
         ",\"subscriptions\":" + std::to_string(p.subscriptions) +
         ",\"pool_docs\":" + std::to_string(p.pool_docs) +
         ",\"chunk_bytes\":" + std::to_string(kChunkBytes) + "}";
}

std::string HostJson() {
  return "{\"cpu_features\":\"" + obs::JsonEscape(util::CpuFeatureSummary()) +
         "\",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"scanner_backend\":\"" +
         xml::ScannerBackendName(xml::DefaultScannerBackend()) + "\"}";
}

int Main(int argc, char** argv) {
  Params params;
  if (int code = ParseArgs(argc, argv, &params); code != 0) return code;

  Workload workload;
  std::string error;
  if (!MakeWorkload(params, &workload, &error)) return Usage(error);
  std::vector<std::vector<Expected>> expected;
  if (!ComputeOracle(workload, &expected, &error)) {
    std::fprintf(stderr, "oracle: %s\n", error.c_str());
    return 2;
  }

  // Two set-ups serve the untraced and the traced pipelines; RunUntraced
  // adds more, spread over its loop.
  Run run;
  run.workload = &workload;
  run.expected = &expected;
  run.untraced_counts.resize(workload.documents.size());
  std::vector<std::unique_ptr<Stack>> stacks;
  for (int i = 0; i < 2; ++i) {
    stacks.push_back(std::make_unique<Stack>());
    if (!SetUp(workload, stacks.back().get(), &error)) {
      std::fprintf(stderr, "set-up: %s\n", error.c_str());
      return 2;
    }
    run.setups.Add(*stacks.back());
  }
  Stack* untraced_stack = stacks[0].get();
  Stack* traced_stack = stacks[1].get();

  const double doc_bytes_mean = [&] {
    double sum = 0;
    for (const std::string& d : workload.documents) sum += d.size();
    return sum / workload.documents.size();
  }();
  std::vector<Metric> metrics;
  std::string report_extra;

  if (!params.trace) {
    LoopStats loop = RunUntraced(&run, untraced_stack, params.seconds,
                                 params.seed ^ 0x9e3779b97f4a7c15ull);
    double wall_ns = 0;
    for (double ns : loop.latency_ns) wall_ns += ns;
    metrics = {
        {"throughput_p10_mbps", Percentile(loop.window_mbps, 0.1), "MB/s"},
        {"doc_latency_p90_ms", Percentile(loop.latency_ns, 0.9) / 1e6, "ms"},
        {"ttfm_p90_us", Percentile(loop.ttfm_ns, 0.9) / 1e3, "us"},
        {"setup_s", Percentile(run.setups.total_ns, 0.9) / 1e9, "s"},
    };
    report_extra =
        ",\"samples\":{\"docs\":" + std::to_string(loop.docs) +
        ",\"ttfm\":" + std::to_string(loop.ttfm_ns.size()) +
        ",\"windows\":" + std::to_string(loop.window_mbps.size()) +
        ",\"setups\":" + std::to_string(run.setups.total_ns.size()) +
        "},\"throughput_mean_mbps\":" +
        obs::JsonNumber(Ratio(static_cast<double>(loop.bytes), wall_ns) * 1e3) +
        ",\"doc_latency_p50_ms\":" +
        obs::JsonNumber(Percentile(loop.latency_ns, 0.5) / 1e6) +
        ",\"setup_p50_s\":" +
        obs::JsonNumber(Percentile(run.setups.total_ns, 0.5) / 1e9) +
        ",\"ttfm_p50_us\":" +
        obs::JsonNumber(Percentile(loop.ttfm_ns, 0.5) / 1e3) +
        ",\"peak_matching_bytes\":" +
        std::to_string(loop.totals.peak_matching_bytes);
  } else {
    // Untraced, traced and stage-isolation passes share the time budget.
    SpanRecorder recorder;
    uint64_t order_seed = params.seed ^ 0x9e3779b97f4a7c15ull;
    LoopStats plain =
        RunUntraced(&run, untraced_stack, params.seconds * 0.35, order_seed);
    LoopStats traced = RunTraced(&run, traced_stack, &recorder,
                                 params.seconds * 0.35, order_seed);
    IsolationStats isolation;
    if (!RunIsolation(&run, traced_stack, &recorder, params.seconds * 0.3,
                      order_seed, &isolation)) {
      run.equivalent = false;
    }
    Routing untraced_routing = RoutingOf(*untraced_stack);
    Routing traced_routing = RoutingOf(*traced_stack);
    if (!(untraced_routing == traced_routing)) {
      run.equivalent = false;
      run.Problem("routing counts differ between the two set-ups");
    }
    if (plain.totals.peak_matching_bytes != traced.totals.peak_matching_bytes) {
      run.equivalent = false;
      run.Problem("peak matching bytes differ between pipelines");
    }

    SpanTotals totals = SumSpans(recorder.spans());
    auto total = [&](SpanName n) { return totals.total_ns[size_t(n)]; };
    auto self = [&](SpanName n) { return totals.self_ns[size_t(n)]; };
    const double docs = static_cast<double>(traced.docs);
    const double wall = total(SpanName::kDoc);
    const double feed_self = self(SpanName::kFeed) + self(SpanName::kFinish);
    const double replay = total(SpanName::kReplay);
    const double result = total(SpanName::kResult);
    const DocCounts& c = traced.totals;
    const double events = static_cast<double>(traced.events);
    metrics = {
        {"xml.feed_self_ns_per_byte",
         Ratio(feed_self, static_cast<double>(traced.bytes)), "ns/B"},
        {"xml.feed_self_share", Ratio(feed_self, wall), "ratio"},
        {"xml.tokenize_ns_per_byte",
         Ratio(isolation.tokenize_ns, static_cast<double>(isolation.bytes)),
         "ns/B"},
        {"xml.capture_ns_per_event",
         Ratio(isolation.capture_ns - isolation.tokenize_ns,
               static_cast<double>(isolation.events)),
         "ns/event"},
        {"xml.bytes_skipped_ratio",
         Ratio(static_cast<double>(traced.bytes_skipped),
               static_cast<double>(traced.bytes)),
         "ratio"},
        {"xml.subtrees_skipped_per_doc",
         Ratio(static_cast<double>(traced.subtrees_skipped), docs), "count"},
        {"xml.events_per_doc", Ratio(events, docs), "count"},
        {"xml.batches_per_doc", Ratio(static_cast<double>(c.batches), docs),
         "count"},
        {"xml.events_per_batch", Ratio(events, static_cast<double>(c.batches)),
         "count"},
        {"query.compile_us_per_query",
         Percentile(run.setups.compile_ns, 0.5) / 1e3 /
             static_cast<double>(workload.expressions.size()),
         "us"},
        {"query.register_ms", Percentile(run.setups.register_ns, 0.5) / 1e6,
         "ms"},
        {"core.index_build_ms", Percentile(run.setups.index_ns, 0.5) / 1e6,
         "ms"},
        {"core.replay_ns_per_event", Ratio(replay, events), "ns/event"},
        {"core.replay_share", Ratio(replay, wall), "ratio"},
        {"core.finish_us_per_doc", Ratio(total(SpanName::kFinish), docs) / 1e3,
         "us"},
        {"core.result_us_per_doc", Ratio(result, docs) / 1e3, "us"},
        {"core.items_per_doc", Ratio(static_cast<double>(c.items), docs),
         "count"},
        {"core.early_items_ratio",
         Ratio(static_cast<double>(c.early_items),
               static_cast<double>(c.items)),
         "ratio"},
        {"core.structures_created_per_doc",
         Ratio(static_cast<double>(c.structures_created), docs), "count"},
        {"core.structures_reclaimed_per_doc",
         Ratio(static_cast<double>(c.structures_reclaimed), docs), "count"},
        {"core.elements_discarded_ratio",
         Ratio(static_cast<double>(c.elements_discarded),
               static_cast<double>(c.elements_total)),
         "ratio"},
        {"core.peak_matching_bytes", static_cast<double>(c.peak_matching_bytes),
         "B"},
        {"core.engines_skipped_per_doc",
         Ratio(static_cast<double>(c.engines_skipped), docs), "count"},
        {"core.shared_states",
         static_cast<double>(traced_routing.shared_states), "count"},
        {"core.shared_subscriptions",
         static_cast<double>(traced_routing.shared_subscriptions), "count"},
        {"core.alias_subscriptions",
         static_cast<double>(traced_routing.alias_subscriptions), "count"},
        {"core.engine_count", static_cast<double>(traced_routing.engine_count),
         "count"},
        {"trace.closure_ratio", Ratio(feed_self + replay + result, wall),
         "ratio"},
        {"trace.overhead_ratio",
         Ratio(Percentile(traced.latency_ns, 0.5),
               Percentile(plain.latency_ns, 0.5)),
         "ratio"},
    };
    std::string span_stats = SpanStatsJson(recorder.spans());
    report_extra = ",\"samples\":{\"untraced_docs\":" +
                   std::to_string(plain.docs) +
                   ",\"traced_docs\":" + std::to_string(traced.docs) +
                   ",\"isolation_docs\":" +
                   std::to_string(isolation.docs) +
                   ",\"setups\":" + std::to_string(run.setups.total_ns.size()) +
                   "},\"spans\":" + span_stats;
    if (!params.trace_out.empty()) {
      std::string metadata =
          "{\"params\":" + ParamsJson(params) + ",\"host\":" + HostJson() + "}";
      if (!WriteChromeTrace(params.trace_out, recorder.spans(), metadata,
                            &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
      report_extra += ",\"trace_file\":\"" + obs::JsonEscape(params.trace_out) +
                      "\"";
    }
  }

  bool correct = run.failed == 0 && run.equivalent && run.setups_ok;
  for (const std::string& problem : run.problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  for (const Metric& metric : metrics) {
    std::fprintf(stderr, "%-34s %16.6f %s\n", metric.name.c_str(),
                 metric.value, metric.unit);
  }
  std::printf(
      "{\"report\":{\"params\":%s,\"host\":%s,\"distinct_expressions\":%zu,"
      "\"doc_bytes_mean\":%s,\"failed_doc_ratio\":%s,\"equivalent\":%s%s}}\n",
      ParamsJson(params).c_str(), HostJson().c_str(), workload.distinct.size(),
      obs::JsonNumber(doc_bytes_mean).c_str(),
      obs::JsonNumber(Ratio(static_cast<double>(run.failed),
                static_cast<double>(run.attempted)))
          .c_str(),
      run.equivalent ? "true" : "false", report_extra.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
