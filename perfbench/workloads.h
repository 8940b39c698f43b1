// Inputs and expected outputs of the layer-ledger benchmark.
//
// A workload is a subscription list plus a pool of distinct generated
// documents. Everything here is derived from the command-line parameters
// (seed, Zipf exponent, pool size, ...); the library under test only ever
// sees the generated expression and document text. The oracle is computed
// once per (distinct document, distinct expression) with the independent
// engines of src/baseline, outside every timed region.

#ifndef XAOS_PERFBENCH_WORKLOADS_H_
#define XAOS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "baseline/node_ref.h"

namespace perfbench {

// Explicit run parameters (one struct, every field a flag), recorded
// verbatim in the benchmark's report.
struct Params {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double zipf_exponent = 1.0;
  int subscriptions = 0;  // 0 = the workload's default
  int pool_docs = 8;
  std::string trace_out;  // Chrome-trace JSON path (traced runs only)
};

// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

struct Workload {
  // True: MultiQueryEvaluator over `expressions` (one subscription each).
  // False: StreamingEvaluator over expressions[0].
  bool multi = false;
  std::vector<std::string> expressions;
  std::vector<std::string> documents;  // the distinct document pool
  // Distinct expressions and the map from subscription to distinct index;
  // `first_subscription[d]` is the subscription that answers for d.
  std::vector<std::string> distinct;
  std::vector<size_t> distinct_of;
  std::vector<size_t> first_subscription;
};

// Builds the workload named by params.workload; false (with *error set)
// for an unknown name or invalid sizes.
bool MakeWorkload(const Params& params, Workload* workload,
                  std::string* error);

struct Expected {
  bool matched = false;
  std::vector<xaos::baseline::CanonicalItem> items;  // sorted
};

// expected[doc][distinct expression]. Single-output expressions run on the
// navigational engine; expressions with '$' output marks (tuple queries)
// on the brute-force x-tree matcher. False (with *error set) if an oracle
// engine fails.
bool ComputeOracle(const Workload& workload,
                   std::vector<std::vector<Expected>>* expected,
                   std::string* error);

}  // namespace perfbench

#endif  // XAOS_PERFBENCH_WORKLOADS_H_
