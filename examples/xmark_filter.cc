// Runs the paper's XMark experiment end to end, at a small scale:
// generates an XMark-like auction document, evaluates
// //listitem/ancestor::category//name in one streaming pass, and reports
// the storage behaviour (fraction of elements discarded, Table 3).
//
// Usage: xmark_filter [scale]        (default scale 0.01 ≈ 15k elements)

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "xaos.h"

int main(int argc, char** argv) {
  xaos::gen::XMarkOptions options;
  options.scale = argc > 1 ? std::atof(argv[1]) : 0.01;

  std::cout << "generating XMark document at scale " << options.scale
            << "...\n";
  std::string document = xaos::gen::GenerateXMark(options);
  std::cout << "document size: " << document.size() / 1024 << " KiB\n";

  xaos::StatusOr<xaos::core::Query> query =
      xaos::core::Query::Compile(xaos::gen::kXMarkPaperQuery);
  if (!query.ok()) {
    std::cerr << query.status() << "\n";
    return 1;
  }
  std::cout << "query: " << query->expression() << "\n";

  xaos::core::StreamingEvaluator evaluator(*query);
  auto start = std::chrono::steady_clock::now();
  xaos::Status status = xaos::xml::ParseString(document, &evaluator);
  auto elapsed = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  if (!status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }

  const xaos::core::QueryResult& result = evaluator.Result();
  xaos::core::EngineStats stats = evaluator.AggregateStats();
  std::cout << "matched category names: " << result.items.size() << "\n";
  size_t shown = 0;
  for (const xaos::core::OutputItem& item : result.items) {
    if (++shown > 5) {
      std::cout << "  ...\n";
      break;
    }
    std::cout << "  name element #" << item.info.ordinal << " at level "
              << item.info.level << "\n";
  }
  std::cout << "elements processed:  " << stats.elements_total << "\n"
            << "elements discarded:  " << stats.elements_discarded << " ("
            << 100.0 * stats.DiscardedFraction() << "%)\n"
            << "structures created:  " << stats.structures_created << "\n"
            << "peak live:           " << stats.structures_live_peak << "\n"
            << "streaming time:      " << elapsed << " s\n";
  return 0;
}
