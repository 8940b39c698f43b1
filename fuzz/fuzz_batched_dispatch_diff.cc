// libFuzzer entry point: "<batch byte><xpath>;...\n<xml>" — the document
// captured through both parser emitters (records written by the parser vs
// EventBatcher callbacks) into byte-identical batches, then multi-query
// pools checked batched vs direct-handler delivery for identical outcomes,
// verdicts, confirmations and items, and against the brute-force oracle.

#include "targets.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return xaos::fuzz::RunBatchedDispatchDiffInput(data, size);
}
