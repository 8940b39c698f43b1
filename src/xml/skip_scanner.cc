#include "xml/skip_scanner.h"

#include <algorithm>
#include <cstring>

#include "util/cpu_features.h"
#include "util/string_util.h"
#include "xml/entities.h"

namespace xaos::xml {
namespace {

constexpr size_t kNpos = std::string_view::npos;

bool IsXmlWs(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

// Whether a reference body (the text between '&' and ';') decodes to XML
// whitespace. Named references (&amp; &lt; &gt; &apos; &quot;) never do;
// numeric references do iff the code point is tab/LF/CR/space. Anything
// the decoder would reject is classified non-whitespace — the full parser
// rejects such documents, so the answer is never compared.
bool ReferenceIsWhitespace(std::string_view body) {
  if (body.size() < 2 || body[0] != '#') return false;
  uint32_t value = 0;
  size_t i = 1;
  if (body[1] == 'x' || body[1] == 'X') {
    for (i = 2; i < body.size(); ++i) {
      char c = body[i];
      uint32_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint32_t>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint32_t>(c - 'A') + 10;
      } else {
        return false;
      }
      if (value > 0x10FFFF) return false;
      value = value * 16 + digit;
    }
    if (i == 2) return false;
  } else {
    for (; i < body.size(); ++i) {
      char c = body[i];
      if (c < '0' || c > '9') return false;
      if (value > 0x10FFFF) return false;
      value = value * 10 + static_cast<uint32_t>(c - '0');
    }
  }
  return value == 0x20 || value == 0x9 || value == 0xA || value == 0xD;
}

// Whether `depth` (open elements inside the skip), moved by a block's
// start-tag '>' bits (`open_gt`, +1) and end-tag '>' bits (`end_gt`, -1) in
// document order, stays at least 1 and never opens an element at `limit`
// or deeper — the two checks the per-construct walk makes at each tag.
bool DepthStaysOpen(uint64_t open_gt, uint64_t end_gt, uint64_t depth,
                    uint64_t limit) {
  for (uint64_t bits = open_gt | end_gt; bits != 0; bits &= bits - 1) {
    if ((end_gt & bits & (0 - bits)) != 0) {
      if (--depth == 0) return false;
    } else if (depth++ >= limit) {
      return false;
    }
  }
  return true;
}

template <bool kPopcnt>
inline uint64_t Popcount(uint64_t x) {
  if constexpr (kPopcnt) {
    return static_cast<uint64_t>(__builtin_popcountll(x));
  } else {
    return ScannerPopcount(x);
  }
}

}  // namespace

void SkipScanner::Begin(const SkipReport& initial, size_t base_open_depth,
                        int max_depth, bool count_whitespace_runs) {
  report_ = initial;
  base_open_depth_ = base_open_depth;
  max_depth_ = max_depth;
  depth_ = 1;
  count_ws_runs_ = count_whitespace_runs;
  run_has_content_ = false;
  run_non_ws_ = false;
  limit_error_ = false;
  error_message_.clear();
}

// Decides whether a still-undecided run stays all-whitespace. Only called
// until the first non-whitespace byte settles the classification.
void SkipScanner::ClassifyText(std::string_view run) {
  size_t i = 0;
  while (i < run.size()) {
    char c = run[i];
    if (IsXmlWs(c)) {
      ++i;
      continue;
    }
    if (c != '&') {
      run_non_ws_ = true;
      return;
    }
    size_t semi = run.find(';', i + 1);
    if (semi == kNpos || semi - i - 1 > kMaxReferenceBodyBytes) {
      run_non_ws_ = true;  // malformed/overlong: full parser rejects
      return;
    }
    if (!ReferenceIsWhitespace(run.substr(i + 1, semi - i - 1))) {
      run_non_ws_ = true;
      return;
    }
    i = semi + 1;
  }
}

void SkipScanner::ProcessCData(const StructuralScanner& scanner,
                               std::string_view content) {
  if (content.empty()) return;
  run_has_content_ = true;
  if (count_ws_runs_ || run_non_ws_) return;
  if (!scanner.ScanCData(content).all_ws) {
    run_non_ws_ = true;
  }
}

SkipScanner::State SkipScanner::Error(std::string message, size_t at,
                                      size_t* consumed) {
  error_message_ = std::move(message);
  *consumed = at;
  report_.bytes += at;
  return State::kError;
}

SkipScanner::State SkipScanner::LimitError(std::string message, size_t at,
                                           size_t* consumed) {
  limit_error_ = true;
  return Error(std::move(message), at, consumed);
}

template <bool kPopcnt>
[[gnu::always_inline]] inline size_t SkipScanner::ScanBlocksWith(
    const StructuralScanner& scanner, const char* base, size_t size,
    size_t at, size_t* text_from, size_t* stop) {
  constexpr size_t kBlk = kScannerBlockBytes;
  // Running counts, including those of a tag still open at a block end;
  // `pending_ids` are that tag's share of report.node_ids (its closed
  // quoted values, plus the text run it flushes), committed once it closes.
  SkipReport report = report_;
  uint64_t depth = depth_;
  uint64_t pending_ids = 0;
  // State carried from block to block (each 0 or 1): inside a tag, inside
  // a quoted value, inside an end tag's body, previous block ending in '<'
  // or '/', and whether the text run in progress consumes a node id.
  uint64_t in_tag = 0, in_quote = 0, in_end = 0, prev_lt = 0, prev_slash = 0;
  uint64_t run = count_ws_runs_ ? run_has_content_ : run_non_ws_;
  // Open depth inside the skip at which a start tag trips max_depth.
  const uint64_t limit = static_cast<uint64_t>(max_depth_) -
                         std::min<uint64_t>(base_open_depth_, max_depth_);
  size_t bs = at & ~(kBlk - 1);
  uint64_t valid = ~0ull << (at - bs);
  for (; size - bs >= kBlk; bs += kBlk, valid = ~0ull) {
    const BlockMasks& m = scanner.FullBlock(base, size, bs);
    const uint64_t lt = m.lt & valid;
    const uint64_t gt = m.gt & valid;
    const uint64_t tags = lt | gt;
    // Tag bodies: each '<' through the byte before its '>'. Valid only if
    // '<' and '>' alternate; a '>' in text or a '<' in a tag breaks that.
    const uint64_t region = ScannerPrefixXor(tags) ^ (0 - in_tag);
    if (((lt & ~region) | (gt & region)) != 0) break;
    if ((m.squote & region) != 0) break;
    // Attribute values: double-quote parity inside tags. A '<' or '>'
    // inside one would move the tag boundaries computed above.
    const uint64_t dq = m.dquote & region;
    uint64_t quoted = 0;
    if ((dq | in_quote) != 0) {
      quoted = ScannerPrefixXor(dq) ^ (0 - in_quote);
      if ((tags & quoted) != 0) break;
    }
    // Comments, CDATA sections and PIs take the walk.
    if ((((lt << 1) | prev_lt) & m.bang) != 0) break;
    // Tag kinds. An end tag's body runs from the '/' after its '<' to its
    // '>': adding the '/' bit to the region clears exactly that run.
    const uint64_t slash = m.slash & valid;
    const uint64_t end_open = slash & ((lt << 1) | prev_lt);
    const uint64_t end_body = region & ~(region + (end_open | in_end));
    const uint64_t end_gt = gt & ((end_body << 1) | in_end);
    const uint64_t start_gt = gt & ~end_gt;
    const uint64_t open_gt = start_gt & ~((slash << 1) | prev_slash);
    const uint64_t ends = Popcount<kPopcnt>(end_gt);
    const uint64_t opens = Popcount<kPopcnt>(open_gt);
    // The skip must not end in this block, nor the depth limit trip. The
    // counts settle that for most blocks; the rest replay their tag ends
    // in order.
    if ((ends >= depth || depth + opens > limit) &&
        !DepthStaysOpen(open_gt, end_gt, depth, limit)) {
      break;
    }
    // Text runs: a run consumes a node id iff it holds a content byte
    // (non-whitespace, or any byte when whitespace runs count). Adding the
    // content bits to ~lt carries a 1 into each '<' that ends such a run.
    const uint64_t text = valid & ~region & ~gt;
    const uint64_t content = count_ws_runs_ ? text : (text & ~m.ws);
    const uint64_t amp = m.amp & text;
    if (amp != 0 && !count_ws_runs_) {
      // A reference may decode to whitespace: every '&' must follow a
      // content byte of its run, i.e. receive a carry the same way.
      const uint64_t decided = (content & ~amp) + ~(lt | amp) + run;
      if ((amp & ~decided) != 0) break;
    }
    uint64_t sum;
    uint64_t carry = __builtin_add_overflow(content, ~lt, &sum) ? 1 : 0;
    carry |= __builtin_add_overflow(sum, run, &sum) ? 1 : 0;
    const uint64_t flushed = sum & lt;
    const uint64_t closed_values = dq & ~quoted & ~end_body;
    // Elements ('>'), attributes ('"') and text runs ('<') sit on distinct
    // bytes: one popcount sums their node ids.
    report.elements += Popcount<kPopcnt>(start_gt);
    report.node_ids +=
        Popcount<kPopcnt>(start_gt | closed_values | flushed);
    depth = depth + opens - ends;
    in_tag = region >> 63;
    in_quote = quoted >> 63;
    in_end = end_body >> 63;
    prev_lt = lt >> 63;
    prev_slash = slash >> 63;
    run = carry;
    // Commit up to a construct boundary: the block end when it falls in
    // text, else the '<' of the tag it cuts (if that tag opened here).
    uint64_t committed_run = run;
    if (in_tag == 0) {
      pending_ids = 0;
      at = bs + kBlk;
      if (gt != 0) {
        *text_from = bs + kBlk - static_cast<unsigned>(__builtin_clzll(gt));
      }
    } else if (lt != 0) {
      const unsigned p = 63 - static_cast<unsigned>(__builtin_clzll(lt));
      committed_run = (flushed >> p) & 1;
      pending_ids = Popcount<kPopcnt>(closed_values >> p) + committed_run;
      at = bs + p;
      *text_from = at;
    } else {
      pending_ids += Popcount<kPopcnt>(closed_values);
      continue;
    }
    report_ = report;
    report_.node_ids -= pending_ids;
    depth_ = depth;
    run_has_content_ = committed_run != 0;
    run_non_ws_ = committed_run != 0;
  }
  *stop = bs + kBlk;
  return at;
}

size_t SkipScanner::ScanBlocks(const StructuralScanner& scanner,
                               const char* base, size_t size, size_t at,
                               size_t* text_from, size_t* stop) {
#if defined(XAOS_SKIP_SCANNER_POPCNT)
  // Under the AVX2 kernel (whose CPUs have POPCNT) the counts use the
  // instruction; the other backends keep the portable count, so the
  // backend differentials run both builds of the block step.
  if (scanner.backend() == ScannerBackend::kAvx2 &&
      util::DetectCpuFeatures().popcnt) {
    return ScanBlocksPopcnt(scanner, base, size, at, text_from, stop);
  }
#endif
  return ScanBlocksWith<false>(scanner, base, size, at, text_from, stop);
}

#if defined(XAOS_SKIP_SCANNER_POPCNT)
// The POPCNT target reaches the inlined body, so its counts compile to the
// instruction (the portable count made skips about a fifth slower on XMark
// bodies).
__attribute__((target("popcnt"))) size_t SkipScanner::ScanBlocksPopcnt(
    const StructuralScanner& scanner, const char* base, size_t size,
    size_t at, size_t* text_from, size_t* stop) {
  return ScanBlocksWith<true>(scanner, base, size, at, text_from, stop);
}
#endif

SkipScanner::State SkipScanner::Scan(const StructuralScanner& scanner,
                                     std::string_view buffer, size_t from,
                                     size_t* consumed) {
  const char* base = buffer.data();
  const size_t size = buffer.size();
  size_t i = from;
  // Start of the text run ending at `i` within this call: an incomplete
  // reference at the input's end is held back from there, whichever path
  // took the text before it.
  size_t text_from = from;
  // The block path runs whenever `i` has reached this; after a block it
  // could not take, the walk first carries `i` past that block.
  size_t blocks_from = from;
  State result = State::kScanning;
  while (i < size) {
    if (i >= blocks_from) {
      i = ScanBlocks(scanner, base, size, i, &text_from, &blocks_from);
      continue;
    }
    if (base[i] != '<') {
      // Character data until the next markup; text running to the input's
      // end is settled below.
      const char* lt =
          static_cast<const char*>(std::memchr(base + i, '<', size - i));
      if (lt == nullptr) break;
      const size_t next = static_cast<size_t>(lt - base);
      ProcessText(std::string_view(base + i, next - i));
      i = next;
      continue;
    }
    std::string_view rest(base + i, size - i);
    if (rest.size() < 2) break;
    if (rest[1] == '/') {
      const size_t gt = scanner.NextGt(base, size, i + 2);
      if (gt == kNpos) break;
      FlushRun();
      i += 2 + gt + 1;
      text_from = i;
      if (--depth_ == 0) {
        result = State::kDone;
        break;
      }
      continue;
    }
    if (rest[1] == '?') {
      size_t end = rest.find("?>", 2);
      if (end == kNpos) break;
      i += end + 2;
      text_from = i;
      continue;
    }
    if (rest[1] == '!') {
      // Inside an element only comments and CDATA sections are legal, so
      // anything else errors once enough bytes arrive to classify it.
      if (rest.size() < 9 &&
          (StartsWith(std::string_view("<!--").substr(0, rest.size()), rest) ||
           StartsWith(std::string_view("<![CDATA[").substr(0, rest.size()),
                      rest))) {
        break;
      }
      if (StartsWith(rest, "<!--")) {
        size_t end = rest.find("-->", 4);
        if (end == kNpos) break;
        i += end + 3;
        text_from = i;
        continue;
      }
      if (StartsWith(rest, "<![CDATA[")) {
        size_t end = rest.find("]]>", 9);
        if (end == kNpos) break;
        ProcessCData(scanner, rest.substr(9, end - 9));
        i += end + 3;
        text_from = i;
        continue;
      }
      return Error("unsupported markup declaration", i - from, consumed);
    }
    // Start tag: the quote-aware '>' search and the quoted-attribute-value
    // count in one structural scan. A stray unquoted '<' fails the instant
    // it is seen.
    const TagScan scan =
        scanner.ScanTag(base, size, i + 1, /*immediate_lt=*/true);
    if (scan.kind == TagScan::Kind::kBadLt) {
      return Error("'<' inside tag", i - from, consumed);
    }
    if (scan.kind == TagScan::Kind::kNeedMore) break;
    const size_t tag_gt = i + 1 + scan.end;
    const bool self_closing = tag_gt - i >= 2 && base[tag_gt - 1] == '/';
    FlushRun();
    report_.elements += 1;
    report_.node_ids += 1 + scan.quoted_values;
    if (!self_closing) {
      if (base_open_depth_ + depth_ >= static_cast<uint64_t>(max_depth_)) {
        return LimitError("maximum element depth of " +
                              std::to_string(max_depth_) + " exceeded",
                          i - from, consumed);
      }
      ++depth_;
    }
    i = tag_gt + 1;
    text_from = i;
  }
  if (result == State::kScanning && (i == size || base[i] != '<')) {
    // The input ends in text. Only its whitespace-ness matters, so a
    // trailing incomplete reference is held back exactly like the full
    // parser holds it (its decoded value could be either) — also when the
    // block path took the text past its '&'.
    const std::string_view text(base + text_from, size - text_from);
    const size_t amp = text.rfind('&');
    size_t end = size;
    if (amp != kNpos && text.find(';', amp) == kNpos &&
        text.size() - amp <= kMaxReferenceBodyBytes + 1) {
      end = text_from + amp;
    }
    if (end > i) ProcessText(std::string_view(base + i, end - i));
    i = end;
  }
  *consumed = i - from;
  report_.bytes += i - from;
  return result;
}

}  // namespace xaos::xml
