// Vectorized structural front-end for the streaming XML paths.
//
// Both the full SAX parse and the projection skip-scan spend their per-byte
// budget answering the same handful of questions: where is the next '<',
// does this text run contain '&' / ']' / a forbidden control byte, is it
// all whitespace, where does this start tag end once quoted attribute
// values are honored, and how many newlines went by (for byte-exact error
// positions). Before this module each question was a separate pass (memchr
// probes, find(), byte loops). The structural scanner answers all of them
// from ONE classification pass: input is processed in 64-byte blocks, each
// block yielding a set of 64-bit masks — bit i of a mask says byte i of the
// block belongs to that class ('<', '>', '"', '\'', '&', ']', newline,
// whitespace, forbidden control, '/', '!' or '?'). The masks are the index
// stream: consumers jump from structural position to structural position
// with ctz/popcount instead of inspecting every character, and the skip
// scanner counts whole blocks of a skipped subtree by mask arithmetic.
//
// Three interchangeable kernels produce the masks:
//   * scalar — portable table-driven byte loop; the oracle the others are
//     differentially tested against.
//   * swar   — 64-bit broadcast-compare tricks (Mycroft has-zero), no
//     intrinsics, works on every platform.
//   * sse2 / avx2 — x86 vector compares + movemask, selected at runtime
//     behind a function-pointer table after a cpuid check
//     (util/cpu_features.h). AVX2 code is compiled with a function-level
//     target attribute so the rest of the binary needs no -mavx2.
//
// Every kernel fills the same BlockMasks struct, and all higher-level logic
// (prefix masking at the first '<', quote-state tracking across blocks,
// newline accounting) is backend-independent driver code in this module —
// so backends can only disagree if a kernel mis-classifies a byte, which is
// exactly what the differential tests and fuzz_scanner_diff check.
//
// Chunk-boundary safety: a driver's answer depends only on the bytes of the
// span it is given (the mask array merely remembers their classification);
// resumability (split quotes, CDATA sections, comments across Feed() calls)
// stays in the parser's and skip scanner's held-back-bytes contract. A
// caller that got kNeedMore rescans the (bounded) unconsumed suffix when
// more input arrives, reading its already classified blocks again.

#ifndef XAOS_XML_STRUCTURAL_SCANNER_H_
#define XAOS_XML_STRUCTURAL_SCANNER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "util/statusor.h"

namespace xaos::xml {

inline constexpr size_t kScannerBlockBytes = 64;

enum class ScannerBackend : uint8_t {
  kScalar = 0,
  kSwar = 1,
  kSse2 = 2,
  kAvx2 = 3,
};

// One 64-byte block's classification. Bit i refers to byte i of the block;
// for a block shorter than 64 bytes the excess bits are zero in every mask.
struct BlockMasks {
  uint64_t lt;        // '<'
  uint64_t gt;        // '>'
  uint64_t dquote;    // '"'
  uint64_t squote;    // '\''
  uint64_t amp;       // '&'
  uint64_t rbracket;  // ']'
  uint64_t newline;   // '\n'
  uint64_t ws;        // XML whitespace: space, tab, CR, LF
  uint64_t ctl;       // C0 control other than tab/LF/CR (forbidden in Char)
  uint64_t slash;     // '/' (end tags, self-closing tags)
  uint64_t bang;      // '!' or '?' (after '<': comment, CDATA, PI)

  friend bool operator==(const BlockMasks&, const BlockMasks&) = default;
};

// Kernel signature: classify exactly kScannerBlockBytes bytes at `p`.
// Sub-block tails are staged through a zero-padded buffer by the driver, so
// kernels never read past their 64 bytes and never see a partial block.
using ClassifyBlockFn = void (*)(const char* p, BlockMasks* out);

// Bit i of the result is the parity of bits [0, i] of x: simdjson's
// carry-less-multiply quote trick in portable shift form. Applied to a
// block's quote bits it yields the inside-a-quoted-value region mask
// (opening quote through the byte before the closing quote).
inline uint64_t ScannerPrefixXor(uint64_t x) {
  x ^= x << 1;
  x ^= x << 2;
  x ^= x << 4;
  x ^= x << 8;
  x ^= x << 16;
  x ^= x << 32;
  return x;
}

// Population count. Without -mpopcnt, __builtin_popcountll compiles to a
// libgcc call; the per-tag paths below use this inline bit-slice form then.
inline unsigned ScannerPopcount(uint64_t x) {
#if defined(__POPCNT__)
  return static_cast<unsigned>(__builtin_popcountll(x));
#else
  x = x - ((x >> 1) & 0x5555555555555555ull);
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
#endif
}

// --- Backend selection -----------------------------------------------------

// Canonical lowercase name ("scalar", "swar", "sse2", "avx2").
const char* ScannerBackendName(ScannerBackend backend);

// Whether this process can run the backend: compiled in AND supported by
// the CPU (cpuid + OS state for AVX2). kScalar and kSwar are always true.
bool ScannerBackendAvailable(ScannerBackend backend);

// Best available backend in order avx2 > sse2 > swar.
ScannerBackend BestScannerBackend();

// Parses "scalar" / "swar" / "sse2" / "avx2" / "auto". Unknown names and
// backends this machine cannot run yield an InvalidArgument with the list
// of valid choices, so tools can reject bad --scanner= / XAOS_SCANNER
// values with a clear error.
StatusOr<ScannerBackend> ResolveScannerBackend(std::string_view name);

// Process-wide default, used by every parser whose ParserOptions does not
// pin a backend. Lazily initialized on first use: the XAOS_SCANNER
// environment variable if set and valid (an invalid value warns once on
// stderr and falls back), else BestScannerBackend().
ScannerBackend DefaultScannerBackend();
void SetDefaultScannerBackend(ScannerBackend backend);

// --- Drivers ---------------------------------------------------------------

// Facts about a character-data run: everything ParseText() needs to know,
// computed in one classification pass that stops at the first '<'. All
// fields describe the prefix [0, first_lt) — or all of [0, n) when no '<'
// is present (first_lt == npos).
struct TextFacts {
  size_t first_lt;     // offset of the first '<', or npos
  bool has_amp;        // '&' present
  bool has_rbracket;   // ']' present (gates the literal-"]]>" check)
  bool has_ctl;        // forbidden control byte present
  bool all_ws;         // every byte is XML whitespace
  uint32_t newlines;   // '\n' count
  size_t last_nl;      // offset of the last '\n', or npos
};

// Result of scanning a start-tag body for its terminating '>' while
// honoring quoted attribute values.
struct TagScan {
  enum class Kind {
    kEnd,       // `end` is the offset of the closing '>'
    kBadLt,     // an unquoted '<' appeared inside the tag (offset in `end`)
    kNeedMore,  // ran out of input before the tag resolved
  };
  Kind kind;
  size_t end;
  uint64_t quoted_values;  // attribute values closed before the '>'
  uint32_t newlines;       // '\n' count in [0, end) — only valid for kEnd
  size_t last_nl;          // offset of the last '\n' in [0, end), or npos
};

// Facts about one attribute value span: the three validations the parser
// used to make three passes for.
struct ValueFacts {
  bool has_lt;
  bool has_amp;
  bool has_ctl;
};

// Facts about a CDATA-section body (which may legally contain '<').
struct CDataFacts {
  bool has_ctl;
  bool all_ws;
};

// A configured classification front-end over one growing buffer.
//
// All drivers address the owner's buffer through (base, size, from): blocks
// live on a 64-byte grid anchored at `base`, and the masks of full blocks
// are kept in a mask array on that grid — a ring covering the most recent
// kWindowBlocks blocks — so consecutive scans (text run, then the tag that
// ends it, then that tag's attribute values) read each other's masks with
// one indexed load. A full block is classified once: in runs of up to
// kFillAheadBlocks, ahead of the first scan that needs it, so a range the
// owner consumes without scanning is never classified at all. The partial
// block at the buffer tail is classified fresh each time, since more bytes
// may arrive for it. Appending to the buffer leaves the array valid (full
// blocks never change); an owner that erases a prefix must erase a whole
// number of blocks and call DropBlocks() with that number, which shifts
// the grid, or call ResetBlocks() for any other mutation.
//
// All offsets in the returned fact structs are relative to `from`.
class StructuralScanner {
 public:
  // Uses the process-wide default backend.
  StructuralScanner();
  explicit StructuralScanner(ScannerBackend backend);

  void SetBackend(ScannerBackend backend);
  ScannerBackend backend() const { return backend_; }

  // Forgets every classified block.
  void ResetBlocks() { origin_ = lo_ = hi_ = 0; }
  // The owner erased the first `count` blocks of its buffer: block k + count
  // becomes block k.
  void DropBlocks(size_t count) { origin_ += count; }

  // One-pass facts for the character-data run [from, size) (stopping at the
  // first '<'). The walk over full blocks is inline — most runs end in
  // their first or second block; only the partial block at the buffer tail
  // takes an out-of-line call.
  TextFacts ScanText(const char* base, size_t size, size_t from) const {
    TextFacts facts{std::string_view::npos, false, false, false, true, 0,
                    std::string_view::npos};
    size_t bs = from & ~(kScannerBlockBytes - 1);
    uint64_t valid = ~0ull << (from - bs);
    for (; size - bs >= kScannerBlockBytes;
         bs += kScannerBlockBytes, valid = ~0ull) {
      if (AddTextBlock(FullBlock(base, size, bs), valid, bs, from, &facts)) {
        return facts;
      }
    }
    if (bs < size) ScanTextTail(base, size, bs, valid, from, &facts);
    return facts;
  }

  // Scans a start-tag body ([from, size), `from` addressing the byte AFTER
  // the opening '<') for the terminating '>'. `immediate_lt` selects who
  // consumes the scan: the skip scanner fails on an unquoted '<' the moment
  // it sees one, while the full parser reports kBadLt only once a '>'
  // arrives (before that the tag is merely incomplete) — both behaviors
  // predate this module and are preserved bit-for-bit.
  //
  // Inline fast path for the dominant shape — the tag resolves inside its
  // first block with no single quotes. Everything else (multi-block tags,
  // single-quoted values, stray '<', incomplete input) takes the
  // out-of-line general walk. This wrapper is called once per element by
  // both the parser and the skip scanner, so the fast path must not cost a
  // cross-TU call.
  TagScan ScanTag(const char* base, size_t size, size_t from,
                  bool immediate_lt) const {
    const size_t bs = from & ~(kScannerBlockBytes - 1);
    if (size - bs >= kScannerBlockBytes) {
      const BlockMasks& m = FullBlock(base, size, bs);
      const uint64_t valid = ~0ull << (from - bs);
      if ((m.squote & valid) == 0) {
        const uint64_t dq = m.dquote & valid;
        // Most tags carry no attribute in their first block.
        const uint64_t inside = dq != 0 ? ScannerPrefixXor(dq) : 0;
        const uint64_t gt_eff = m.gt & valid & ~inside;
        const uint64_t lt_eff = m.lt & valid & ~inside;
        if (gt_eff != 0) {
          const unsigned first_gt =
              static_cast<unsigned>(__builtin_ctzll(gt_eff));
          if (lt_eff == 0 ||
              first_gt < static_cast<unsigned>(__builtin_ctzll(lt_eff))) {
            TagScan scan{TagScan::Kind::kEnd, bs + first_gt - from, 0, 0,
                         std::string_view::npos};
            const uint64_t below =
                first_gt == 0 ? 0
                              : (~0ull >> (kScannerBlockBytes - first_gt));
            const uint64_t closing = dq & ~inside & below;
            if (closing != 0) scan.quoted_values = ScannerPopcount(closing);
            const uint64_t nl = m.newline & valid & below;
            if (nl != 0) {
              scan.newlines =
                  static_cast<uint32_t>(ScannerPopcount(nl));
              scan.last_nl = bs + 63 -
                             static_cast<unsigned>(__builtin_clzll(nl)) -
                             from;
            }
            return scan;
          }
        }
      }
    }
    return ScanTagGeneral(base, size, from, immediate_lt);
  }

  // Offset (relative to `from`) of the next '>' at or after `from`, or npos
  // when the buffer ends first. Used for end tags, whose bodies cannot
  // contain quoted values. Inline over full blocks, like ScanText.
  size_t NextGt(const char* base, size_t size, size_t from) const {
    size_t bs = from & ~(kScannerBlockBytes - 1);
    uint64_t valid = ~0ull << (from - bs);
    for (; size - bs >= kScannerBlockBytes;
         bs += kScannerBlockBytes, valid = ~0ull) {
      const uint64_t g = FullBlock(base, size, bs).gt & valid;
      if (g != 0) {
        return bs + static_cast<unsigned>(__builtin_ctzll(g)) - from;
      }
    }
    if (bs >= size) return std::string_view::npos;
    return NextGtTail(base, size, bs, valid, from);
  }

  // One-pass validation facts for the attribute value [from, from + len).
  // Inline fast path: the value lies within one full block.
  ValueFacts ScanValue(const char* base, size_t size, size_t from,
                       size_t len) const {
    const size_t bs = from & ~(kScannerBlockBytes - 1);
    if (from + len <= bs + kScannerBlockBytes &&
        size - bs >= kScannerBlockBytes) {
      const BlockMasks& m = FullBlock(base, size, bs);
      const unsigned lo = static_cast<unsigned>(from - bs);
      const uint64_t keep =
          len == 0 ? 0 : ((~0ull >> (kScannerBlockBytes - len)) << lo);
      return ValueFacts{(m.lt & keep) != 0, (m.amp & keep) != 0,
                        (m.ctl & keep) != 0};
    }
    return ScanValueGeneral(base, size, from, len);
  }

  // One-pass facts for a CDATA body. Classifies `span` directly (it need
  // not lie in the owner's buffer), bypassing the array.
  CDataFacts ScanCData(std::string_view span) const;

  // Masks of the full block (block_start + 64 <= size) at `block_start`
  // of the owner's buffer, from the mask array — the hot case, inlined
  // into every fast path. The skip scanner's block path reads skipped
  // subtrees through it, so every byte the parser sees is classified once.
  const BlockMasks& FullBlock(const char* base, size_t size,
                              size_t block_start) const {
    const size_t block = block_start / kScannerBlockBytes + origin_;
    if (block - lo_ >= hi_ - lo_) Fill(base, size, block);
    return window_[block & (kWindowBlocks - 1)];
  }

  // Bytes pushed through the classify kernel since the last Take. Folded
  // into xaos_scanner_bytes_classified_total by the parser at document end.
  uint64_t TakeBytesClassified() {
    uint64_t v = bytes_classified_;
    bytes_classified_ = 0;
    return v;
  }

 private:
  // Blocks classified per fill: 4 KiB of input, whose 4.5 KiB of masks
  // stay cache-resident until the scans that follow read them.
  static constexpr size_t kFillAheadBlocks = 64;
  // Ring size of the mask array (power of two): 16 KiB of input behind the
  // scan position stay classified, which covers every scan that looks
  // back (attribute values within a tag) short of a pathological tag.
  static constexpr size_t kWindowBlocks = 256;

  // Masks for the 64-byte-aligned block at `block_start` (< size). Full
  // blocks come from the array; the partial block at the buffer tail is
  // classified into *scratch every time.
  const BlockMasks& Block(const char* base, size_t size, size_t block_start,
                          BlockMasks* scratch) const {
    if (size - block_start >= kScannerBlockBytes) {
      return FullBlock(base, size, block_start);
    }
    ClassifyTail(base + block_start, size - block_start, scratch);
    return *scratch;
  }

  // Classifies the final `len` (< kScannerBlockBytes) bytes of a span by
  // staging them through a zero-padded block and trimming every mask to
  // length (zero padding classifies as control bytes).
  void ClassifyTail(const char* p, size_t len, BlockMasks* out) const;

  // Classifies from `block` (or from the end of the classified range, when
  // `block` extends it) up to kFillAheadBlocks ahead, within the full
  // blocks of [0, size). `block` counts from the grid origin.
  void Fill(const char* base, size_t size, size_t block) const;

  // Folds one block's masks, restricted to `valid`, into the facts of a
  // text run starting at `from`; true once the run's '<' is found.
  static bool AddTextBlock(const BlockMasks& m, uint64_t valid, size_t bs,
                           size_t from, TextFacts* facts) {
    const uint64_t lt = m.lt & valid;
    uint64_t keep = valid;
    if (lt != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(lt));
      facts->first_lt = bs + bit - from;
      keep = valid & ((1ull << bit) - 1);
    }
    facts->has_amp |= (m.amp & keep) != 0;
    facts->has_rbracket |= (m.rbracket & keep) != 0;
    facts->has_ctl |= (m.ctl & keep) != 0;
    facts->all_ws = facts->all_ws && (m.ws & keep) == keep;
    const uint64_t nl = m.newline & keep;
    if (nl != 0) {
      facts->newlines += ScannerPopcount(nl);
      facts->last_nl =
          bs + 63 - static_cast<unsigned>(__builtin_clzll(nl)) - from;
    }
    return lt != 0;
  }

  // The partial tail block [bs, size) of the walks above.
  void ScanTextTail(const char* base, size_t size, size_t bs, uint64_t valid,
                    size_t from, TextFacts* facts) const;
  size_t NextGtTail(const char* base, size_t size, size_t bs, uint64_t valid,
                    size_t from) const;
  // General walk behind the inline ScanTag fast path.
  TagScan ScanTagGeneral(const char* base, size_t size, size_t from,
                         bool immediate_lt) const;
  ValueFacts ScanValueGeneral(const char* base, size_t size, size_t from,
                              size_t len) const;

  ClassifyBlockFn classify_;
  ScannerBackend backend_;
  // The ring: block k (counted from the grid origin, i.e. including blocks
  // the owner has since dropped) lives at window_[k % kWindowBlocks], and
  // blocks [lo_, hi_) are valid. Buffer block j is block j + origin_.
  mutable std::unique_ptr<BlockMasks[]> window_;
  mutable size_t origin_ = 0;
  mutable size_t lo_ = 0;
  mutable size_t hi_ = 0;
  mutable uint64_t bytes_classified_ = 0;
};

// Exposed for the differential tests: raw kernel lookup (nullptr when the
// backend is unavailable) — drivers above are the supported interface.
ClassifyBlockFn ScannerKernelForTest(ScannerBackend backend);

}  // namespace xaos::xml

#endif  // XAOS_XML_STRUCTURAL_SCANNER_H_
