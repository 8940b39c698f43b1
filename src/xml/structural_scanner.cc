#include "xml/structural_scanner.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>

#include "util/cpu_features.h"

#if defined(__x86_64__) || defined(_M_X64)
#define XAOS_SCANNER_X86_64 1
#include <immintrin.h>
#endif

namespace xaos::xml {
namespace {

constexpr size_t kNpos = std::string_view::npos;
constexpr size_t kBlock = kScannerBlockBytes;

// ---------------------------------------------------------------------------
// Scalar kernel: the oracle. One class-bit table lookup per byte, scattered
// into the eleven masks. Deliberately simple — every other kernel must match
// its output bit-for-bit on every possible byte.

enum : uint16_t {
  kClassLt = 1u << 0,
  kClassGt = 1u << 1,
  kClassDq = 1u << 2,
  kClassSq = 1u << 3,
  kClassAmp = 1u << 4,
  kClassRb = 1u << 5,
  kClassNl = 1u << 6,
  kClassWs = 1u << 7,
  kClassCtl = 1u << 8,
  kClassSlash = 1u << 9,
  kClassBang = 1u << 10,
};

constexpr uint16_t ClassOf(unsigned char c) {
  uint16_t cls = 0;
  if (c == '<') cls |= kClassLt;
  if (c == '>') cls |= kClassGt;
  if (c == '"') cls |= kClassDq;
  if (c == '\'') cls |= kClassSq;
  if (c == '&') cls |= kClassAmp;
  if (c == ']') cls |= kClassRb;
  if (c == '\n') cls |= kClassNl;
  if (c == ' ' || c == '\t' || c == '\r' || c == '\n') cls |= kClassWs;
  if (c < 0x20 && c != 0x09 && c != 0x0A && c != 0x0D) cls |= kClassCtl;
  if (c == '/') cls |= kClassSlash;
  if (c == '!' || c == '?') cls |= kClassBang;
  return cls;
}

struct ClassTable {
  uint16_t entries[256];
};

constexpr ClassTable MakeClassTable() {
  ClassTable table{};
  for (unsigned i = 0; i < 256; ++i) {
    table.entries[i] = ClassOf(static_cast<unsigned char>(i));
  }
  return table;
}

constexpr ClassTable kClassTable = MakeClassTable();

void ClassifyScalar(const char* p, BlockMasks* out) {
  BlockMasks m{};
  for (size_t i = 0; i < kBlock; ++i) {
    const uint64_t cls =
        kClassTable.entries[static_cast<unsigned char>(p[i])];
    // Most bytes (name and text characters) are class 0 — one predictable
    // branch skips them. Classed bytes update all masks branchlessly:
    // a chain of data-dependent `if`s here mispredicts on every structural
    // byte, which the other kernels never pay.
    if (cls == 0) continue;
    const uint64_t bit = 1ull << i;
    m.lt |= bit * (cls & 1);
    m.gt |= bit * ((cls >> 1) & 1);
    m.dquote |= bit * ((cls >> 2) & 1);
    m.squote |= bit * ((cls >> 3) & 1);
    m.amp |= bit * ((cls >> 4) & 1);
    m.rbracket |= bit * ((cls >> 5) & 1);
    m.newline |= bit * ((cls >> 6) & 1);
    m.ws |= bit * ((cls >> 7) & 1);
    m.ctl |= bit * ((cls >> 8) & 1);
    m.slash |= bit * ((cls >> 9) & 1);
    m.bang |= bit * ((cls >> 10) & 1);
  }
  *out = m;
}

// ---------------------------------------------------------------------------
// SWAR kernel: 8 bytes per step with broadcast-compare tricks, no
// intrinsics. Each 8-byte word yields 0x80-flagged match bytes per class
// (Mycroft has-zero on w ^ broadcast), collapsed to an 8-bit mask with the
// multiply-gather trick, then OR'd into the 64-bit block mask at 8*k.

constexpr uint64_t kOnes = 0x0101010101010101ull;
constexpr uint64_t kHighs = 0x8080808080808080ull;

inline uint64_t LoadWordLe(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  w = __builtin_bswap64(w);
#endif
  return w;
}

// 0x80 in each byte of `x` that is zero, 0 elsewhere — EXACT positions.
// (The classic Mycroft `(x - kOnes) & ~x & kHighs` form is boolean-exact
// but positionally inexact: subtraction borrows can flag a 0x01 byte that
// sits above a true zero. This carry-free form has no such false flags:
// per byte, (b & 0x7F) + 0x7F sets bit 7 iff the low bits are nonzero, so
// bit 7 of ~(y | x) is set iff the whole byte is zero.)
inline uint64_t ZeroBytes(uint64_t x) {
  const uint64_t k7f = 0x7F7F7F7F7F7F7F7Full;
  const uint64_t y = (x & k7f) + k7f;
  return ~(y | x) & kHighs;
}

// 0x80 in each byte of `w` equal to `c`, 0 elsewhere.
inline uint64_t EqByte(uint64_t w, char c) {
  return ZeroBytes(w ^ (kOnes * static_cast<unsigned char>(c)));
}

// 0x80 in each byte of `w` strictly below 0x20: top three bits all clear.
inline uint64_t Below20(uint64_t w) {
  return ZeroBytes(w & 0xE0E0E0E0E0E0E0E0ull);
}

// Collapses 0x80-flagged bytes into an 8-bit mask (bit k = byte k matched).
inline uint64_t CollapseHighBits(uint64_t flags) {
  return ((flags >> 7) * 0x0102040810204080ull) >> 56;
}

void ClassifySwar(const char* p, BlockMasks* out) {
  BlockMasks m{};
  for (size_t k = 0; k < kBlock / 8; ++k) {
    const uint64_t w = LoadWordLe(p + 8 * k);
    const unsigned shift = static_cast<unsigned>(8 * k);
    const uint64_t tab = EqByte(w, '\t');
    const uint64_t nl = EqByte(w, '\n');
    const uint64_t cr = EqByte(w, '\r');
    const uint64_t sp = EqByte(w, ' ');
    m.lt |= CollapseHighBits(EqByte(w, '<')) << shift;
    m.gt |= CollapseHighBits(EqByte(w, '>')) << shift;
    m.dquote |= CollapseHighBits(EqByte(w, '"')) << shift;
    m.squote |= CollapseHighBits(EqByte(w, '\'')) << shift;
    m.amp |= CollapseHighBits(EqByte(w, '&')) << shift;
    m.rbracket |= CollapseHighBits(EqByte(w, ']')) << shift;
    m.newline |= CollapseHighBits(nl) << shift;
    m.ws |= CollapseHighBits(tab | nl | cr | sp) << shift;
    m.ctl |= CollapseHighBits(Below20(w) & ~(tab | nl | cr)) << shift;
    m.slash |= CollapseHighBits(EqByte(w, '/')) << shift;
    m.bang |= CollapseHighBits(EqByte(w, '!') | EqByte(w, '?')) << shift;
  }
  *out = m;
}

// ---------------------------------------------------------------------------
// SSE2 kernel: 4 x 16-byte compares + movemask. SSE2 is part of the x86-64
// baseline, so on that architecture it always compiles; the runtime cpuid
// check still gates selection for uniformity with AVX2.

#if defined(XAOS_SCANNER_X86_64)

void ClassifySse2(const char* p, BlockMasks* out) {
  BlockMasks m{};
  for (size_t k = 0; k < kBlock / 16; ++k) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * k));
    const unsigned shift = static_cast<unsigned>(16 * k);
    auto mask_eq = [&v](char c) {
      return static_cast<uint64_t>(static_cast<unsigned>(
          _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_set1_epi8(c)))));
    };
    const uint64_t tab = mask_eq('\t');
    const uint64_t nl = mask_eq('\n');
    const uint64_t cr = mask_eq('\r');
    const uint64_t sp = mask_eq(' ');
    // v < 0x20 unsigned: min(v, 0x1F) == v.
    const uint64_t below20 = static_cast<uint64_t>(
        static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(
            _mm_min_epu8(v, _mm_set1_epi8(0x1F)), v))));
    m.lt |= mask_eq('<') << shift;
    m.gt |= mask_eq('>') << shift;
    m.dquote |= mask_eq('"') << shift;
    m.squote |= mask_eq('\'') << shift;
    m.amp |= mask_eq('&') << shift;
    m.rbracket |= mask_eq(']') << shift;
    m.newline |= nl << shift;
    m.ws |= (tab | nl | cr | sp) << shift;
    m.ctl |= (below20 & ~(tab | nl | cr)) << shift;
    m.slash |= mask_eq('/') << shift;
    m.bang |= (mask_eq('!') | mask_eq('?')) << shift;
  }
  *out = m;
}

// AVX2 kernel: 2 x 32-byte compares, plus pshufb lookups for the two
// classes of several characters. Compiled with a function-level target
// attribute so the translation unit (and the rest of the binary) does not
// need -mavx2; entry is gated by the cpuid/xgetbv check in
// util/cpu_features.cc.

// Each byte value the kernel compares against, splatted across 32 bytes.
// Compares read them from memory: materializing a splat in registers
// costs two shuffle-port uops per constant per call.
struct alignas(32) Splat32 {
  char bytes[32];
};

constexpr Splat32 MakeSplat32(char c) {
  Splat32 s{};
  for (char& b : s.bytes) b = c;
  return s;
}

// A byte compares equal to its pshufb lookup in one of these tables iff it
// is one of the table's characters: each sits at the index of its low
// nibble (all distinct), every other entry has a different low nibble,
// and pshufb maps bytes >= 0x80 to 0, which none of them equals.
constexpr Splat32 MakeNibbleTable(std::initializer_list<char> chars) {
  Splat32 t{};
  for (int i = 0; i < 16; ++i) {
    t.bytes[i] = static_cast<char>(0xF0 | ((i + 1) & 0xF));
  }
  for (char c : chars) t.bytes[c & 0xF] = c;
  for (int i = 0; i < 16; ++i) t.bytes[16 + i] = t.bytes[i];  // both lanes
  return t;
}

struct Avx2Constants {
  Splat32 lt = MakeSplat32('<'), gt = MakeSplat32('>'),
          dquote = MakeSplat32('"'), squote = MakeSplat32('\''),
          amp = MakeSplat32('&'), rbracket = MakeSplat32(']'),
          nl = MakeSplat32('\n'), below20 = MakeSplat32(0x1F),
          slash = MakeSplat32('/'),
          ws = MakeNibbleTable({' ', '\t', '\n', '\r'}),
          bang = MakeNibbleTable({'!', '?'});
};

constexpr Avx2Constants kAvx2Table{};

// gcc does not propagate the enclosing function's target attribute into
// lambdas, so the movemask and the per-class compare are free helpers.
__attribute__((target("avx2"))) inline __m256i Load256(const Splat32& s) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(s.bytes));
}

__attribute__((target("avx2"))) inline __m256i Eq256(__m256i v,
                                                     const Splat32& s) {
  return _mm256_cmpeq_epi8(v, Load256(s));
}

__attribute__((target("avx2"))) inline __m256i InTable256(
    __m256i v, const Splat32& table) {
  return _mm256_cmpeq_epi8(v, _mm256_shuffle_epi8(Load256(table), v));
}

__attribute__((target("avx2"))) inline uint64_t Movemask256(__m256i v) {
  return static_cast<uint64_t>(static_cast<unsigned>(_mm256_movemask_epi8(v)));
}

__attribute__((target("avx2"))) void ClassifyAvx2(const char* p,
                                                  BlockMasks* out) {
  // Opaque to the optimizer, so compares take the splats as memory
  // operands instead of rebuilding each one in a register.
  const Avx2Constants* table = &kAvx2Table;
  __asm__("" : "+r"(table));
  const Avx2Constants& splat = *table;
  BlockMasks m{};
  for (size_t k = 0; k < kBlock / 32; ++k) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32 * k));
    const unsigned shift = static_cast<unsigned>(32 * k);
    const __m256i nl = Eq256(v, splat.nl);
    const __m256i ws = InTable256(v, splat.ws);
    // v < 0x20 unsigned: min(v, 0x1F) == v. Space is not below 0x20, so
    // the control bytes are the ones below 0x20 that are not whitespace.
    const __m256i below20 =
        _mm256_cmpeq_epi8(_mm256_min_epu8(v, Load256(splat.below20)), v);
    m.lt |= Movemask256(Eq256(v, splat.lt)) << shift;
    m.gt |= Movemask256(Eq256(v, splat.gt)) << shift;
    m.dquote |= Movemask256(Eq256(v, splat.dquote)) << shift;
    m.squote |= Movemask256(Eq256(v, splat.squote)) << shift;
    m.amp |= Movemask256(Eq256(v, splat.amp)) << shift;
    m.rbracket |= Movemask256(Eq256(v, splat.rbracket)) << shift;
    m.newline |= Movemask256(nl) << shift;
    m.ws |= Movemask256(ws) << shift;
    m.ctl |= Movemask256(_mm256_andnot_si256(ws, below20)) << shift;
    m.slash |= Movemask256(Eq256(v, splat.slash)) << shift;
    m.bang |= Movemask256(InTable256(v, splat.bang)) << shift;
  }
  *out = m;
}

#endif  // XAOS_SCANNER_X86_64

// ---------------------------------------------------------------------------
// Dispatch table and process-wide default.

ClassifyBlockFn KernelFor(ScannerBackend backend) {
  switch (backend) {
    case ScannerBackend::kScalar:
      return &ClassifyScalar;
    case ScannerBackend::kSwar:
      return &ClassifySwar;
#if defined(XAOS_SCANNER_X86_64)
    case ScannerBackend::kSse2:
      return util::DetectCpuFeatures().sse2 ? &ClassifySse2 : nullptr;
    case ScannerBackend::kAvx2:
      return util::DetectCpuFeatures().avx2 ? &ClassifyAvx2 : nullptr;
#else
    case ScannerBackend::kSse2:
    case ScannerBackend::kAvx2:
      return nullptr;
#endif
  }
  return nullptr;
}

std::string AvailableBackendList() {
  std::string out;
  for (ScannerBackend backend :
       {ScannerBackend::kScalar, ScannerBackend::kSwar, ScannerBackend::kSse2,
        ScannerBackend::kAvx2}) {
    if (!ScannerBackendAvailable(backend)) continue;
    if (!out.empty()) out += ", ";
    out += ScannerBackendName(backend);
  }
  out += ", auto";
  return out;
}

// kNotSelected until the first DefaultScannerBackend() call or an explicit
// SetDefaultScannerBackend().
constexpr int kNotSelected = -1;
std::atomic<int> g_default_backend{kNotSelected};

ScannerBackend InitDefaultBackend() {
  const char* env = std::getenv("XAOS_SCANNER");
  if (env != nullptr && env[0] != '\0') {
    StatusOr<ScannerBackend> parsed = ResolveScannerBackend(env);
    if (parsed.ok()) return *parsed;
    std::fprintf(stderr, "warning: XAOS_SCANNER: %s\n",
                 std::string(parsed.status().message()).c_str());
  }
  return BestScannerBackend();
}

}  // namespace

const char* ScannerBackendName(ScannerBackend backend) {
  switch (backend) {
    case ScannerBackend::kScalar:
      return "scalar";
    case ScannerBackend::kSwar:
      return "swar";
    case ScannerBackend::kSse2:
      return "sse2";
    case ScannerBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool ScannerBackendAvailable(ScannerBackend backend) {
  return KernelFor(backend) != nullptr;
}

ScannerBackend BestScannerBackend() {
  if (ScannerBackendAvailable(ScannerBackend::kAvx2)) {
    return ScannerBackend::kAvx2;
  }
  if (ScannerBackendAvailable(ScannerBackend::kSse2)) {
    return ScannerBackend::kSse2;
  }
  return ScannerBackend::kSwar;
}

StatusOr<ScannerBackend> ResolveScannerBackend(std::string_view name) {
  if (name == "auto") return BestScannerBackend();
  for (ScannerBackend backend :
       {ScannerBackend::kScalar, ScannerBackend::kSwar, ScannerBackend::kSse2,
        ScannerBackend::kAvx2}) {
    if (name != ScannerBackendName(backend)) continue;
    if (!ScannerBackendAvailable(backend)) {
      return InvalidArgumentError("scanner backend '" + std::string(name) +
                                  "' is not supported on this CPU "
                                  "(available: " +
                                  AvailableBackendList() + ")");
    }
    return backend;
  }
  return InvalidArgumentError("unknown scanner backend '" + std::string(name) +
                              "' (available: " + AvailableBackendList() + ")");
}

ScannerBackend DefaultScannerBackend() {
  int current = g_default_backend.load(std::memory_order_relaxed);
  if (current == kNotSelected) {
    const ScannerBackend selected = InitDefaultBackend();
    // A concurrent initializer picks the same value (env + cpuid are
    // stable), so a plain race-free publish is enough.
    g_default_backend.store(static_cast<int>(selected),
                            std::memory_order_relaxed);
    return selected;
  }
  return static_cast<ScannerBackend>(current);
}

void SetDefaultScannerBackend(ScannerBackend backend) {
  if (!ScannerBackendAvailable(backend)) backend = BestScannerBackend();
  g_default_backend.store(static_cast<int>(backend),
                          std::memory_order_relaxed);
}

ClassifyBlockFn ScannerKernelForTest(ScannerBackend backend) {
  return KernelFor(backend);
}

// ---------------------------------------------------------------------------
// StructuralScanner drivers.

StructuralScanner::StructuralScanner()
    : StructuralScanner(DefaultScannerBackend()) {}

StructuralScanner::StructuralScanner(ScannerBackend backend) {
  SetBackend(backend);
}

void StructuralScanner::SetBackend(ScannerBackend backend) {
  ClassifyBlockFn fn = KernelFor(backend);
  if (fn == nullptr) {
    backend = BestScannerBackend();
    fn = KernelFor(backend);
  }
  backend_ = backend;
  classify_ = fn;
  ResetBlocks();
}

void StructuralScanner::Fill(const char* base, size_t size,
                             size_t block) const {
  if (window_ == nullptr) {
    // Default-initialized: every slot is classified before it is read.
    window_.reset(new BlockMasks[kWindowBlocks]);
  }
  if (block < lo_ || block > hi_) lo_ = hi_ = block;
  size_t end = block + kFillAheadBlocks;
  if (end > origin_ + size / kBlock) end = origin_ + size / kBlock;
  for (size_t k = hi_; k < end; ++k) {
    classify_(base + (k - origin_) * kBlock,
              &window_[k & (kWindowBlocks - 1)]);
  }
  bytes_classified_ += (end - hi_) * kBlock;
  hi_ = end;
  if (hi_ - lo_ > kWindowBlocks) lo_ = hi_ - kWindowBlocks;
}

void StructuralScanner::ClassifyTail(const char* p, size_t len,
                                     BlockMasks* out) const {
  alignas(kBlock) char staged[kBlock] = {};
  std::memcpy(staged, p, len);
  classify_(staged, out);
  bytes_classified_ += len;
  // Zero padding classifies as control bytes; trim every mask to length.
  const uint64_t keep = len == 0 ? 0 : (~0ull >> (kBlock - len));
  out->lt &= keep;
  out->gt &= keep;
  out->dquote &= keep;
  out->squote &= keep;
  out->amp &= keep;
  out->rbracket &= keep;
  out->newline &= keep;
  out->ws &= keep;
  out->ctl &= keep;
  out->slash &= keep;
  out->bang &= keep;
}

void StructuralScanner::ScanTextTail(const char* base, size_t size,
                                     size_t bs, uint64_t valid, size_t from,
                                     TextFacts* facts) const {
  BlockMasks m;
  ClassifyTail(base + bs, size - bs, &m);
  AddTextBlock(m, valid & (~0ull >> (kBlock - (size - bs))), bs, from, facts);
}

TagScan StructuralScanner::ScanTagGeneral(const char* base, size_t size,
                                          size_t from,
                                          bool immediate_lt) const {
  TagScan scan{TagScan::Kind::kNeedMore, 0, 0, 0, kNpos};
  size_t bad_lt = kNpos;
  char quote = 0;
  BlockMasks scratch;
  for (size_t bs = from & ~(kBlock - 1); bs < size; bs += kBlock) {
    const BlockMasks& m = Block(base, size, bs, &scratch);
    const size_t len = size - bs < kBlock ? size - bs : kBlock;
    uint64_t valid = len == kBlock ? ~0ull : (~0ull >> (kBlock - len));
    if (bs < from) valid &= ~0ull << (from - bs);
    // Once a stray '<' is recorded in deferred mode, the only outcomes left
    // are kBadLt (at the next '>' anywhere, quoted or not) and kNeedMore —
    // the walk degenerates to a '>' probe.
    if (bad_lt != kNpos) {
      if ((m.gt & valid) != 0) {
        scan.kind = TagScan::Kind::kBadLt;
        scan.end = bad_lt - from;
        return scan;
      }
      continue;
    }
    if ((m.squote & valid) == 0 && quote != '\'') {
      // Branchless fast path (no single quotes in play): prefix-xor turns
      // the double-quote bits into an inside-a-value region mask, blinding
      // '>' and '<' inside attribute values in one step instead of walking
      // structural characters one ctz at a time.
      const uint64_t dq = m.dquote & valid;
      const uint64_t inside =
          ScannerPrefixXor(dq) ^ (quote != 0 ? ~0ull : 0ull);
      const uint64_t closing = dq & ~inside;
      const uint64_t gt_eff = m.gt & valid & ~inside;
      const uint64_t lt_eff = m.lt & valid & ~inside;
      const unsigned first_gt =
          gt_eff != 0 ? static_cast<unsigned>(__builtin_ctzll(gt_eff)) : 64;
      const unsigned first_lt =
          lt_eff != 0 ? static_cast<unsigned>(__builtin_ctzll(lt_eff)) : 64;
      if (first_gt < first_lt) {
        scan.kind = TagScan::Kind::kEnd;
        scan.end = bs + first_gt - from;
        const uint64_t below =
            first_gt == 0 ? 0 : (~0ull >> (kBlock - first_gt));
        scan.quoted_values += static_cast<uint64_t>(
            ScannerPopcount(closing & below));
        const uint64_t nl = m.newline & valid & below;
        if (nl != 0) {
          scan.newlines += static_cast<uint32_t>(ScannerPopcount(nl));
          scan.last_nl =
              bs + 63 - static_cast<unsigned>(__builtin_clzll(nl)) - from;
        }
        return scan;
      }
      if (first_lt < 64) {
        if (immediate_lt) {
          scan.kind = TagScan::Kind::kBadLt;
          scan.end = bs + first_lt - from;
          return scan;
        }
        bad_lt = bs + first_lt;
        const uint64_t after = first_lt == 63 ? 0 : (~0ull << (first_lt + 1));
        if ((m.gt & valid & after) != 0) {
          scan.kind = TagScan::Kind::kBadLt;
          scan.end = bad_lt - from;
          return scan;
        }
        continue;
      }
      scan.quoted_values +=
          static_cast<uint64_t>(ScannerPopcount(closing));
      const uint64_t nl = m.newline & valid;
      if (nl != 0) {
        scan.newlines += static_cast<uint32_t>(ScannerPopcount(nl));
        scan.last_nl =
            bs + 63 - static_cast<unsigned>(__builtin_clzll(nl)) - from;
      }
      quote = (inside >> 63) != 0 ? '"' : 0;
      continue;
    }
    // Slow path for blocks with single quotes: the per-structural-bit walk.
    uint64_t structural = (m.lt | m.gt | m.dquote | m.squote) & valid;
    while (structural != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(structural));
      structural &= structural - 1;
      const uint64_t b = 1ull << bit;
      const size_t pos = bs + bit;
      if (quote != 0) {
        // Deferred mode reports a recorded stray '<' once ANY later '>'
        // appears — even one inside a quoted value. (The parser's historic
        // memchr loop probed to the raw next '>', quoted or not, and failed
        // on a stray '<' before it; kept bit-for-bit.)
        if ((m.gt & b) != 0 && bad_lt != kNpos) {
          scan.kind = TagScan::Kind::kBadLt;
          scan.end = bad_lt - from;
          return scan;
        }
        if ((quote == '"' && (m.dquote & b) != 0) ||
            (quote == '\'' && (m.squote & b) != 0)) {
          quote = 0;
          ++scan.quoted_values;
        }
        continue;
      }
      if ((m.gt & b) != 0) {
        if (bad_lt != kNpos) {
          scan.kind = TagScan::Kind::kBadLt;
          scan.end = bad_lt - from;
          return scan;
        }
        scan.kind = TagScan::Kind::kEnd;
        scan.end = pos - from;
        const uint64_t below =
            valid & (bit == 0 ? 0 : (~0ull >> (kBlock - bit)));
        const uint64_t nl = m.newline & below;
        if (nl != 0) {
          scan.newlines += static_cast<uint32_t>(ScannerPopcount(nl));
          scan.last_nl =
              bs + 63 - static_cast<unsigned>(__builtin_clzll(nl)) - from;
        }
        return scan;
      }
      if ((m.lt & b) != 0) {
        if (immediate_lt) {
          scan.kind = TagScan::Kind::kBadLt;
          scan.end = pos - from;
          return scan;
        }
        if (bad_lt == kNpos) bad_lt = pos;
        continue;
      }
      quote = (m.dquote & b) != 0 ? '"' : '\'';
    }
    const uint64_t nl = m.newline & valid;
    if (nl != 0) {
      scan.newlines += static_cast<uint32_t>(ScannerPopcount(nl));
      scan.last_nl =
          bs + 63 - static_cast<unsigned>(__builtin_clzll(nl)) - from;
    }
  }
  return scan;
}

size_t StructuralScanner::NextGtTail(const char* base, size_t size, size_t bs,
                                     uint64_t valid, size_t from) const {
  BlockMasks m;
  ClassifyTail(base + bs, size - bs, &m);
  const uint64_t g = m.gt & valid;
  if (g == 0) return kNpos;
  return bs + static_cast<unsigned>(__builtin_ctzll(g)) - from;
}

ValueFacts StructuralScanner::ScanValueGeneral(const char* base, size_t size,
                                               size_t from, size_t len) const {
  ValueFacts facts{false, false, false};
  const size_t end = from + len;
  BlockMasks scratch;
  for (size_t bs = from & ~(kBlock - 1); bs < end; bs += kBlock) {
    const BlockMasks& m = Block(base, size, bs, &scratch);
    uint64_t window = ~0ull;
    if (end - bs < kBlock) window = ~0ull >> (kBlock - (end - bs));
    if (bs < from) window &= ~0ull << (from - bs);
    facts.has_lt |= (m.lt & window) != 0;
    facts.has_amp |= (m.amp & window) != 0;
    facts.has_ctl |= (m.ctl & window) != 0;
  }
  return facts;
}

CDataFacts StructuralScanner::ScanCData(std::string_view span) const {
  CDataFacts facts{false, true};
  BlockMasks m;
  for (size_t bs = 0; bs < span.size(); bs += kBlock) {
    const size_t len = span.size() - bs;
    uint64_t window = ~0ull;
    if (len >= kBlock) {
      classify_(span.data() + bs, &m);
      bytes_classified_ += kBlock;
    } else {
      ClassifyTail(span.data() + bs, len, &m);
      window = ~0ull >> (kBlock - len);
    }
    facts.has_ctl |= (m.ctl & window) != 0;
    facts.all_ws = facts.all_ws && ((m.ws & window) == window);
  }
  return facts;
}

}  // namespace xaos::xml
