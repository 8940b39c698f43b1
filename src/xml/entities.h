// Resolution of XML character and entity references, and escaping for
// serialization.

#ifndef XAOS_XML_ENTITIES_H_
#define XAOS_XML_ENTITIES_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"
#include "util/statusor.h"

namespace xaos::xml {

// Longest reference body (the text between '&' and ';') we accept. The
// supported vocabulary is tiny — five predefined entities and character
// references of at most 8 digits — so anything longer is garbage; bounding
// the scan keeps a '&'-laden payload from turning reference resolution
// quadratic.
inline constexpr size_t kMaxReferenceBodyBytes = 32;

// Decodes the five predefined entity references (&amp; &lt; &gt; &apos;
// &quot;) and decimal/hexadecimal character references (&#NN; &#xHH;,
// emitted as UTF-8) in `text`. Returns a ParseError for malformed or
// unknown references, including any reference whose body exceeds
// kMaxReferenceBodyBytes (the ';' search never scans further than that).
// When `reference_count` is non-null it is incremented once per decoded
// reference, so callers can enforce a per-document budget.
StatusOr<std::string> DecodeReferences(std::string_view text,
                                       uint64_t* reference_count = nullptr);

// The streaming form of DecodeReferences: appends the decoded form of
// text[0, stop) to `out`. A reference that starts before `stop` is read
// from the whole of `text`, so a caller holding back an incomplete tail
// still gets the verdict the complete document would give. Each decoded
// reference increments `*reference_count` (when non-null); one past
// `max_references` (0 = unlimited) fails with kResourceExhausted. On any
// failure `*error_offset` is the offset of the offending '&'.
Status AppendDecodedReferences(std::string_view text, size_t stop,
                               std::string* out, uint64_t* reference_count,
                               uint64_t max_references, size_t* error_offset);

// Returns the offset of the first byte forbidden in XML content — a C0
// control other than tab, LF or CR, which the Char production excludes —
// or npos. Applied to raw (undecoded) character data and attribute values;
// decoded character references are validated separately in AppendUtf8.
size_t FindForbiddenControlByte(std::string_view text);

// Escapes `text` for use as element character data: & < > are replaced by
// entity references.
std::string EscapeText(std::string_view text);

// Escapes `text` for use inside a double-quoted attribute value: also
// escapes the double quote, tab, CR and LF (the latter as character
// references, preserving them across attribute-value normalization).
std::string EscapeAttributeValue(std::string_view text);

// Encodes a Unicode code point as UTF-8, appending to `out`. Returns false
// for values outside the XML Char production (e.g. 0x0, surrogates).
bool AppendUtf8(uint32_t code_point, std::string* out);

}  // namespace xaos::xml

#endif  // XAOS_XML_ENTITIES_H_
