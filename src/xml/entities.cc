#include "xml/entities.h"

#include <cstdint>
#include <cstring>

namespace xaos::xml {
namespace {

bool IsHexDigit(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

uint32_t HexValue(char c) {
  if (c >= '0' && c <= '9') return static_cast<uint32_t>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<uint32_t>(c - 'a' + 10);
  return static_cast<uint32_t>(c - 'A' + 10);
}

// True for code points allowed by the XML 1.0 Char production.
bool IsXmlChar(uint32_t cp) {
  if (cp == 0x9 || cp == 0xA || cp == 0xD) return true;
  if (cp >= 0x20 && cp <= 0xD7FF) return true;
  if (cp >= 0xE000 && cp <= 0xFFFD) return true;
  if (cp >= 0x10000 && cp <= 0x10FFFF) return true;
  return false;
}

}  // namespace

bool AppendUtf8(uint32_t cp, std::string* out) {
  if (!IsXmlChar(cp)) return false;
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
  return true;
}

size_t FindForbiddenControlByte(std::string_view text) {
  for (size_t i = 0; i < text.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(text[i]);
    if (c < 0x20 && c != 0x9 && c != 0xA && c != 0xD) return i;
  }
  return std::string_view::npos;
}

Status AppendDecodedReferences(std::string_view text, size_t stop,
                               std::string* out, uint64_t* reference_count,
                               uint64_t max_references, size_t* error_offset) {
  size_t i = 0;
  while (i < stop) {
    const char* amp = static_cast<const char*>(
        std::memchr(text.data() + i, '&', stop - i));
    if (amp == nullptr) {
      out->append(text.data() + i, stop - i);
      break;
    }
    const size_t at = static_cast<size_t>(amp - text.data());
    out->append(text.data() + i, at - i);
    *error_offset = at;
    // Bounded scan: a legal reference body fits well inside the cap, so a
    // missing ';' within the window means the reference is broken (or an
    // attack) and we fail without looking at the rest of the payload.
    std::string_view window = text.substr(at + 1, kMaxReferenceBodyBytes + 1);
    size_t body_len = window.find(';');
    if (body_len == std::string_view::npos) {
      return ParseError(
          window.size() > kMaxReferenceBodyBytes
              ? "entity reference exceeds " +
                    std::to_string(kMaxReferenceBodyBytes) + " bytes"
              : "unterminated entity reference");
    }
    if (body_len == 0) {
      return ParseError("unterminated entity reference");
    }
    std::string_view body = window.substr(0, body_len);
    if (body == "amp") {
      out->push_back('&');
    } else if (body == "lt") {
      out->push_back('<');
    } else if (body == "gt") {
      out->push_back('>');
    } else if (body == "apos") {
      out->push_back('\'');
    } else if (body == "quot") {
      out->push_back('"');
    } else if (body.size() >= 2 && body[0] == '#') {
      uint32_t cp = 0;
      bool valid = true;
      if (body[1] == 'x' || body[1] == 'X') {
        if (body.size() < 3) valid = false;
        for (size_t k = 2; valid && k < body.size(); ++k) {
          if (!IsHexDigit(body[k]) || cp > 0x10FFFF) {
            valid = false;
          } else {
            cp = cp * 16 + HexValue(body[k]);
          }
        }
      } else {
        for (size_t k = 1; valid && k < body.size(); ++k) {
          if (body[k] < '0' || body[k] > '9' || cp > 0x10FFFF) {
            valid = false;
          } else {
            cp = cp * 10 + static_cast<uint32_t>(body[k] - '0');
          }
        }
      }
      if (!valid || !AppendUtf8(cp, out)) {
        return ParseError("invalid character reference: &" +
                          std::string(body) + ";");
      }
    } else {
      return ParseError("unknown entity reference: &" + std::string(body) +
                        ";");
    }
    if (reference_count != nullptr) {
      ++*reference_count;
      if (max_references > 0 && *reference_count > max_references) {
        return ResourceExhaustedError("entity-reference budget of " +
                                      std::to_string(max_references) +
                                      " exceeded");
      }
    }
    i = at + 2 + body_len;
  }
  return Status::Ok();
}

StatusOr<std::string> DecodeReferences(std::string_view text,
                                       uint64_t* reference_count) {
  std::string out;
  out.reserve(text.size());
  size_t error_offset = 0;
  XAOS_RETURN_IF_ERROR(AppendDecodedReferences(
      text, text.size(), &out, reference_count, 0, &error_offset));
  return out;
}

std::string EscapeText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string EscapeAttributeValue(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\t':
        out += "&#9;";
        break;
      case '\n':
        out += "&#10;";
        break;
      case '\r':
        out += "&#13;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace xaos::xml
