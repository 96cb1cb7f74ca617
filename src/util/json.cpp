#include "util/json.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace canids::util {

namespace {

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after the value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument(what + " at offset " + std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  [[nodiscard]] bool at(char c) const {
    return pos_ < text_.size() && text_[pos_] == c;
  }

  JsonValue parse_value(int depth) {
    JsonValue value;
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth == kJsonMaxDepth) {
        fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
      }
      ++pos_;
      if (c == '{') {
        value.type = JsonValue::Type::kObject;
        if (consume('}')) return value;
        do {
          if (peek() != '"') fail("object key must be a string");
          std::string key = parse_string();
          expect(':');
          value.members.emplace_back(std::move(key), parse_value(depth + 1));
        } while (consume(','));
        expect('}');
      } else {
        value.type = JsonValue::Type::kArray;
        if (consume(']')) return value;
        do {
          value.items.push_back(parse_value(depth + 1));
        } while (consume(','));
        expect(']');
      }
    } else if (c == '"') {
      value.type = JsonValue::Type::kString;
      value.text = parse_string();
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      value.type = JsonValue::Type::kNumber;
      value.text = parse_number();
    } else if (consume_literal("true") || consume_literal("false")) {
      value.type = JsonValue::Type::kBool;
      value.boolean = c == 't';
    } else if (!consume_literal("null")) {
      fail("expected a JSON value");
    }
    return value;
  }

  std::string parse_number() {
    const std::size_t start = pos_;
    const auto digits = [this] {
      const std::size_t from = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == from) fail("malformed number");
    };
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;
    } else {
      digits();
    }
    if (at('.')) {
      ++pos_;
      digits();
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      digits();
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  std::string parse_string() {
    ++pos_;  // the opening quote the caller peeked
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated string");
      switch (text_[pos_++]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(out, code_point()); break;
        default: fail("unknown escape sequence");
      }
    }
  }

  /// The code point of a \u escape whose "\u" is consumed, joining a
  /// surrogate pair written as two escapes.
  unsigned code_point() {
    unsigned code = hex4();
    if (code >= 0xDC00 && code <= 0xDFFF) fail("lone surrogate \\u escape");
    if (code >= 0xD800 && code <= 0xDBFF) {
      if (!consume_literal("\\u")) fail("lone surrogate \\u escape");
      const unsigned low = hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("lone surrogate \\u escape");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    return code;
  }

  unsigned hex4() {
    unsigned code = 0;
    const char* const begin = text_.data() + pos_;
    const char* const end =
        begin + std::min<std::size_t>(4, text_.size() - pos_);
    const auto [ptr, ec] = std::from_chars(begin, end, code, 16);
    if (ec != std::errc{} || ptr != begin + 4) fail("bad \\u escape");
    pos_ += 4;
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    const auto byte = [&out](unsigned bits) {
      out.push_back(static_cast<char>(bits));
    };
    if (code < 0x80) {
      byte(code);
      return;
    }
    if (code < 0x800) {
      byte(0xC0 | (code >> 6));
    } else if (code < 0x10000) {
      byte(0xE0 | (code >> 12));
      byte(0x80 | ((code >> 6) & 0x3F));
    } else {
      byte(0xF0 | (code >> 18));
      byte(0x80 | ((code >> 12) & 0x3F));
      byte(0x80 | ((code >> 6) & 0x3F));
    }
    byte(0x80 | (code & 0x3F));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Reader(text).parse_document();
}

void throw_json_read_error(std::string_view key, std::string_view expected) {
  throw std::invalid_argument("key '" + std::string(key) + "' expects " +
                              std::string(expected));
}

void append_json_string(std::string& out, std::string_view value) {
  out.push_back('"');
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string json_quoted(std::string_view value) {
  std::string out;
  append_json_string(out, value);
  return out;
}

void append_json_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

}  // namespace canids::util
