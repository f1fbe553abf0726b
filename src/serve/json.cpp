#include "serve/json.hpp"

#include <algorithm>
#include <cstddef>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"

namespace mphpc::serve {

namespace {

/// Deepest permitted nesting of arrays/objects. The protocol needs three
/// levels; the cap exists so "[[[[..." from a client is an error, not a
/// stack overflow.
constexpr int kMaxDepth = 64;

/// Member slots reserved for an object up front: protocol objects carry
/// at most 16 members (the counters).
constexpr std::size_t kObjectReserve = 16;

bool is_ws(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// True for the characters that end a plain run inside a string: the
/// closing quote, an escape, or a control character.
bool ends_run(char c) noexcept {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

}  // namespace

/// Recursive-descent parser over a string_view; tracks a byte position
/// for error messages.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text)
      : text_(text), reserve_budget_(text.size() / 4) {}

  JsonValue run() {
    JsonValue v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() noexcept {
    while (pos_ < text_.size() && is_ws(text_[pos_])) ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) noexcept {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view w) noexcept {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  JsonValue value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return string_value();
      case 't':
      case 'f': return bool_value();
      case 'n': return null_value();
      default: return number_value();
    }
  }

  JsonValue object(int depth) {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (consume('}')) return v;
    // Reserve the members up front: growing the vector one member at a
    // time would move every parsed member several times over. Slots come
    // from a parse-wide budget of one per 4 input bytes (`"":0` is the
    // shortest member), so a line of many small objects cannot make the
    // reservations outweigh the members themselves.
    const std::size_t slots = std::min(kObjectReserve, reserve_budget_);
    reserve_budget_ -= slots;
    v.members_.reserve(slots);
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string_token();
      skip_ws();
      expect(':');
      v.members_.emplace_back(std::move(key), value(depth + 1));
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return v;
    }
  }

  JsonValue array(int depth) {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_ws();
    if (consume(']')) return v;
    for (;;) {
      v.items_.push_back(value(depth + 1));
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kString;
    v.string_ = parse_string_token();
    return v;
  }

  JsonValue bool_value() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kBool;
    if (consume_word("true")) {
      v.bool_ = true;
    } else if (consume_word("false")) {
      v.bool_ = false;
    } else {
      fail("invalid literal");
    }
    return v;
  }

  JsonValue null_value() {
    if (!consume_word("null")) fail("invalid literal");
    return JsonValue{};
  }

  JsonValue number_value() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (text_[pos_] == '+' || text_[pos_] == '-' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' ||
            (text_[pos_] >= '0' && text_[pos_] <= '9'))) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    try {
      v.number_ = parse_double(text_.substr(start, pos_ - start));
    } catch (const ParseError&) {
      fail("invalid number '" + std::string(text_.substr(start, pos_ - start)) + "'");
    }
    return v;
  }

  /// Parses a quoted string with escapes (\" \\ \/ \b \f \n \r \t \uXXXX;
  /// basic-plane \u only — the protocol is ASCII identifiers + free-text
  /// error strings).
  std::string parse_string_token() {
    expect('"');
    std::string out;
    for (;;) {
      // Plain characters up to the next quote, escape or control
      // character go in as one run.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && !ends_run(text_[pos_])) ++pos_;
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') fail("control character in string");
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += unicode_escape(); break;
        default: fail("unknown escape");
      }
    }
  }

  std::string unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4U;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    // UTF-8 encode (surrogates pass through as-is; the protocol never
    // emits them, and a lone surrogate still round-trips as bytes).
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0U | (code >> 6U));
      out += static_cast<char>(0x80U | (code & 0x3FU));
    } else {
      out += static_cast<char>(0xE0U | (code >> 12U));
      out += static_cast<char>(0x80U | ((code >> 6U) & 0x3FU));
      out += static_cast<char>(0x80U | (code & 0x3FU));
    }
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t reserve_budget_;  ///< object member slots left to reserve
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).run();
}

bool JsonValue::as_bool() const {
  MPHPC_EXPECTS(kind_ == Kind::kBool);
  return bool_;
}

double JsonValue::as_number() const {
  MPHPC_EXPECTS(kind_ == Kind::kNumber);
  return number_;
}

const std::string& JsonValue::as_string() const {
  MPHPC_EXPECTS(kind_ == Kind::kString);
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  MPHPC_EXPECTS(kind_ == Kind::kArray);
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  MPHPC_EXPECTS(kind_ == Kind::kObject);
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace mphpc::serve
