#include "telemetry/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace acgpu::telemetry {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::optional<double> JsonValue::number_at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->number();
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse() {
    std::optional<JsonValue> value = parse_value();
    if (!value || !at_end()) return std::nullopt;
    return value;
  }

  std::optional<std::vector<JsonMember>> parse_members() {
    std::vector<JsonMember> members;
    if (!for_each_member([&](JsonMember m) { members.push_back(std::move(m)); }) ||
        !at_end())
      return std::nullopt;
    return members;
  }

 private:
  /// Only whitespace is left (trailing garbage fails a document).
  bool at_end() {
    skip_ws();
    return pos_ == text_.size();
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{':
      case '[': {
        // Each level recurses once: a cap keeps hostile nesting off the stack.
        if (depth_ == kMaxJsonDepth) return std::nullopt;
        ++depth_;
        std::optional<JsonValue> v = text_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        std::optional<std::string> s = parse_string();
        if (!s) return std::nullopt;
        return JsonValue(std::move(*s));
      }
      case 't': return literal("true") ? std::optional<JsonValue>(JsonValue(true))
                                       : std::nullopt;
      case 'f': return literal("false") ? std::optional<JsonValue>(JsonValue(false))
                                        : std::nullopt;
      case 'n': return literal("null") ? std::optional<JsonValue>(JsonValue())
                                       : std::nullopt;
      default: return parse_number();
    }
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return std::nullopt;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    // A number past the double range (1e999) reads as infinity, which no
    // emitter writes and none could write back.
    if (end != token.c_str() + token.size() || !std::isfinite(value)) return std::nullopt;
    return JsonValue(value);
  }

  std::optional<std::string> parse_string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else return std::nullopt;
          }
          // The emitters only escape control characters; decode the BMP
          // code point as UTF-8 and reject surrogate pairs as out of scope.
          if (code >= 0xD800 && code <= 0xDFFF) return std::nullopt;
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<JsonValue> parse_array() {
    if (!eat('[')) return std::nullopt;
    JsonValue::Array items;
    skip_ws();
    if (eat(']')) return JsonValue(std::move(items));
    while (true) {
      std::optional<JsonValue> item = parse_value();
      if (!item) return std::nullopt;
      items.push_back(std::move(*item));
      if (eat(']')) return JsonValue(std::move(items));
      if (!eat(',')) return std::nullopt;
    }
  }

  /// Parses the object at pos_, handing `on_member` each member in
  /// document order; false on malformed input.
  template <typename OnMember>
  bool for_each_member(OnMember&& on_member) {
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::optional<std::string> key = parse_string();
      if (!key) return false;
      if (!eat(':')) return false;
      skip_ws();
      const std::size_t start = pos_;
      std::optional<JsonValue> value = parse_value();
      if (!value) return false;
      on_member(JsonMember{std::move(*key), std::move(*value),
                           text_.substr(start, pos_ - start)});
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  std::optional<JsonValue> parse_object() {
    JsonValue::Object members;
    if (!for_each_member([&](JsonMember m) {
          members.insert_or_assign(std::move(m.name), std::move(m.value));
        }))
      return std::nullopt;
    return JsonValue(std::move(members));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays and objects open around pos_
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text) {
  return Parser(text).parse();
}

std::optional<std::vector<JsonMember>> parse_json_members(std::string_view text) {
  return Parser(text).parse_members();
}

}  // namespace acgpu::telemetry
