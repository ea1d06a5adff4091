#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace vsplice::obs {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default: {
        // Control characters and non-ASCII bytes both go out as \u00xx
        // (one escape per byte, not per code point): the output stays
        // pure ASCII whatever the input holds, and the reader
        // reassembles the original byte string exactly.
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20 || byte >= 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(byte));
          out += buf;
        } else {
          out += c;
        }
      }
    }
  }
  out += '"';
  return out;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<std::int64_t> JsonValue::as_int() const {
  if (type != Type::Number) return std::nullopt;
  std::int64_t value = 0;
  const char* end = string.data() + string.size();
  const auto [ptr, ec] = std::from_chars(string.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

namespace {

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_{text} {}

  bool parse(JsonValue& out, std::string& error) {
    if (!value(out, error)) return false;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail(error, "trailing content after JSON value");
    }
    return true;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool fail(std::string& error, const std::string& what) {
    error = what + " at offset " + std::to_string(pos_);
    return false;
  }

  bool literal(const char* word, std::string& error) {
    const std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) {
      return fail(error, std::string("expected '") + word + "'");
    }
    pos_ += n;
    return true;
  }

  bool value(JsonValue& out, std::string& error) {
    skip_ws();
    if (pos_ >= text_.size()) return fail(error, "unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return object(out, error);
    if (c == '[') return array(out, error);
    if (c == '"') {
      out.type = JsonValue::Type::String;
      return string(out.string, error);
    }
    if (c == 't') {
      out.type = JsonValue::Type::Bool;
      out.boolean = true;
      return literal("true", error);
    }
    if (c == 'f') {
      out.type = JsonValue::Type::Bool;
      out.boolean = false;
      return literal("false", error);
    }
    if (c == 'n') {
      out.type = JsonValue::Type::Null;
      return literal("null", error);
    }
    return number(out, error);
  }

  bool number(JsonValue& out, std::string& error) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail(error, "expected a value");
    char* end = nullptr;
    out.string = text_.substr(start, pos_ - start);
    out.number = std::strtod(out.string.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return fail(error, "malformed number '" + out.string + "'");
    }
    out.type = JsonValue::Type::Number;
    return true;
  }

  /// Four hex digits at pos_ (advancing past them) into `code`.
  bool hex4(unsigned& code, std::string& error) {
    if (pos_ + 4 > text_.size()) return fail(error, "truncated \\u escape");
    code = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      const char h = text_[pos_ + i];
      unsigned digit = 0;
      if (h >= '0' && h <= '9') {
        digit = static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        digit = static_cast<unsigned>(h - 'a') + 10;
      } else if (h >= 'A' && h <= 'F') {
        digit = static_cast<unsigned>(h - 'A') + 10;
      } else {
        return fail(error, "bad \\u escape");
      }
      code = code * 16 + digit;
    }
    pos_ += 4;
    return true;
  }

  bool string(std::string& out, std::string& error) {
    if (text_[pos_] != '"') return fail(error, "expected '\"'");
    ++pos_;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const char c = text_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!hex4(code, error)) return false;
          // json_escape writes \u00xx per byte, which maps straight back
          // to that byte. Foreign files may carry real BMP code points;
          // those are encoded as UTF-8 rather than truncated.
          if (code < 0x100) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          return fail(error, "unknown escape");
      }
    }
    if (pos_ >= text_.size()) return fail(error, "unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool array(JsonValue& out, std::string& error) {
    out.type = JsonValue::Type::Array;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      if (!value(element, error)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return fail(error, "unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail(error, "expected ',' or ']'");
    }
  }

  bool object(JsonValue& out, std::string& error) {
    out.type = JsonValue::Type::Object;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail(error, "expected object key");
      }
      if (!string(key, error)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail(error, "expected ':'");
      }
      ++pos_;
      JsonValue element;
      if (!value(element, error)) return false;
      out.object.emplace_back(std::move(key), std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return fail(error, "unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail(error, "expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parse_json(const std::string& text, JsonValue& out, std::string& error) {
  out = JsonValue{};
  return JsonReader{text}.parse(out, error);
}

}  // namespace vsplice::obs
