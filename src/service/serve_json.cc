#include "service/serve_json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/string_util.h"

namespace tegra {
namespace serve {

namespace {
const JsonValue kNullValue;
const std::string kEmptyString;
const std::vector<JsonValue> kEmptyArray;
const std::map<std::string, JsonValue> kEmptyObject;
}  // namespace

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

bool JsonValue::AsBool(bool fallback) const {
  return type_ == Type::kBool ? bool_ : fallback;
}

double JsonValue::AsNumber(double fallback) const {
  return type_ == Type::kNumber ? number_ : fallback;
}

const std::string& JsonValue::AsString() const {
  return type_ == Type::kString ? string_ : kEmptyString;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  return type_ == Type::kArray ? array_ : kEmptyArray;
}

const std::map<std::string, JsonValue>& JsonValue::AsObject() const {
  return type_ == Type::kObject ? object_ : kEmptyObject;
}

const JsonValue& JsonValue::operator[](const std::string& key) const {
  if (type_ != Type::kObject) return kNullValue;
  auto it = object_.find(key);
  return it == object_.end() ? kNullValue : it->second;
}

bool JsonValue::Has(const std::string& key) const {
  return type_ == Type::kObject && object_.count(key) > 0;
}

void JsonValue::Set(const std::string& key, JsonValue v) {
  type_ = Type::kObject;
  object_[key] = std::move(v);
}

void JsonValue::Append(JsonValue v) {
  type_ = Type::kArray;
  array_.push_back(std::move(v));
}

std::string JsonValue::Dump() const {
  switch (type_) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return bool_ ? "true" : "false";
    case Type::kNumber: {
      if (!std::isfinite(number_)) return "null";
      // Integers render without a decimal point; everything else with enough
      // digits to round-trip doubles in practice.
      if (number_ == std::floor(number_) && std::fabs(number_) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", number_);
        return buf;
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.12g", number_);
      return buf;
    }
    case Type::kString:
      return JsonQuote(string_);
    case Type::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ",";
        out += array_[i].Dump();
      }
      return out + "]";
    }
    case Type::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ",";
        first = false;
        out += '"';
        AppendJsonEscaped(&out, key);
        out += "\":";
        out += value.Dump();
      }
      return out + "}";
    }
  }
  return "null";
}

namespace {

/// Recursive-descent JSON parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    JsonValue v;
    TEGRA_RETURN_NOT_OK(ParseValue(&v, 0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 32;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      std::string s;
      TEGRA_RETURN_NOT_OK(ParseString(&s));
      *out = JsonValue::Str(std::move(s));
      return Status::OK();
    }
    if (ConsumeLiteral("true")) {
      *out = JsonValue::Bool(true);
      return Status::OK();
    }
    if (ConsumeLiteral("false")) {
      *out = JsonValue::Bool(false);
      return Status::OK();
    }
    if (ConsumeLiteral("null")) {
      *out = JsonValue::Null();
      return Status::OK();
    }
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    *out = JsonValue::Object();
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      std::string key;
      TEGRA_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      TEGRA_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->Set(key, std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    *out = JsonValue::Array();
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue item;
      TEGRA_RETURN_NOT_OK(ParseValue(&item, depth + 1));
      out->Append(std::move(item));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return Error("dangling escape");
        const char e = text_[pos_ + 1];
        pos_ += 2;
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + i];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("bad hex digit in \\u escape");
              }
            }
            pos_ += 4;
            // Encode the code point as UTF-8 (surrogate pairs are passed
            // through as two 3-byte sequences; good enough for a protocol
            // that is ASCII in practice).
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Error("unknown escape character");
        }
        continue;
      }
      *out += c;
      ++pos_;
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (digits && pos_ < text_.size() &&
        (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      bool exp_digits = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        exp_digits = true;
      }
      if (!exp_digits) return Error("malformed exponent");
    }
    if (!digits) return Error("invalid value");
    const std::string token(text_.substr(start, pos_ - start));
    *out = JsonValue::Number(std::strtod(token.c_str(), nullptr));
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace serve
}  // namespace tegra
