// Minimal JSON support for the tegra_serve request/response protocol.
//
// The daemon speaks newline-delimited JSON over stdin/stdout with a small,
// fixed vocabulary (objects of strings, numbers, booleans and string arrays),
// so a dependency-free ~200-line parser covers the whole protocol. This is
// *not* a general-purpose JSON library: nesting is supported but numbers are
// doubles, and no effort is made to preserve key order or duplicate keys
// (last wins).

#ifndef TEGRA_SERVICE_SERVE_JSON_H_
#define TEGRA_SERVICE_SERVE_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tegra {
namespace serve {

/// \brief A parsed JSON value (tagged union).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double d);
  static JsonValue Str(std::string s);
  static JsonValue Array(std::vector<JsonValue> items = {});
  static JsonValue Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_bool() const { return type_ == Type::kBool; }

  bool AsBool(bool fallback = false) const;
  double AsNumber(double fallback = 0) const;
  const std::string& AsString() const;  // empty string for non-strings
  const std::vector<JsonValue>& AsArray() const;
  const std::map<std::string, JsonValue>& AsObject() const;

  /// Object field access; returns a shared null value for missing keys or
  /// non-objects, so lookups chain safely.
  const JsonValue& operator[](const std::string& key) const;
  bool Has(const std::string& key) const;

  /// Object/array builders.
  void Set(const std::string& key, JsonValue v);
  void Append(JsonValue v);

  /// Serializes to compact JSON (no whitespace).
  std::string Dump() const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// \brief Parses one JSON document from `text` (must consume the whole input
/// up to trailing whitespace). Returns kInvalidArgument on malformed input.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace serve
}  // namespace tegra

#endif  // TEGRA_SERVICE_SERVE_JSON_H_
