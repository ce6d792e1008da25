/**
 * @file
 * A small recursive-descent JSON parser for the tests: they parse the
 * metric snapshots, the stats schema and the Chrome traces that
 * obs::JsonWriter emits and assert on their structure and key order.
 *
 * Deliberately tiny: objects preserve insertion order, numbers are
 * doubles, no unicode escapes beyond pass-through. Good enough to
 * round-trip everything this repository emits; not a general JSON
 * library.
 */

#ifndef FLASHCACHE_TESTS_SUPPORT_JSON_PARSER_HH
#define FLASHCACHE_TESTS_SUPPORT_JSON_PARSER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace flashcache {
namespace obs {

/**
 * Parsed JSON value. Object members keep source order so key-order
 * assertions are possible.
 */
struct JsonValue
{
    enum class Type : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return type == Type::Null; }
    bool isNumber() const { return type == Type::Number; }
    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isString() const { return type == Type::String; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue* find(std::string_view key) const;

    /** Member keys in source order (empty unless an object). */
    std::vector<std::string> keys() const;
};

/**
 * Parse a complete JSON document (trailing whitespace allowed,
 * trailing garbage rejected).
 *
 * @param text  The document.
 * @param error Optional; receives a short description on failure.
 * @return The value, or nullopt on malformed input.
 */
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string* error = nullptr);

} // namespace obs
} // namespace flashcache

#endif // FLASHCACHE_TESTS_SUPPORT_JSON_PARSER_HH
