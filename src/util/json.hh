/**
 * @file
 * A minimal JSON document parser for request-shaped input, and the one
 * string escape every JSON emitter uses.
 *
 * The repo deliberately carries no third-party JSON dependency.  The
 * run service accepts nested request objects (`lll serve` JSON-lines)
 * and the result cache reads back its spill files, so this header adds
 * the read side: a small recursive-descent parser into a JsonValue
 * tree plus typed accessors with field-level error reporting.
 * jsonEscape() is its write-side twin: whatever it escapes, parseJson()
 * reads back unchanged.
 *
 * Scope is deliberately narrow — UTF-8 pass-through, doubles for all
 * numbers, objects keep insertion order — enough for the versioned
 * service schema, not a general-purpose library.
 */

#ifndef LLL_UTIL_JSON_HH
#define LLL_UTIL_JSON_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.hh"

namespace lll::util
{

/**
 * One parsed JSON value.  A tagged union kept simple (vectors instead
 * of maps so object key order survives for diagnostics).
 */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Stable lower-case type name ("object", "number", ...). */
    const char *typeName() const;

    /** Member lookup on an object; nullptr when absent (or not an
     *  object).  First occurrence wins on duplicate keys. */
    const JsonValue *find(const std::string &key) const;

    // Typed member accessors: the field as Result, with the offending
    // key in the error message.  *Or variants return @p fallback when
    // the key is absent (but still fail on a type mismatch).
    [[nodiscard]] util::Result<std::string> getString(const std::string &key) const;
    [[nodiscard]] util::Result<std::string> getStringOr(const std::string &key,
                                          std::string fallback) const;
    [[nodiscard]] util::Result<double> getNumber(const std::string &key) const;
    [[nodiscard]] util::Result<double> getNumberOr(const std::string &key,
                                     double fallback) const;
    [[nodiscard]] util::Result<bool> getBoolOr(const std::string &key,
                                 bool fallback) const;
};

/**
 * Escape @p s for use inside a JSON string literal (no quotes added):
 * `"`, `\\`, `\n`, `\r` and `\t` get their short escapes, every other
 * control byte becomes `\u00XX`, and all other bytes pass through.
 */
std::string jsonEscape(const std::string &s);

/** jsonEscape(@p s) appended to @p out, for emitters that build one
 *  line in one buffer. */
void appendJsonEscaped(std::string &out, std::string_view s);

/** Format @p v with `%.17g`: the shortest-safe round-trip spelling
 *  every JSON emitter uses for doubles. */
std::string fmtG17(double v);

/** fmtG17(@p v) appended to @p out. */
void appendG17(std::string &out, double v);

/**
 * Resource bounds enforced while parsing.  A hostile document — one
 * crafted to exhaust the parser rather than to describe a request —
 * must fail with InvalidArgument *before* it costs anything: maxBytes
 * is checked up front, maxDepth caps the recursion the nesting can
 * drive.  Both limits are policy violations, not syntax errors, so
 * they report InvalidArgument where true malformations report
 * CorruptData.
 */
struct JsonLimits
{
    /** Deepest permitted object/array nesting (root = depth 0). */
    int maxDepth = 64;
    /** Largest accepted input in bytes; 0 = unlimited. */
    size_t maxBytes = 0;
};

/**
 * Parse @p text as one JSON document.  Trailing non-whitespace after
 * the document, unterminated strings, bad escapes and malformed
 * numbers are CorruptData errors carrying the byte offset; @p limits
 * violations (input too large, nesting too deep) are InvalidArgument.
 */
[[nodiscard]] util::Result<JsonValue> parseJson(const std::string &text,
                                  const JsonLimits &limits = JsonLimits());

} // namespace lll::util

#endif // LLL_UTIL_JSON_HH
