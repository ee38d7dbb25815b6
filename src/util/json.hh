/**
 * @file
 * A minimal JSON document parser for request-shaped input, and the one
 * JSON writer every emitter uses.
 *
 * The repo deliberately carries no third-party JSON dependency.  The
 * run service accepts nested request objects (`lll serve` JSON-lines)
 * and the result cache reads back its spill files, so this header adds
 * the read side: a small recursive-descent parser into a JsonValue
 * tree plus typed accessors with field-level error reporting.
 * JsonWriter is its write-side twin: every `--json` document, serve
 * response and spill file is spelled by it, and whatever it writes,
 * parseJson() reads back unchanged.
 *
 * Scope is deliberately narrow — UTF-8 pass-through, doubles for all
 * numbers, objects keep insertion order — enough for the versioned
 * service schema, not a general-purpose library.
 */

#ifndef LLL_UTIL_JSON_HH
#define LLL_UTIL_JSON_HH

#include <array>
#include <charconv>
#include <concepts>
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
    const JsonValue *find(std::string_view key) const;

    // Typed member accessors: the field as Result, with the offending
    // key in the error message.  getStringOr returns @p fallback when
    // the key is absent (but still fails on a type mismatch).
    [[nodiscard]] util::Result<std::string> getStringOr(const std::string &key,
                                          std::string fallback) const;
    [[nodiscard]] util::Result<double> getNumber(const std::string &key) const;
};

/**
 * Escape @p s for use inside a JSON string literal (no quotes added),
 * appended to @p out: `"`, `\\`, `\n`, `\r` and `\t` get their short
 * escapes, every other control byte becomes `\u00XX`, and all other
 * bytes pass through.
 */
void appendJsonEscaped(std::string &out, std::string_view s);

/** @p v appended to @p out as `%.17g` spells it: the shortest-safe
 *  round-trip spelling, also used outside JSON (stage keys). */
void appendG17(std::string &out, double v);

/**
 * Appends one JSON document to a caller-owned string and owns every
 * decision about its format:
 *
 * - Layouts.  An Inline container is written on one line,
 *   `{"a": 1, "b": [2, 3]}`.  A Block container puts each member on a
 *   line of its own, indented two spaces per enclosing *block*
 *   container (inline ones add none), and closes on a line of its own;
 *   an empty one is `[]` / `{}`.
 * - Strings go through appendJsonEscaped().
 * - Doubles are `%.<N>g`, N = 17 unless precision() lowered it; a
 *   non-finite double is `null`.  Integers and bools are exact.
 *
 * A member is key() followed by one value or container; member() does
 * both.  Misnesting is a program bug and panics.  The writer holds no
 * heap state, so a serve response renders into one reserved buffer.
 */
class JsonWriter
{
  public:
    enum class Layout
    {
        Inline,
        Block,
    };

    static constexpr int kMaxDepth = 16;

    explicit JsonWriter(std::string &out) : out_(out) {}
    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &beginObject(Layout l = Layout::Inline)
    {
        return begin('{', '}', l);
    }
    JsonWriter &beginArray(Layout l = Layout::Inline)
    {
        return begin('[', ']', l);
    }
    /** Close the innermost open container. */
    JsonWriter &end();

    /** Significant digits (1-17) of the doubles inside the innermost
     *  open container (the whole document at top level) until it ends. */
    JsonWriter &precision(int digits);

    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view s);
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }
    JsonWriter &value(double v);
    JsonWriter &value(bool b) { return raw(b ? "true" : "false"); }
    template <std::integral T>
    JsonWriter &value(T v)
    {
        separate();
        char buf[24];
        out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
        return *this;
    }
    JsonWriter &null() { return raw("null"); }
    /** Splice @p json, already one JSON value, verbatim. */
    JsonWriter &raw(std::string_view json);

    template <typename T>
    JsonWriter &member(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

  private:
    struct Frame
    {
        int outerDigits = 17; //!< precision to restore on end()
        char close = '}';
        bool block = false;
        bool empty = true;
    };

    JsonWriter &begin(char open, char close, Layout layout);
    /** Separator and indentation before the next key or value. */
    void separate();

    std::string &out_;
    std::array<Frame, kMaxDepth> frames_{};
    int depth_ = 0;
    int blockDepth_ = 0;
    int digits_ = 17;
    bool afterKey_ = false;
};

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
