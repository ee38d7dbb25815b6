#include "util/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace lll::util
{

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    // Bytes that pass through are appended a run at a time: the serve
    // path escapes every key and string of every response.
    size_t run = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        }
        }
    }
    out.append(s.data() + run, s.size() - run);
}

namespace
{

/** @p v spelled as printf("%.*g", @p digits, v) does, without printf's
 *  format parsing and locale lookup (tests/test_util.cc checks). */
void
appendGeneral(std::string &out, double v, int digits)
{
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), v, std::chars_format::general, digits);
    out.append(buf, r.ptr);
}

} // namespace

void
appendG17(std::string &out, double v)
{
    appendGeneral(out, v, 17);
}

JsonWriter &
JsonWriter::begin(char open, char close, Layout layout)
{
    lll_assert(depth_ < kMaxDepth, "JSON nesting deeper than %d",
               kMaxDepth);
    separate();
    const bool block = layout == Layout::Block;
    frames_[depth_++] = {digits_, close, block, true};
    blockDepth_ += block;
    out_ += open;
    return *this;
}

JsonWriter &
JsonWriter::end()
{
    lll_assert(depth_ > 0 && !afterKey_,
               "JSON end() with no open container or a dangling key");
    const Frame &f = frames_[--depth_];
    if (f.block) {
        --blockDepth_;
        if (!f.empty) {
            out_ += '\n';
            out_.append(2 * size_t(blockDepth_), ' ');
        }
    }
    out_ += f.close;
    digits_ = f.outerDigits;
    return *this;
}

JsonWriter &
JsonWriter::precision(int digits)
{
    lll_assert(digits >= 1 && digits <= 17, "JSON precision %d", digits);
    digits_ = digits;
    return *this;
}

void
JsonWriter::separate()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (depth_ == 0)
        return;
    Frame &f = frames_[depth_ - 1];
    if (!f.empty)
        out_ += ',';
    if (f.block) {
        out_ += '\n';
        out_.append(2 * size_t(blockDepth_), ' ');
    } else if (!f.empty) {
        out_ += ' ';
    }
    f.empty = false;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    lll_assert(depth_ > 0 && frames_[depth_ - 1].close == '}' &&
                   !afterKey_,
               "JSON key \"%.*s\" outside an object", int(name.size()),
               name.data());
    separate();
    out_ += '"';
    appendJsonEscaped(out_, name);
    out_ += "\": ";
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    separate();
    out_ += '"';
    appendJsonEscaped(out_, s);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    if (std::isfinite(v))
        appendGeneral(out_, v, digits_);
    else
        out_ += "null";
    return *this;
}

JsonWriter &
JsonWriter::raw(std::string_view json)
{
    separate();
    out_ += json;
    return *this;
}

namespace
{

/** Recursive-descent parser over a borrowed buffer. */
class Parser
{
  public:
    Parser(const std::string &text, const JsonLimits &limits)
        : text_(text), limits_(limits)
    {
    }

    util::Result<JsonValue> parse()
    {
        if (limits_.maxBytes > 0 && text_.size() > limits_.maxBytes) {
            return util::Status::error(
                util::ErrorCode::InvalidArgument,
                "json: input is %zu bytes (limit %zu)", text_.size(),
                limits_.maxBytes);
        }
        JsonValue root;
        auto st = parseValue(&root, 0);
        if (!st.ok())
            return st;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing content after JSON document");
        return root;
    }

  private:
    util::Status fail(const char *what) const
    {
        return util::Status::error(util::ErrorCode::CorruptData,
                                   "json: %s at byte %zu", what, pos_);
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool consumeWord(const char *word)
    {
        size_t n = 0;
        while (word[n] != '\0')
            ++n;
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    util::Status parseValue(JsonValue *out, int depth)
    {
        if (depth > limits_.maxDepth) {
            return util::Status::error(
                util::ErrorCode::InvalidArgument,
                "json: nesting deeper than %d levels at byte %zu",
                limits_.maxDepth, pos_);
        }
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
        case '{':
            return parseObject(out, depth);
        case '[':
            return parseArray(out, depth);
        case '"':
            out->type = JsonValue::Type::String;
            return parseString(&out->string);
        case 't':
            if (!consumeWord("true"))
                return fail("invalid literal");
            out->type = JsonValue::Type::Bool;
            out->boolean = true;
            return util::Status::okStatus();
        case 'f':
            if (!consumeWord("false"))
                return fail("invalid literal");
            out->type = JsonValue::Type::Bool;
            out->boolean = false;
            return util::Status::okStatus();
        case 'n':
            if (!consumeWord("null"))
                return fail("invalid literal");
            out->type = JsonValue::Type::Null;
            return util::Status::okStatus();
        default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber(out);
            return fail("unexpected character");
        }
    }

    util::Status parseObject(JsonValue *out, int depth)
    {
        ++pos_; // '{'
        out->type = JsonValue::Type::Object;
        skipWs();
        if (consume('}'))
            return util::Status::okStatus();
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            auto st = parseString(&key);
            if (!st.ok())
                return st;
            skipWs();
            if (!consume(':'))
                return fail("expected ':' after object key");
            JsonValue member;
            st = parseValue(&member, depth + 1);
            if (!st.ok())
                return st;
            out->object.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return util::Status::okStatus();
            return fail("expected ',' or '}' in object");
        }
    }

    util::Status parseArray(JsonValue *out, int depth)
    {
        ++pos_; // '['
        out->type = JsonValue::Type::Array;
        skipWs();
        if (consume(']'))
            return util::Status::okStatus();
        while (true) {
            JsonValue element;
            auto st = parseValue(&element, depth + 1);
            if (!st.ok())
                return st;
            out->array.push_back(std::move(element));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return util::Status::okStatus();
            return fail("expected ',' or ']' in array");
        }
    }

    util::Status parseString(std::string *out)
    {
        ++pos_; // '"'
        out->clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return util::Status::okStatus();
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    break;
                char e = text_[pos_];
                switch (e) {
                case '"': out->push_back('"'); break;
                case '\\': out->push_back('\\'); break;
                case '/': out->push_back('/'); break;
                case 'b': out->push_back('\b'); break;
                case 'f': out->push_back('\f'); break;
                case 'n': out->push_back('\n'); break;
                case 'r': out->push_back('\r'); break;
                case 't': out->push_back('\t'); break;
                case 'u': {
                    // \uXXXX: decode the BMP code point to UTF-8.
                    // Surrogate pairs are passed through as two
                    // 3-byte sequences (requests never need them).
                    if (pos_ + 4 >= text_.size())
                        return fail("truncated \\u escape");
                    unsigned cp = 0;
                    for (int i = 1; i <= 4; ++i) {
                        char h = text_[pos_ + i];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= unsigned(h - 'A' + 10);
                        else
                            return fail("bad \\u escape digit");
                    }
                    pos_ += 4;
                    if (cp < 0x80) {
                        out->push_back(char(cp));
                    } else if (cp < 0x800) {
                        out->push_back(char(0xC0 | (cp >> 6)));
                        out->push_back(char(0x80 | (cp & 0x3F)));
                    } else {
                        out->push_back(char(0xE0 | (cp >> 12)));
                        out->push_back(char(0x80 | ((cp >> 6) & 0x3F)));
                        out->push_back(char(0x80 | (cp & 0x3F)));
                    }
                    break;
                }
                default:
                    return fail("unknown escape");
                }
                ++pos_;
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            out->push_back(c);
            ++pos_;
        }
        return fail("unterminated string");
    }

    util::Status parseNumber(JsonValue *out)
    {
        size_t start = pos_;
        if (consume('-')) {
        }
        if (pos_ >= text_.size() || !std::isdigit(
                static_cast<unsigned char>(text_[pos_])))
            return fail("malformed number");
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (consume('.')) {
            if (pos_ >= text_.size() || !std::isdigit(
                    static_cast<unsigned char>(text_[pos_])))
                return fail("malformed number");
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() || !std::isdigit(
                    static_cast<unsigned char>(text_[pos_])))
                return fail("malformed number");
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        out->type = JsonValue::Type::Number;
        out->number = std::strtod(text_.substr(start, pos_ - start).c_str(),
                                  nullptr);
        return util::Status::okStatus();
    }

    const std::string &text_;
    JsonLimits limits_;
    size_t pos_ = 0;
};

} // namespace

const char *JsonValue::typeName() const
{
    switch (type) {
    case Type::Null: return "null";
    case Type::Bool: return "bool";
    case Type::Number: return "number";
    case Type::String: return "string";
    case Type::Array: return "array";
    case Type::Object: return "object";
    }
    return "unknown";
}

const JsonValue *JsonValue::find(std::string_view key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

util::Result<std::string>
JsonValue::getStringOr(const std::string &key, std::string fallback) const
{
    const JsonValue *v = find(key);
    if (!v)
        return fallback;
    if (!v->isString())
        return util::Status::error(util::ErrorCode::InvalidArgument,
                                   "field \"%s\" must be a string, got %s",
                                   key.c_str(), v->typeName());
    return v->string;
}

util::Result<double> JsonValue::getNumber(const std::string &key) const
{
    const JsonValue *v = find(key);
    if (!v)
        return util::Status::error(util::ErrorCode::InvalidArgument,
                                   "missing required field \"%s\"",
                                   key.c_str());
    if (!v->isNumber())
        return util::Status::error(util::ErrorCode::InvalidArgument,
                                   "field \"%s\" must be a number, got %s",
                                   key.c_str(), v->typeName());
    return v->number;
}

util::Result<JsonValue> parseJson(const std::string &text,
                                  const JsonLimits &limits)
{
    return Parser(text, limits).parse();
}

} // namespace lll::util
