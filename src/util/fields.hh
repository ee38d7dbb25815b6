/**
 * @file
 * One field list per record, and the codecs that walk it.
 *
 * A record declares its fields once, next to the struct, as
 * `template <class V, util::RecordOf<T> R> void visitFields(V &, R &)`
 * calling `v("wire_name", r.member, FieldOpts{...})` per field.  Every
 * codec is a visitor over that list and names no field itself:
 * FieldWriter and FieldReader here, util::FlagReader for the command
 * line, the spec hash, the determinism metrics.  tests/test_fields.cc
 * fails for any codec that cannot carry a listed field.
 *
 * Field types: arithmetic, std::string, enums with an ADL enumNames()
 * table, records, vectors of these, Optional, and types with ADL wire
 * adapters toWire(const T &) -> W / fromWire(const W &, T &) -> Status.
 */

#ifndef LLL_UTIL_FIELDS_HH
#define LLL_UTIL_FIELDS_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <concepts>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/json.hh"
#include "util/status.hh"

namespace lll::util
{

/** Optional attributes of one field-list entry. */
struct FieldOpts
{
    /** Accepted range of a number (within its type's); least length
     *  of a vector. */
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    /** Non-null: the field is also the flag `--<wire-name>` (`_` as
     *  `-`), or @p flag when given, with this help line ("" for none);
     *  a vector flag repeats. */
    const char *help = nullptr;
    const char *flag = nullptr;
    /** Record-specific selection bits (e.g. core::kStageData). */
    unsigned tags = 0;
    /** Request decoding: absent is an error, not the default. */
    bool required = false;
    /** Request decoding: exactly one of the record's oneOf fields is
     *  present (writers skip such a string while it is empty). */
    bool oneOf = false;
};

/** Constrains a record's visitFields to that record, const or not. */
template <class R, class T>
concept RecordOf = std::same_as<std::remove_const_t<R>, T>;

/** A member whose presence a second member records. */
template <class T, class B>
struct Optional
{
    T &value;
    B &present;
};

/** A visitor that does nothing: what the Record concept probes with. */
inline constexpr auto kNoVisit = [](const char *, auto &&,
                                    const FieldOpts & = {}) {};

template <class T>
concept Record = requires(T &t) { visitFields(kNoVisit, t); };
template <class T>
concept Vector = std::same_as<T, std::vector<typename T::value_type>>;
template <class T>
concept IsOptional = requires(T t) { t.value; t.present; };
template <class E>
concept NamedEnum = std::is_enum_v<E> && requires(E e) {
    { enumNames(e) } -> std::convertible_to<std::span<const char *const>>;
};
template <class T>
concept WireAdapted = requires(const T &t) { toWire(t); };
template <class T>
concept WireVector = Vector<T> && WireAdapted<typename T::value_type>;
template <class>
inline constexpr bool kUnsupported = false;

/** The wire name of @p e ("?" outside its table). */
template <NamedEnum E>
const char *
enumName(E e)
{
    const std::span<const char *const> names = enumNames(e);
    const auto i = static_cast<size_t>(e);
    return i < names.size() ? names[i] : "?";
}

/** The enumerator spelled @p name; false when there is none. */
template <NamedEnum E>
bool
enumFromName(std::string_view name, E &out)
{
    const std::span<const char *const> names = enumNames(E{});
    const auto it = std::find(names.begin(), names.end(), name);
    if (it != names.end())
        out = static_cast<E>(it - names.begin());
    return it != names.end();
}

/**
 * The one range check of a number, shared by every front end: an
 * integer is exact and within both its type and [o.lo, o.hi]; a double
 * is finite and within [o.lo, o.hi].
 */
template <class T>
bool
inRange(double d, const FieldOpts &o)
{
    if constexpr (std::is_integral_v<T>) {
        // 2^digits, one past the max of T, is exact as a double.
        return d >= double(std::numeric_limits<T>::min()) &&
               d < std::ldexp(1.0, std::numeric_limits<T>::digits) &&
               d == std::floor(d) && d >= o.lo && d <= o.hi;
    } else {
        return std::isfinite(d) && d >= o.lo && d <= o.hi;
    }
}

/** What inRange<T>() accepts: "an integer in [0, 2147483647]", "a
 *  finite number >= 0", ... */
template <class T>
std::string
rangeText(const FieldOpts &o)
{
    using Limits = std::numeric_limits<T>;
    char buf[80];
    if (std::is_integral_v<T>) {
        const double hi = std::min(double(Limits::max()), o.hi);
        std::snprintf(buf, sizeof(buf), "an integer in [%lld, %llu]",
                      static_cast<long long>(
                          std::max(double(Limits::min()), o.lo)),
                      hi >= 0x1p64 ? ~0ULL
                                   : static_cast<unsigned long long>(hi));
    } else if (std::isinf(o.lo) && std::isinf(o.hi)) {
        std::snprintf(buf, sizeof(buf), "a finite number");
    } else if (std::isinf(o.hi)) {
        std::snprintf(buf, sizeof(buf), "a finite number >= %g", o.lo);
    } else {
        std::snprintf(buf, sizeof(buf), "a number in [%g, %g]", o.lo, o.hi);
    }
    return buf;
}

/** True when @p name is one of record @p R's wire names. */
template <Record R>
bool
isFieldOf(std::string_view name)
{
    static const R kInstance{};
    bool found = false;
    auto finder = [&](const char *n, auto &&, const FieldOpts & = {}) {
        found = found || name == n;
    };
    visitFields(finder, kInstance);
    return found;
}

/**
 * Writes each visited field as `"<prefix><name>": value` into the open
 * object of a JsonWriter: enums by name, records as inline objects,
 * vectors as arrays.  With @p tags set, only entries carrying one of
 * those bits are written.  Without a prefix, names cost no allocation.
 */
class FieldWriter
{
  public:
    explicit FieldWriter(JsonWriter &w, std::string_view prefix = {},
                         unsigned tags = 0)
        : w_(w), prefix_(prefix), tags_(tags)
    {
    }

    template <class T>
    void
    operator()(const char *name, const T &v, const FieldOpts &o = {})
    {
        if (tags_ != 0 && (o.tags & tags_) == 0)
            return;
        if constexpr (IsOptional<T>) {
            if (v.present)
                (*this)(name, v.value, o);
        } else {
            if constexpr (std::is_same_v<T, std::string>) {
                if (o.oneOf && v.empty())
                    return;
            }
            if (prefix_.empty())
                w_.key(name);
            else
                w_.key(std::string(prefix_) + name);
            value(v);
        }
    }

  private:
    template <class T>
    void
    value(const T &v)
    {
        if constexpr (NamedEnum<T>) {
            w_.value(enumName(v));
        } else if constexpr (std::is_arithmetic_v<T> ||
                             std::is_same_v<T, std::string>) {
            w_.value(v);
        } else if constexpr (Record<T>) {
            w_.beginObject();
            FieldWriter inner(w_);
            visitFields(inner, v);
            w_.end();
        } else if constexpr (Vector<T>) {
            w_.beginArray();
            for (const auto &item : v)
                value(item);
            w_.end();
        } else if constexpr (WireAdapted<T>) {
            value(toWire(v));
        } else {
            static_assert(kUnsupported<T>, "no JSON spelling");
        }
    }

    JsonWriter &w_;
    std::string_view prefix_;
    unsigned tags_;
};

/**
 * Reads each visited field of a parsed JSON object through inRange<T>()
 * and keeps the first problem.  Two policies:
 *  - Strict (spill files): every field must be present, as
 *    `<prefix><name>`; any problem is CorruptData.
 *  - Request (service JSON): an absent field keeps its value unless
 *    required; nested records reject unknown members; the oneOf rule
 *    holds; problems are InvalidArgument naming the field.
 */
class FieldReader
{
  public:
    enum class Policy
    {
        Strict,
        Request,
    };

    /** @p what names @p obj in the oneOf error ("request needs ..."). */
    FieldReader(const JsonValue &obj, Policy policy,
                std::string_view prefix = {}, const char *what = "")
        : obj_(obj), policy_(policy), prefix_(prefix), what_(what)
    {
    }

    template <class T>
    void
    operator()(const char *name, T &&v, const FieldOpts &o = {})
    {
        if (!error_.ok())
            return;
        const JsonValue *j = find(name, o);
        if constexpr (IsOptional<std::remove_cvref_t<T>>) {
            v.present = j != nullptr;
            if (j)
                read(name, *j, v.value, o);
        } else if (j) {
            read(name, *j, v, o);
        }
    }

    /** Ok, or the first problem met. */
    [[nodiscard]] Status status() const;

    /** InvalidArgument naming the first member of @p obj outside the
     *  lists of @p Rs and @p extra ("unknown <what> field \"x\"") — a
     *  typo'd field silently ignored is an analysis nobody asked for. */
    template <Record... Rs>
    [[nodiscard]] static Status
    rejectUnknown(const JsonValue &obj, const char *what,
                  std::span<const std::string_view> extra = {})
    {
        for (const auto &member : obj.object) {
            const std::string &k = member.first;
            if (!(isFieldOf<Rs>(k) || ...) &&
                std::find(extra.begin(), extra.end(), k) == extra.end())
                return Status::error(ErrorCode::InvalidArgument,
                                     "unknown %s field \"%s\"", what,
                                     k.c_str());
        }
        return Status::okStatus();
    }

  private:
    using Type = JsonValue::Type;
    static constexpr size_t kWhole = SIZE_MAX;

    /** @p j into @p v: field @p name itself, or its entry @p index. */
    template <class T>
    void
    read(const char *name, const JsonValue &j, T &v, const FieldOpts &o,
         size_t index = kWhole)
    {
        if constexpr (WireAdapted<T>) {
            decltype(toWire(v)) wire{};
            read(name, j, wire, o, index);
            Status s = error_.ok() ? fromWire(wire, v) : Status::okStatus();
            if (!s.ok())
                fail(name, std::move(s));
            return;
        }
        constexpr Type want =
            std::is_same_v<T, bool>       ? Type::Bool
            : std::is_arithmetic_v<T>     ? Type::Number
            : Record<T>                   ? Type::Object
            : Vector<T>                   ? Type::Array
                                          : Type::String;
        if (!expect(name, j, want, index))
            return;
        if constexpr (std::is_same_v<T, bool>) {
            v = j.boolean;
        } else if constexpr (std::is_arithmetic_v<T>) {
            if (inRange<T>(j.number, o))
                v = static_cast<T>(j.number);
            else
                fail(name, "field \"%s\" must be %s", name,
                     rangeText<T>(o).c_str());
        } else if constexpr (std::is_same_v<T, std::string>) {
            v = j.string;
        } else if constexpr (NamedEnum<T>) {
            if (!enumFromName(j.string, v))
                fail(name, "unknown %s \"%s\"", name, j.string.c_str());
        } else if constexpr (Record<T>) {
            readRecord(name, j, v, index);
        } else if constexpr (Vector<T>) {
            if (j.array.size() < o.lo) {
                fail(name, "field \"%s\" needs at least %g entr%s", name,
                     o.lo, o.lo == 1 ? "y" : "ies");
                return;
            }
            v.assign(j.array.size(), typename T::value_type{});
            for (size_t i = 0; i < v.size() && error_.ok(); ++i)
                read(name, j.array[i], v[i], FieldOpts{}, i);
        } else if constexpr (!WireAdapted<T>) {
            static_assert(kUnsupported<T>, "no JSON reading");
        }
    }

    /** A nested record, its problems in context "name" or
     *  "name[index]". */
    template <class T>
    void
    readRecord(const char *name, const JsonValue &j, T &v, size_t index)
    {
        Status s = rejectUnknown<T>(j, name);
        if (s.ok()) {
            FieldReader inner(j, policy_, {}, name);
            visitFields(inner, v);
            s = inner.status();
        }
        if (!s.ok()) {
            fail(name, index == kWhole
                           ? s.withContext("%s", name)
                           : s.withContext("%s[%zu]", name, index));
        }
    }

    template <class... Args>
    void
    fail(const char *name, const char *fmt, Args... args)
    {
        fail(name, Status::error(ErrorCode::InvalidArgument, fmt, args...));
    }

    const JsonValue *find(const char *name, const FieldOpts &o);
    bool expect(const char *name, const JsonValue &j, Type t, size_t index);
    void fail(const char *name, Status s);

    const JsonValue &obj_;
    Policy policy_;
    std::string_view prefix_;
    const char *what_;
    Status error_;
    int oneOfPresent_ = 0;
    size_t oneOfCount_ = 0;
    std::array<const char *, 4> oneOfNames_{}; //!< the oneOf fields seen
};

} // namespace lll::util

#endif // LLL_UTIL_FIELDS_HH
