/**
 * @file
 * Shared subcommand flag parsing for the `lll` CLI.
 *
 * ArgParser holds one command's arguments and the contract every
 * command shares:
 *
 *   - flags are extracted destructively in any order, leaving
 *     positional operands (workload names, optimization tokens) behind
 *     for the command to interpret;
 *   - a valued flag without its value is "FLAG needs an argument";
 *   - a flag given twice is "FLAG given more than once" (never a
 *     silent first/last-wins);
 *   - finish() rejects anything left over that the command did not
 *     claim: "unknown flag '-x'" / "unexpected argument 'x'".
 *
 * All failures are InvalidArgument, which util::exitCodeFor maps to
 * the CLI's usage exit code (2).
 *
 * Commands read their flags only through FlagReader, which walks a
 * request's field list (util/fields.hh) and checks each number with
 * the range the JSON decoder uses; the audit (LLL-SRC-124) refuses a
 * direct accessor call outside src/util.
 *
 * The parser is also the single source of `--help` truth: the
 * constructor strips `--help` / `-h`, every accessor registers its
 * flag (name, value shape, one-line help), and helpText() renders the
 * one usage format every command shares.  In help mode accessors
 * return their fallbacks without validating anything, so `lll <cmd>
 * --help` never fails on the arguments around it.
 */

#ifndef LLL_UTIL_ARGPARSE_HH
#define LLL_UTIL_ARGPARSE_HH

#include <charconv>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "util/fields.hh"
#include "util/status.hh"

namespace lll::util
{

/** One flag as a subcommand registered it, for the help renderer. */
struct FlagInfo
{
    std::string flag;
    const char *metavar;    //!< nullptr for bare (boolean) flags
    const char *help;       //!< optional one-liner (may be nullptr)
    bool repeatable = false;
};

class ArgParser
{
  public:
    /** Parse over @p args (a command's arguments).  `--help` / `-h`
     *  anywhere in the list is stripped and latched. */
    explicit ArgParser(std::vector<std::string> args)
        : args_(std::move(args))
    {
        stripHelp();
    }

    /** Extract `FLAG VALUE`; empty string when the flag is absent.
     *  Errors on a missing value or a repeated flag.  @p metavar is
     *  the value's help spelling ("N", "X", "S"). */
    [[nodiscard]] util::Result<std::string>
    valueFlag(const std::string &flag, const char *metavar,
              const char *help);

    /**
     * Extract every `FLAG VALUE` occurrence, in argument order
     * (repeatable flags: "--axis a=1,2 --axis b=3,4").
     */
    [[nodiscard]] util::Result<std::vector<std::string>>
    stringList(const std::string &flag, const char *help);

    /** Extract a bare `FLAG`; false when absent, error on repeats. */
    [[nodiscard]] util::Result<bool> boolFlag(const std::string &flag,
                                              const char *help);

    /** Positional operands left after flag extraction. */
    const std::vector<std::string> &rest() const { return args_; }

    /**
     * Reject anything still unconsumed: "unknown flag '-x'" for
     * dash-prefixed leftovers, "unexpected argument 'x'" otherwise.
     * Call after all flags *and* positionals have been claimed.
     * Always ok in help mode.
     */
    [[nodiscard]] util::Status finish() const;

    /** Drop the first @p n positional operands (claimed by caller). */
    void consumePositional(size_t n);

    /** `--help` / `-h` was present.  Check once every flag accessor
     *  has run (registration is what fills the help text). */
    bool helpRequested() const { return helpRequested_; }

    /**
     * The one shared help format: "usage: lll <usage_tail>" plus one
     * line per registered flag.  @p summary is the subcommand's
     * one-line description (omitted when empty).
     */
    std::string helpText(const std::string &usage_tail,
                         const std::string &summary = "") const;

  private:
    [[nodiscard]] util::Result<size_t> findOnce(const std::string &flag) const;
    [[nodiscard]] util::Result<std::string> extractValue(const std::string &flag);
    void stripHelp();
    void record(const std::string &flag, const char *metavar,
                const char *help, bool repeatable);

    std::vector<std::string> args_;
    std::vector<FlagInfo> flags_;
    bool helpRequested_ = false;
};

/** @p raw as a value of @p T within inRange<T>(@p o) — the check the
 *  JSON decoder applies — or "FLAG wants <range>, got 'raw'". */
template <class T>
[[nodiscard]] util::Status
parseFlagValue(const std::string &flag, const std::string &raw,
               const FieldOpts &o, T &out)
{
    const char *end = raw.data() + raw.size();
    T v{};
    bool ok = false;
    if constexpr (std::is_integral_v<T>) {
        // from_chars is exact for every width, where a detour through
        // double would round 64-bit values.
        const std::from_chars_result r = std::from_chars(raw.data(), end, v);
        ok = r.ec == std::errc() && r.ptr == end && double(v) >= o.lo &&
             double(v) <= o.hi;
    } else {
        char *stop = nullptr;
        v = std::strtod(raw.c_str(), &stop);
        ok = !raw.empty() && stop == end && inRange<T>(v, o);
    }
    if (!ok) {
        return Status::error(ErrorCode::InvalidArgument,
                             "%s wants %s, got '%s'", flag.c_str(),
                             rangeText<T>(o).c_str(), raw.c_str());
    }
    out = v;
    return Status::okStatus();
}

/**
 * Reads a record's flag fields from an ArgParser: the field-list
 * entries with help (util/fields.hh), each as FieldOpts::flag or `--`
 * + its wire name with `_` spelled `-` — a bare flag for a bool, a
 * checked value for a number, a repeated one for a vector of wire-
 * adapted values.  Absent flags keep the record's values; the first
 * problem is kept in status().
 */
class FlagReader
{
  public:
    explicit FlagReader(ArgParser &ap) : ap_(ap) {}

    template <class T>
    void
    operator()(const char *name, T &&v, const FieldOpts &o = {})
    {
        using U = std::remove_cvref_t<T>;
        if (o.help == nullptr || !status_.ok())
            return;
        std::string flag = o.flag ? o.flag : "--";
        for (const char *c = name; !o.flag && *c; ++c)
            flag += *c == '_' ? '-' : *c;
        if constexpr (std::is_same_v<U, bool>) {
            util::Result<bool> set = ap_.boolFlag(flag, o.help);
            if (!set.ok())
                status_ = set.status();
            else if (*set)
                v = true;
        } else if constexpr (std::is_arithmetic_v<U>) {
            util::Result<std::string> raw = ap_.valueFlag(
                flag, std::is_integral_v<U> ? "N" : "X", o.help);
            if (!raw.ok())
                status_ = raw.status();
            else if (!raw->empty())
                status_ = parseFlagValue(flag, *raw, o, v);
        } else if constexpr (std::is_same_v<U, std::string>) {
            util::Result<std::string> raw = ap_.valueFlag(flag, "S", o.help);
            if (!raw.ok())
                status_ = raw.status();
            else if (!raw->empty())
                v = raw.take();
        } else if constexpr (WireVector<U>) {
            util::Result<std::vector<std::string>> raw =
                ap_.stringList(flag, o.help);
            if (!raw.ok())
                status_ = raw.status();
            for (size_t i = 0; raw.ok() && status_.ok() &&
                               i < raw->size(); ++i) {
                v.emplace_back();
                status_ = fromWire((*raw)[i], v.back());
            }
        }
    }

    const Status &status() const { return status_; }

  private:
    ArgParser &ap_;
    Status status_;
};

} // namespace lll::util

#endif // LLL_UTIL_ARGPARSE_HH
