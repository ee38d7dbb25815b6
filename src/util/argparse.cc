#include "util/argparse.hh"

#include <algorithm>
#include <sstream>

namespace lll::util
{

void ArgParser::stripHelp()
{
    for (size_t i = 0; i < args_.size();) {
        if (args_[i] == "--help" || args_[i] == "-h") {
            helpRequested_ = true;
            args_.erase(args_.begin() + static_cast<long>(i));
        } else {
            ++i;
        }
    }
}

void ArgParser::record(const std::string &flag, const char *metavar,
                       const char *help, bool repeatable)
{
    for (const FlagInfo &f : flags_) {
        if (f.flag == flag)
            return; // shared helpers may re-register; keep the first
    }
    flags_.push_back({flag, metavar, help, repeatable});
}

util::Result<size_t> ArgParser::findOnce(const std::string &flag) const
{
    size_t found = args_.size();
    for (size_t i = 0; i < args_.size(); ++i) {
        if (args_[i] != flag)
            continue;
        if (found != args_.size()) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "%s given more than once", flag.c_str());
        }
        found = i;
    }
    return found;
}

util::Result<std::string> ArgParser::extractValue(const std::string &flag)
{
    util::Result<size_t> at = findOnce(flag);
    if (!at.ok())
        return at.status();
    if (*at == args_.size())
        return std::string();
    if (*at + 1 >= args_.size()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "%s needs an argument", flag.c_str());
    }
    std::string value = args_[*at + 1];
    args_.erase(args_.begin() + static_cast<long>(*at),
                args_.begin() + static_cast<long>(*at) + 2);
    return value;
}

util::Result<std::string> ArgParser::valueFlag(const std::string &flag,
                                               const char *metavar,
                                               const char *help)
{
    record(flag, metavar, help, false);
    if (helpRequested_)
        return std::string();
    return extractValue(flag);
}

util::Result<std::vector<std::string>>
ArgParser::stringList(const std::string &flag, const char *help)
{
    record(flag, "S", help, true);
    std::vector<std::string> values;
    if (helpRequested_)
        return values;
    for (size_t i = 0; i < args_.size();) {
        if (args_[i] != flag) {
            ++i;
            continue;
        }
        if (i + 1 >= args_.size()) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "%s needs an argument", flag.c_str());
        }
        values.push_back(args_[i + 1]);
        args_.erase(args_.begin() + static_cast<long>(i),
                    args_.begin() + static_cast<long>(i) + 2);
    }
    return values;
}

util::Result<bool> ArgParser::boolFlag(const std::string &flag,
                                       const char *help)
{
    record(flag, nullptr, help, false);
    if (helpRequested_)
        return false;
    util::Result<size_t> at = findOnce(flag);
    if (!at.ok())
        return at.status();
    if (*at == args_.size())
        return false;
    args_.erase(args_.begin() + static_cast<long>(*at));
    return true;
}

util::Status ArgParser::finish() const
{
    if (helpRequested_ || args_.empty())
        return Status::okStatus();
    const std::string &arg = args_.front();
    return Status::error(ErrorCode::InvalidArgument,
                         !arg.empty() && arg[0] == '-'
                             ? "unknown flag '%s'"
                             : "unexpected argument '%s'",
                         arg.c_str());
}

void ArgParser::consumePositional(size_t n)
{
    if (n > args_.size())
        n = args_.size();
    args_.erase(args_.begin(), args_.begin() + static_cast<long>(n));
}

std::string ArgParser::helpText(const std::string &usage_tail,
                                const std::string &summary) const
{
    std::ostringstream out;
    out << "usage: lll " << usage_tail << "\n";
    if (!summary.empty())
        out << "\n" << summary << "\n";
    if (flags_.empty())
        return out.str();
    out << "\nflags:\n";
    size_t width = 0;
    auto head = [](const FlagInfo &f) {
        std::string h = f.flag;
        if (f.metavar) {
            h += " ";
            h += f.metavar;
        }
        return h;
    };
    for (const FlagInfo &f : flags_)
        width = std::max(width, head(f).size());
    for (const FlagInfo &f : flags_) {
        std::string h = head(f);
        out << "  " << h;
        const bool note = (f.help && *f.help) || f.repeatable;
        if (note)
            out << std::string(width - h.size() + 2, ' ');
        if (f.help && *f.help)
            out << f.help;
        if (f.repeatable)
            out << ((f.help && *f.help) ? " (repeatable)"
                                        : "(repeatable)");
        out << "\n";
    }
    return out.str();
}

} // namespace lll::util
