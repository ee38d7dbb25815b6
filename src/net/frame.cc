#include "net/frame.hh"

namespace lll::net
{

using util::ErrorCode;
using util::Status;

void
FrameDecoder::feed(const char *data, size_t n)
{
    // Compact before growing: everything before off_ is consumed.
    if (off_ > 0) {
        buf_.erase(0, off_);
        off_ = 0;
    }
    buf_.append(data, n);
}

bool
FrameDecoder::hasPartial() const
{
    for (size_t i = off_; i < buf_.size(); ++i) {
        if (buf_[i] != '\n' && buf_[i] != '\r')
            return true;
    }
    return false;
}

util::Status
FrameDecoder::poison(util::Status s)
{
    failed_ = true;
    return s;
}

FrameDecoder::Next
FrameDecoder::next(std::string *frame, util::Status *error)
{
    if (failed_) {
        *error = Status::error(ErrorCode::InvalidArgument,
                               "frame stream already failed");
        return Next::Error;
    }
    for (;;) {
        // Bare separators between frames are keep-alives.
        while (off_ < buf_.size() &&
               (buf_[off_] == '\n' || buf_[off_] == '\r'))
            ++off_;
        if (off_ >= buf_.size())
            return Next::NeedMore;

        // The line so far, less a final '\r' that may open its CRLF:
        // once that exceeds the limit, the whole line will.
        const size_t nl = buf_.find('\n', off_);
        size_t end = nl == std::string::npos ? buf_.size() : nl;
        if (end > off_ && buf_[end - 1] == '\r')
            --end;
        if (end - off_ > maxFrameBytes_) {
            *error = poison(Status::error(
                ErrorCode::InvalidArgument,
                "request line exceeds the %zu-byte limit", maxFrameBytes_));
            return Next::Error;
        }
        if (nl == std::string::npos)
            return Next::NeedMore;
        frame->assign(buf_, off_, end - off_);
        off_ = nl + 1;

        // Whitespace-only frames are keep-alives, not requests.
        if (frame->find_first_not_of(" \t") != std::string::npos)
            return Next::Frame;
    }
}

} // namespace lll::net
