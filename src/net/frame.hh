/**
 * @file
 * Incremental line decoding for the socket front-end (DESIGN.md §14)
 * and its clients.
 *
 * The wire protocol is newline-delimited JSON, the same lines a
 * `lll serve --batch` file holds: a frame is everything up to the next
 * '\n', with a trailing '\r' stripped.  A line that does not parse as
 * a request is the service's business, answered like any other
 * request; the only framing violation is a line longer than the limit.
 *
 * The decoder is fed raw socket bytes and hands back complete lines;
 * it never copies more than one compaction per read and never buffers
 * beyond the configured limit: an over-limit line is an
 * InvalidArgument error that poisons the decoder, because the line is
 * dropped unread and what follows cannot be told from its tail.
 */

#ifndef LLL_NET_FRAME_HH
#define LLL_NET_FRAME_HH

#include <string>

#include "util/status.hh"

namespace lll::net
{

class FrameDecoder
{
  public:
    explicit FrameDecoder(size_t max_frame_bytes)
        : maxFrameBytes_(max_frame_bytes)
    {
    }

    /** Append @p n raw bytes from the socket. */
    void feed(const char *data, size_t n);

    enum class Next
    {
        Frame,    //!< one complete frame extracted
        NeedMore, //!< no complete frame buffered yet
        Error,    //!< framing violation; the stream is unrecoverable
    };

    /**
     * Extract the next complete frame into @p frame.  Whitespace-only
     * frames (bare newlines, keep-alive blanks) are swallowed, so a
     * returned frame always has content.  On Error, @p error carries
     * the InvalidArgument describing the violation and every further
     * call returns Error again.
     */
    Next next(std::string *frame, util::Status *error);

    /** True when bytes of an incomplete frame are buffered — the
     *  read-timeout (slow-loris) clock runs only while this holds. */
    bool hasPartial() const;

  private:
    [[nodiscard]] util::Status poison(util::Status s);

    size_t maxFrameBytes_;
    std::string buf_;
    size_t off_ = 0;
    bool failed_ = false;
};

} // namespace lll::net

#endif // LLL_NET_FRAME_HH
