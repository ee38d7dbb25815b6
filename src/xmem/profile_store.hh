/**
 * @file
 * The process-wide latency-profile store (DESIGN.md §11).  Every
 * profile load in the program goes through it, directly or through
 * XMemHarness::measureCachedChecked().
 *
 * A profile is parsed from its file once and then served from memory.
 * Entries are keyed by the resolved (absolute) path, and every lookup
 * re-validates its entry with one stat(): when the file's device,
 * inode, size or mtime changed — `characterize --fresh`, a search
 * candidate measured by another process, a hand edit — the file is
 * read again, so a rewritten profile takes effect at once.
 * LatencyProfile::save() replaces files by rename, which always gives
 * the new file a new inode.  Only successful parses are kept: a
 * missing or corrupt file is looked at again on every lookup.
 *
 * The first load of a path is single-flight: concurrent callers wait
 * for one load (or one characterization) instead of racing to measure
 * and write the same file.
 */

#ifndef LLL_XMEM_PROFILE_STORE_HH
#define LLL_XMEM_PROFILE_STORE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "platforms/platform.hh"
#include "util/status.hh"
#include "xmem/latency_profile.hh"

namespace lll::xmem
{

class XMemHarness;

class ProfileStore
{
  public:
    struct Stats
    {
        uint64_t lookups = 0;   //!< load() and loadOrMeasure() calls
        uint64_t fileLoads = 0; //!< profile files opened and parsed
        uint64_t measured = 0;  //!< profiles characterized and saved
    };

    /**
     * LatencyProfile::load(@p path), served from memory while the file
     * is unchanged.  Errors are LatencyProfile::load()'s.
     */
    [[nodiscard]] util::Result<LatencyProfile>
    load(const std::string &path);

    /**
     * The profile of @p platform cached at @p path, characterized with
     * @p harness and saved there first when the file does not exist or
     * holds another platform's profile.  A file that exists but cannot
     * be read is an error, never silently remeasured (see
     * XMemHarness::measureCachedChecked()).
     */
    [[nodiscard]] util::Result<LatencyProfile>
    loadOrMeasure(const platforms::Platform &platform,
                  const std::string &path, const XMemHarness &harness);

    Stats stats() const;

    static ProfileStore &global();

  private:
    /** What stat() says about a file; a change means a new file. */
    struct FileId
    {
        uint64_t dev = 0, ino = 0, size = 0;
        int64_t mtimeNs = 0;
        bool operator==(const FileId &o) const = default;
    };

    struct Slot
    {
        std::mutex mu; //!< held across a load or characterization
        bool valid = false;
        FileId id;
        LatencyProfile profile;
    };

    static bool statFile(const std::string &path, FileId *out);
    /** The slot for @p path, created on first use.  Slots are never
     *  erased and map nodes never move, so the reference stays
     *  valid. */
    Slot &slotFor(const std::string &path);
    [[nodiscard]] util::Result<LatencyProfile>
    loadLocked(Slot &slot, const std::string &path);

    std::mutex mu_; //!< guards slots_ only
    std::map<std::string, Slot> slots_;
    std::atomic<uint64_t> lookups_{0};
    std::atomic<uint64_t> fileLoads_{0};
    std::atomic<uint64_t> measured_{0};
};

} // namespace lll::xmem

#endif // LLL_XMEM_PROFILE_STORE_HH
