#include "xmem/profile_store.hh"

#include <sys/stat.h>

#include <filesystem>

#include "util/logging.hh"
#include "xmem/xmem_harness.hh"

namespace lll::xmem
{

using util::ErrorCode;
using util::Result;

bool
ProfileStore::statFile(const std::string &path, FileId *out)
{
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0)
        return false;
    out->dev = uint64_t(st.st_dev);
    out->ino = uint64_t(st.st_ino);
    out->size = uint64_t(st.st_size);
    out->mtimeNs = int64_t(st.st_mtim.tv_sec) * 1000000000 +
                   int64_t(st.st_mtim.tv_nsec);
    return true;
}

ProfileStore::Slot &
ProfileStore::slotFor(const std::string &path)
{
    const bool absolute = !path.empty() && path.front() == '/';
    if (absolute) {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = absoluteSlots_.find(path);
        if (it != absoluteSlots_.end())
            return *it->second;
    }
    // Key on the absolute path, so "data/profiles/skl.profile" and its
    // absolute spelling share one entry, and a later chdir cannot make
    // one relative path serve another directory's file.
    std::error_code ec;
    std::string key =
        std::filesystem::absolute(path, ec).lexically_normal().string();
    if (ec)
        key = path;
    std::lock_guard<std::mutex> lock(mu_);
    Slot &slot = slots_[key];
    if (absolute)
        absoluteSlots_.emplace(path, &slot);
    return slot;
}

Result<LatencyProfile>
ProfileStore::loadLocked(Slot &slot, const std::string &path)
{
    FileId id;
    const bool exists = statFile(path, &id);
    if (exists && slot.valid && slot.id == id)
        return slot.profile;
    slot.valid = false;
    ++fileLoads_;
    Result<LatencyProfile> loaded = LatencyProfile::load(path);
    if (loaded.ok() && exists) {
        // Should the file have been replaced between the stat() and
        // the read, the next lookup sees a new id and reads it again.
        slot.valid = true;
        slot.id = id;
        slot.profile = *loaded;
    }
    return loaded;
}

Result<LatencyProfile>
ProfileStore::load(const std::string &path)
{
    ++lookups_;
    Slot &slot = slotFor(path);
    std::lock_guard<std::mutex> lock(slot.mu);
    return loadLocked(slot, path);
}

std::optional<LatencyProfile>
ProfileStore::cached(const std::string &path)
{
    Slot &slot = slotFor(path);
    std::unique_lock<std::mutex> lock(slot.mu, std::try_to_lock);
    FileId id;
    if (!lock.owns_lock() || !slot.valid || !statFile(path, &id) ||
        !(slot.id == id))
        return std::nullopt;
    return slot.profile;
}

Result<LatencyProfile>
ProfileStore::loadOrMeasure(const platforms::Platform &platform,
                            const std::string &path,
                            const XMemHarness &harness)
{
    ++lookups_;
    Slot &slot = slotFor(path);
    // Held through a characterization: that is what makes the first
    // load of a path single-flight.
    std::lock_guard<std::mutex> lock(slot.mu);
    Result<LatencyProfile> cached = loadLocked(slot, path);
    if (cached.ok()) {
        if (cached->platformName() == platform.name)
            return cached;
        lll_warn("profile at '%s' is for platform '%s', remeasuring",
                 path.c_str(), cached->platformName().c_str());
    } else if (cached.status().code() != ErrorCode::NotFound) {
        // Corrupt or unreadable cache: surface it instead of silently
        // measuring over it (`lll characterize <plat> --fresh` rebuilds).
        return cached.status().withContext(
            "cached profile for '%s' is unusable (delete it or rerun "
            "with --fresh)",
            platform.name.c_str());
    }
    Result<LatencyProfile> fresh = harness.measure(platform);
    if (!fresh.ok())
        return fresh.status();
    ++measured_;
    // The saved file rounds every point, so later lookups read it back
    // rather than keep `fresh`: they see what a new process would.
    slot.valid = false;
    LLL_RETURN_IF_ERROR(fresh->save(path).withContext(
        "caching profile for '%s'", platform.name.c_str()));
    return fresh;
}

ProfileStore::Stats
ProfileStore::stats() const
{
    Stats s;
    s.lookups = lookups_.load();
    s.fileLoads = fileLoads_.load();
    s.measured = measured_.load();
    return s;
}

ProfileStore &
ProfileStore::global()
{
    static ProfileStore instance;
    return instance;
}

} // namespace lll::xmem
