#include "sim/mshr_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace lll::sim
{

MshrQueue::MshrQueue(std::string name, unsigned size)
    : name_(std::move(name)), size_(size)
{
    unsigned reserve = size_ ? size_ : 64;
    entries_.resize(reserve);
    freeList_.reserve(reserve);
    for (unsigned i = 0; i < reserve; ++i)
        freeList_.push_back(reserve - 1 - i);
    rebuildIndex();
}

void
MshrQueue::rebuildIndex()
{
    size_t slots = 2;
    unsigned bits = 1;
    while (slots < 2 * entries_.size()) {
        slots <<= 1;
        ++bits;
    }
    index_.assign(slots, IndexSlot{});
    indexShift_ = 64 - bits;
    for (size_t e = 0; e < entries_.size(); ++e) {
        if (entries_[e].inUse) {
            index_[findSlot(entries_[e].lineAddr)] = {
                entries_[e].lineAddr, static_cast<uint32_t>(e)};
        }
    }
}

void
MshrQueue::eraseSlot(size_t i)
{
    const size_t mask = index_.size() - 1;
    for (size_t j = (i + 1) & mask; index_[j].entry != kEmptySlot;
         j = (j + 1) & mask) {
        // Slot j may fill the hole at i only if its home does not lie
        // cyclically in (i, j]: otherwise lookups would start past i.
        if (((j - home(index_[j].lineAddr)) & mask) >= ((j - i) & mask)) {
            index_[i] = index_[j];
            i = j;
        }
    }
    index_[i].entry = kEmptySlot;
}

Mshr *
MshrQueue::allocate(uint64_t lineAddr, ReqType origin, Tick now)
{
    lll_assert(!full(), "%s: allocate on full MSHR queue", name_.c_str());
    size_t slot = findSlot(lineAddr);
    lll_assert(index_[slot].entry == kEmptySlot,
               "%s: duplicate MSHR for line %llu", name_.c_str(),
               static_cast<unsigned long long>(lineAddr));

    if (freeList_.empty()) {
        // Only an unbounded queue (size_ == 0) runs out of entries: it
        // doubles them, which moves every entry (hence no Mshr pointer
        // may be held across allocate()), and re-sizes the index.
        const unsigned old = static_cast<unsigned>(entries_.size());
        entries_.resize(old * 2);
        for (unsigned i = old * 2; i-- > old;)
            freeList_.push_back(i);
        rebuildIndex();
        slot = findSlot(lineAddr);
    }

    unsigned idx = freeList_.back();
    freeList_.pop_back();
    Mshr &mshr = entries_[idx];
    mshr.lineAddr = lineAddr;
    mshr.allocated = now;
    mshr.originType = origin;
    mshr.targets.clear();
    mshr.inUse = true;
    index_[slot] = {lineAddr, idx};
    ++used_;
    peak_ = std::max(peak_, used_);
    ++allocations_;
    LLL_INVARIANT(size_ == 0 || used_ <= size_,
                  "%s: occupancy %u exceeds capacity %u", name_.c_str(),
                  used_, size_);
    LLL_INVARIANT(lookup(lineAddr) == &mshr,
                  "%s: index lost line %llu on insert", name_.c_str(),
                  static_cast<unsigned long long>(lineAddr));
    occupancy_.set(now, used_);
    return &mshr;
}

void
MshrQueue::deallocate(Mshr *mshr, Tick now)
{
    lll_assert(mshr && mshr->inUse, "%s: deallocating unused MSHR",
               name_.c_str());
    lll_assert(mshr->targets.empty(), "%s: deallocating MSHR with targets",
               name_.c_str());
    const size_t slot = findSlot(mshr->lineAddr);
    lll_assert(index_[slot].entry != kEmptySlot, "%s: MSHR not indexed",
               name_.c_str());
    const unsigned idx = index_[slot].entry;
    lll_assert(&entries_[idx] == mshr, "%s: MSHR index mismatch",
               name_.c_str());
    lll_assert(used_ > 0, "%s: deallocate on empty queue", name_.c_str());
    eraseSlot(slot);
    mshr->inUse = false;
    freeList_.push_back(idx);
    --used_;
    residency_ += now - std::max(mshr->allocated, statsStart_);
    LLL_INVARIANT(lookup(mshr->lineAddr) == nullptr,
                  "%s: index kept line %llu after erase", name_.c_str(),
                  static_cast<unsigned long long>(mshr->lineAddr));
    occupancy_.set(now, used_);
}

uint64_t
MshrQueue::residencyTicks(Tick now) const
{
    uint64_t total = residency_;
    for (const Mshr &m : entries_) {
        if (m.inUse)
            total += now - std::max(m.allocated, statsStart_);
    }
    return total;
}

void
MshrQueue::resetStats(Tick now)
{
    occupancy_.reset(now);
    statsStart_ = now;
    residency_ = 0;
    fullStalls_.reset();
    allocations_.reset();
}

void
MshrQueue::registerMetrics(obs::MetricRegistry &reg,
                           const std::string &prefix,
                           std::vector<std::string> &names) const
{
    auto add = [&](const char *suffix, obs::GaugeMetric::Reader reader,
                   bool sampled) {
        std::string name = prefix + suffix;
        obs::MetricRegistry::GaugeOptions opt;
        opt.sampled = sampled;
        reg.registerGauge(name, std::move(reader),
                          obs::GaugeMode::Callback, opt);
        names.push_back(std::move(name));
    };
    add(".occupancy",
        [this] { return static_cast<double>(used_); }, true);
    add(".size", [this] { return static_cast<double>(size_); }, false);
    add(".max_occupancy", [this] { return occupancy_.max(); }, false);
    add(".full_stalls",
        [this] { return static_cast<double>(fullStalls_.value()); },
        false);
    add(".allocations",
        [this] { return static_cast<double>(allocations_.value()); },
        false);
}

} // namespace lll::sim
