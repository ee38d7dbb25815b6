#include "sim/op_stream.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace lll::sim
{

namespace
{

constexpr unsigned patternLen = 64;
constexpr uint64_t regionBits = 24;   //!< lines of address space per stream

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

OpStream::OpStream(const KernelSpec &spec, uint64_t thread_seed,
                   uint64_t core_seed)
{
    lll_assert(!spec.streams.empty(), "kernel '%s' has no streams",
               spec.name.c_str());

    double total_weight = 0.0;
    for (const StreamDesc &d : spec.streams)
        total_weight += d.weight;
    lll_assert(total_weight > 0.0, "kernel '%s' has zero total weight",
               spec.name.c_str());

    const int n = static_cast<int>(spec.streams.size());
    streams_.reserve(n);
    for (int s = 0; s < n; ++s) {
        StreamState st;
        st.desc = spec.streams[s];
        if (st.desc.footprintLines == 0)
            st.desc.footprintLines = 1;
        lll_assert(st.desc.footprintLines <= (1ULL << (regionBits - 1)),
                   "stream footprint too large (%llu lines)",
                   static_cast<unsigned long long>(st.desc.footprintLines));
        uint64_t owner = st.desc.sharedAcrossThreads ? core_seed * 2 + 1
                                                     : thread_seed * 2 + 2;
        st.seed = splitmix64(owner * 1315423911ULL + s);
        // Place the stream at a randomized offset inside its private
        // region: real allocations never start set-aligned, and
        // correlated phases across hundreds of streams would otherwise
        // thrash a few cache sets in unison.
        uint64_t region = (owner << 32) |
                          (static_cast<uint64_t>(s) << regionBits);
        uint64_t slack = (1ULL << regionBits) - st.desc.footprintLines;
        uint64_t offset = slack ? splitmix64(st.seed ^ 0x0ff5e7) % slack
                                : 0;
        st.base = region + offset;
        streams_.push_back(st);
    }

    // Quantize weights into an interleave pattern of patternLen slots.
    std::vector<unsigned> counts(n, 0);
    unsigned assigned = 0;
    for (int s = 0; s < n; ++s) {
        double share = spec.streams[s].weight / total_weight;
        counts[s] = std::max(1u, static_cast<unsigned>(
                                     share * patternLen + 0.5));
        assigned += counts[s];
    }
    // Rebalance to exactly patternLen by adjusting the largest stream.
    while (assigned != patternLen) {
        int big = static_cast<int>(
            std::max_element(counts.begin(), counts.end()) -
            counts.begin());
        if (assigned > patternLen) {
            lll_assert(counts[big] > 1, "cannot shrink pattern further");
            --counts[big];
            --assigned;
        } else {
            ++counts[big];
            ++assigned;
        }
    }

    // Error-diffusion interleave: at each slot, pick the stream furthest
    // behind its ideal cumulative share.
    pattern_.resize(patternLen);
    perPattern_ = counts;
    std::vector<unsigned> placed(n, 0);
    for (unsigned slot = 0; slot < patternLen; ++slot) {
        int best = -1;
        double best_deficit = -1e300;
        for (int s = 0; s < n; ++s) {
            double ideal = static_cast<double>(counts[s]) * (slot + 1) /
                           patternLen;
            double deficit = ideal - placed[s];
            if (placed[s] < counts[s] && deficit > best_deficit) {
                best_deficit = deficit;
                best = s;
            }
        }
        lll_assert(best >= 0, "pattern construction failed");
        pattern_[slot] = {best, placed[best]};
        ++placed[best];
    }
}

uint64_t
OpStream::baseAddress(int s, uint64_t k) const
{
    const StreamState &st = streams_[s];
    const uint64_t fp = st.desc.footprintLines;
    switch (st.desc.kind) {
      case StreamDesc::Kind::Sequential:
        return st.base + (k % fp);
      case StreamDesc::Kind::Strided:
        return st.base +
               (k * static_cast<uint64_t>(st.desc.strideLines)) % fp;
      case StreamDesc::Kind::Random:
        return st.base + splitmix64(k ^ st.seed) % fp;
    }
    return st.base;
}

Op
OpStream::at(uint64_t n) const
{
    const unsigned slot = static_cast<unsigned>(n % patternLen);
    const uint64_t period = n / patternLen;
    const PatternSlot ps = pattern_[slot];
    const int s = ps.stream;
    const StreamState &st = streams_[s];

    uint64_t k = period * perPattern_[s] + ps.rank;

    if (st.desc.reuseFraction > 0.0 && k > 0) {
        uint64_t h = splitmix64(k * 0x9e3779b97f4a7c15ULL ^ st.seed);
        double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
        if (u < st.desc.reuseFraction) {
            uint64_t back = 1 + splitmix64(h) % st.desc.reuseWindow;
            k = back >= k ? 0 : k - back;
        }
    }

    Op op;
    op.lineAddr = baseAddress(s, k);
    op.type = st.desc.store ? ReqType::DemandStore : ReqType::DemandLoad;
    op.streamIdx = s;
    op.swPrefetchable = st.desc.swPrefetchable;
    return op;
}

} // namespace lll::sim
