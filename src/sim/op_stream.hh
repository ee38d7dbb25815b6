/**
 * @file
 * Stateless generation of a kernel's memory-operation sequence.
 *
 * The generator maps an op index n directly to (stream, line address,
 * type) with no mutable state.  Statelessness is what makes software
 * prefetching trivially exact to model: the op at n + distance can be
 * computed at op n without running ahead.
 */

#ifndef LLL_SIM_OP_STREAM_HH
#define LLL_SIM_OP_STREAM_HH

#include <cstdint>
#include <vector>

#include "sim/kernel_spec.hh"
#include "sim/request.hh"

namespace lll::sim
{

/** One memory operation of the kernel. */
struct Op
{
    uint64_t lineAddr = 0;
    ReqType type = ReqType::DemandLoad;
    int streamIdx = 0;
    bool swPrefetchable = false;
};

/**
 * Deterministic op sequence for one hardware thread.
 *
 * Streams are interleaved with a weighted round-robin pattern (so a 0.75 /
 * 0.25 weight split yields a regular 3:1 interleave, like a compiler-
 * scheduled loop body), and each stream's k-th access is a pure function
 * of k, so the whole sequence is random access.
 */
class OpStream
{
  public:
    /**
     * @param spec the kernel description
     * @param thread_seed distinct per (core, thread) for private regions
     * @param core_seed shared by threads of a core (sharedAcrossThreads)
     */
    OpStream(const KernelSpec &spec, uint64_t thread_seed,
             uint64_t core_seed);

    /** The op at sequence position @p n. */
    Op at(uint64_t n) const;

    /** Interleave pattern length (test aid). */
    unsigned patternLength() const
    {
        return static_cast<unsigned>(pattern_.size());
    }

    /** Ops of stream @p s within one pattern period (test aid). */
    unsigned countInPattern(int s) const { return perPattern_[s]; }

  private:
    /** Line address for occurrence @p k of stream @p s (no reuse). */
    uint64_t baseAddress(int s, uint64_t k) const;

    struct StreamState
    {
        StreamDesc desc;
        uint64_t base = 0;      //!< region start, in lines
        uint64_t seed = 0;
    };

    /** One interleave slot: its stream, and how many ops of that
     *  stream precede it within the pattern period. */
    struct PatternSlot
    {
        int stream = 0;
        unsigned rank = 0;
    };

    std::vector<StreamState> streams_;
    std::vector<PatternSlot> pattern_;  //!< slot -> (stream, rank)
    std::vector<unsigned> perPattern_;  //!< stream -> ops per period
};

} // namespace lll::sim

#endif // LLL_SIM_OP_STREAM_HH
