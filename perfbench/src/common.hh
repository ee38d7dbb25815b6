/**
 * @file
 * Shared plumbing of the end-to-end benchmark: clocks and order
 * statistics, the result books (attempted/failed/correct), the metric
 * sink, the in-memory span recorder of the traced run, and the private
 * profile stores every phase runs against.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Nearest-rank percentile, @p p in [0, 100]; 0 for an empty sample. */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
double mean(const std::vector<double> &v);

/** Operation accounting: every checked operation counts as attempted;
 *  a failed check counts as failed and makes the run incorrect. */
struct Books
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;

    /** Count one operation; on !ok log @p what to stderr. */
    void check(bool ok, const std::string &what);
};

/** Metrics in insertion order, printed as the result's "metrics". */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    /** set() every entry of @p other. */
    void append(const Metrics &other);
    /** Names of entries that are NaN or infinite (JSON cannot carry
     *  them; json() writes 0). */
    std::vector<std::string> nonFinite() const;
    std::string json() const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/**
 * In-memory span store for the traced run.  A span is a layer call the
 * benchmark made: "<layer>.<call>", start/end on the steady clock,
 * the enclosing span (0 = none) and the operation it belongs to.
 * Thread-safe; spans are written out only at the end of the run.
 */
class Tracer
{
  public:
    struct Span
    {
        uint64_t id = 0;
        uint64_t parent = 0;
        uint64_t op = 0;
        std::string name;
        double startNs = 0.0;
        double endNs = 0.0;
    };

    uint64_t newOp();

    /** Self time per layer (the span name up to its first '.') in
     *  seconds: each span's duration minus the part covered by its
     *  children. */
    std::map<std::string, double> selfSeconds() const;

    /** Durations in ns of every span named @p name. */
    std::vector<double> durationsNs(const std::string &name) const;

    size_t size() const;

    /** One JSON object per span, one per line. */
    bool write(const std::string &path) const;

    /** RAII span; a null tracer records nothing. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name, uint64_t op = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        Span span_;
        uint64_t savedParent_ = 0;
        uint64_t savedOp_ = 0;
    };

  private:
    double nowNs() const;

    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    uint64_t nextId_ = 1;
    uint64_t nextOp_ = 1;
};

/** Run-wide settings every phase reads. */
struct RunConfig
{
    std::string root;    //!< checkout root (holds src/ and data/)
    std::string workDir; //!< this run's private scratch directory
    /** Kept after the run: the observed stage statistics and frontier,
     *  named like their references under perfbench/ref/. */
    std::string observedDir;
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Copy the committed latency profiles into @p dir (created fresh). */
bool copyCommittedProfiles(const std::string &root, const std::string &dir);

/** FNV-1a over the names and bytes of the regular files under @p dir
 *  (recursive, name-sorted), as 16 hex digits. */
std::string hashTree(const std::string &dir);

/** Point LLL_PROFILE_DIR at @p dir for the calls that follow. */
void useProfileStore(const std::string &dir);

/** splitmix64: derive independent values from the workload seed. */
uint64_t mix64(uint64_t x);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
