#include "workloads/workload.hh"

#include "util/logging.hh"

namespace lll::workloads
{

namespace
{

/** One registry entry: the short id makeX()->name() returns, and the
 *  factory, so a lookup by name builds only the workload it finds
 *  (tests/test_workloads.cc checks that the ids agree). */
struct Entry
{
    const char *name;
    WorkloadPtr (*make)();
};

/** Paper Table II order. */
constexpr Entry kTableII[] = {
    {"isx", makeIsx},         {"hpcg", makeHpcg},
    {"pennant", makePennant}, {"comd", makeComd},
    {"minighost", makeMinighost},
    {"snap", makeSnap},
};

} // namespace

std::vector<WorkloadPtr>
allWorkloads()
{
    std::vector<WorkloadPtr> all;
    for (const Entry &e : kTableII)
        all.push_back(e.make());
    return all;
}

std::vector<WorkloadPtr>
allWorkloadsAndExtensions()
{
    std::vector<WorkloadPtr> all = allWorkloads();
    all.push_back(makeDgemm());
    return all;
}

util::Result<WorkloadPtr>
findWorkload(const std::string &name)
{
    std::string known;
    for (const Entry &e : kTableII) {
        if (name == e.name)
            return e.make();
        if (!known.empty())
            known += ", ";
        known += e.name;
    }
    // Extensions outside the paper's Table II.
    if (name == "dgemm")
        return makeDgemm();
    return util::Status::error(util::ErrorCode::NotFound,
                               "unknown workload '%s' (expected %s or dgemm)",
                               name.c_str(), known.c_str());
}

} // namespace lll::workloads
