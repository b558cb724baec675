/**
 * @file
 * Implementation of the ProcRange helpers.
 */

#include "trace/job_record.hh"

#include <algorithm>
#include <cstdio>

namespace qdel {
namespace trace {

std::string
ProcRange::label() const
{
    char buf[32];
    if (maxProcs < 0)
        std::snprintf(buf, sizeof(buf), "%d+", minProcs);
    else
        std::snprintf(buf, sizeof(buf), "%d-%d", minProcs, maxProcs);
    return buf;
}

const ProcRange *
paperProcRanges()
{
    static const ProcRange ranges[4] = {
        {1, 4},
        {5, 16},
        {17, 64},
        {65, -1},
    };
    return ranges;
}

int
paperProcRangeCount()
{
    return 4;
}

int
procBucketFor(int procs)
{
    const int clamped = std::max(procs, 1);
    const ProcRange *ranges = paperProcRanges();
    const int count = paperProcRangeCount();
    for (int i = 0; i < count; ++i) {
        if (ranges[i].contains(clamped))
            return i;
    }
    return count - 1;  // 65+ is unbounded, so this is unreachable.
}

} // namespace trace
} // namespace qdel
