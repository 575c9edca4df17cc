#include "dram/dram.h"

#include <algorithm>

#include "support/logging.h"

namespace sara::dram {

DramSpec
DramSpec::hbm2()
{
    DramSpec s;
    s.name = "hbm2-1tbps";
    s.channels = 8;
    s.bytesPerCycle = 128.0;
    s.interleave = 256;
    s.rowBytes = 2048;
    s.rowHitLatency = 30;
    s.rowMissLatency = 70;
    s.burstBytes = 64;
    return s;
}

DramSpec
DramSpec::ddr3()
{
    DramSpec s;
    s.name = "ddr3-49gbps";
    s.channels = 4;
    s.bytesPerCycle = 12.25;
    s.interleave = 512;
    s.rowBytes = 8192;
    s.rowHitLatency = 45;
    s.rowMissLatency = 120;
    s.burstBytes = 64;
    return s;
}

DramModel::DramModel(DramSpec spec) : spec_(std::move(spec))
{
    SARA_ASSERT(spec_.channels > 0 && spec_.bytesPerCycle > 0,
                "bad dram spec");
    channels_.resize(spec_.channels);
}

DramResult
DramModel::access(uint64_t byteAddr, uint32_t bytes, uint64_t now)
{
    bytes = std::max(bytes, spec_.burstBytes);
    size_t ch = (byteAddr / spec_.interleave) % spec_.channels;
    Channel &c = channels_[ch];
    uint64_t row = byteAddr / spec_.rowBytes;

    bool hit = (c.openRow == row);
    int lat = hit ? spec_.rowHitLatency : spec_.rowMissLatency;
    double start = std::max(static_cast<double>(now), c.freeAt);
    double transfer = bytes / spec_.bytesPerCycle;
    c.freeAt = start + transfer;
    c.openRow = row;
    c.busy += transfer;

    ++requests_;
    bytesTransferred_ += bytes;
    if (hit)
        ++rowHits_;

    DramResult r;
    r.completeAt = static_cast<uint64_t>(start + lat + transfer) + 1;
    return r;
}

uint64_t
DramModel::busyCycles() const
{
    double total = 0;
    for (const auto &c : channels_)
        total += c.busy;
    return static_cast<uint64_t>(total);
}

double
DramModel::achievedBytesPerCycle(uint64_t endCycle) const
{
    if (endCycle == 0)
        return 0.0;
    return static_cast<double>(bytesTransferred_) /
           static_cast<double>(endCycle);
}

} // namespace sara::dram
