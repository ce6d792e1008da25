#include "devices/disk.hh"

#include "obs/metrics.hh"

namespace flashcache {

DiskModel::DiskModel(const DiskSpec& spec, std::uint64_t seed)
    : spec_(spec), rng_(seed)
{
}

void
DiskModel::registerMetrics(obs::MetricRegistry& reg) const
{
    reg.counter("disk.accesses", "disk accesses", &accesses_);
    reg.counter("disk.busy", "disk busy seconds", &busy_);
}

Seconds
DiskModel::access(Lba lba, bool sequential)
{
    Seconds lat;
    if (sequential || (seqValid_ && lba == lastLba_ + 1)) {
        // Head already positioned: rotational + transfer only.
        lat = spec_.avgAccessLatency * 0.15;
    } else {
        // Spread seeks uniformly in [0.5, 1.5] x average so the mean
        // matches the Table 3 figure.
        lat = spec_.avgAccessLatency * rng_.uniform(0.5, 1.5);
    }
    lastLba_ = lba;
    seqValid_ = true;
    ++accesses_;
    busy_ += lat;
    if (demands_)
        demands_->record(sched::ResourceKind::Disk, 0, lat);
    return lat;
}

Joules
DiskModel::energyOver(Seconds wall_clock) const
{
    const Seconds idle = wall_clock > busy_ ? wall_clock - busy_ : 0.0;
    return busy_ * spec_.activePower + idle * spec_.idlePower;
}

} // namespace flashcache
