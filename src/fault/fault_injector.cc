/**
 * @file
 * FaultInjector decision engine (see fault_injector.hh).
 */

#include "fault/fault_injector.hh"

#include "util/log.hh"

namespace flashcache {

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan), rng_(plan.seed)
{
    if (plan_.programFailRate < 0.0 || plan_.programFailRate > 1.0 ||
        plan_.eraseFailRate < 0.0 || plan_.eraseFailRate > 1.0 ||
        plan_.readFaultRate < 0.0 || plan_.readFaultRate > 1.0)
        fatal("fault plan rates must lie in [0, 1]");
}

void
FaultInjector::deliverPowerCut()
{
    powerLost_ = true;
    ++stats_.powerCuts;
    throw PowerLossException{ops_};
}

void
FaultInjector::opStart()
{
    if (powerLost_)
        panic("flash operation issued after power loss");
    ++ops_;
    if (plan_.powerCutAtOp != 0 && ops_ == plan_.powerCutAtOp)
        deliverPowerCut();
}

ProgramFault
FaultInjector::onProgram()
{
    ++programs_;
    if (plan_.powerCutAtProgram != 0 && programs_ == plan_.powerCutAtProgram) {
        // Counted here; the device persists the torn prefix and then
        // rethrows power loss via deliverPowerCut() semantics below.
        powerLost_ = true;
        ++stats_.powerCuts;
        return ProgramFault::PowerCut;
    }
    if (plan_.programFailAt != 0 && programs_ == plan_.programFailAt) {
        ++stats_.programFails;
        return ProgramFault::StatusFail;
    }
    if (plan_.programFailRate > 0.0 && rng_.bernoulli(plan_.programFailRate)) {
        ++stats_.programFails;
        return ProgramFault::StatusFail;
    }
    return ProgramFault::None;
}

bool
FaultInjector::onErase()
{
    ++erases_;
    if (plan_.eraseFailAt != 0 && erases_ == plan_.eraseFailAt) {
        ++stats_.eraseFails;
        return true;
    }
    if (plan_.eraseFailRate > 0.0 && rng_.bernoulli(plan_.eraseFailRate)) {
        ++stats_.eraseFails;
        return true;
    }
    return false;
}

unsigned
FaultInjector::onRead()
{
    if (plan_.readFaultRate <= 0.0 || !rng_.bernoulli(plan_.readFaultRate))
        return 0;
    const unsigned bits =
        1 + static_cast<unsigned>(
                rng_.uniformInt(plan_.readFaultBits > 0 ? plan_.readFaultBits
                                                        : 1));
    ++stats_.readFaults;
    stats_.readFaultBits += bits;
    return bits;
}

std::size_t
FaultInjector::tornBytes(std::size_t total)
{
    if (total == 0)
        return 0;
    double f = plan_.tornFraction;
    if (f < 0.0)
        f = rng_.uniform();
    if (f >= 1.0)
        f = 1.0;
    std::size_t n = static_cast<std::size_t>(f * static_cast<double>(total));
    // A torn page must be detectably incomplete: persist strictly
    // fewer bytes than the full payload.
    if (n >= total)
        n = total - 1;
    return n;
}

void
FaultInjector::registerMetrics(obs::MetricRegistry& reg) const
{
    reg.counter("fault.program_fails", "injected program-status failures",
                &stats_.programFails);
    reg.counter("fault.erase_fails", "injected erase failures",
                &stats_.eraseFails);
    reg.counter("fault.read_faults", "injected transient read events",
                &stats_.readFaults);
    reg.counter("fault.read_fault_bits",
                "total extra bit errors injected into reads",
                &stats_.readFaultBits);
    reg.counter("fault.power_cuts", "power cuts delivered",
                &stats_.powerCuts);
    reg.counter("fault.torn_pages", "pages left torn on the medium",
                &stats_.tornPages);
}

} // namespace flashcache
