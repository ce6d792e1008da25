/**
 * @file
 * The benchmark's workloads. Each runs repetitions of one complete
 * workload (fresh stack, warm-up, measured phase, checks) at the
 * given seed until the time budget is spent, and reports medians
 * over the repetitions.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "harness.hh"

namespace perfbench {

/** dbt2, specweb99 and financial1 through SystemSimulator. */
bool isServeWorkload(const std::string& name);
void runServe(const Options& opts, Report& report);

/** Real-data FlashCache stack with a power cut and recover(). */
void runCrashRecover(const Options& opts, Report& report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
