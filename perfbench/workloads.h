/**
 * @file
 * The benchmark's three workloads (perfbench/README.md). Each opens
 * its sessions, then runs the closed/open-loop schedule of harness.h,
 * checking every answer. Each fills `e2e` with every end-to-end
 * metric; a traced run also fills `layers` with the per-layer metrics
 * the workload exercises.
 */
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/** Every suite matrix opened cold on the functional engine, then
 *  time-stepped solves on the calling thread. */
void RunColdOpen(const RunArgs& args, Tracer& tracer, Outcome& outcome,
                 Metrics& e2e, Metrics& layers);

/** An AzulFleet serving eight tenants a mix of solves and value
 *  updates against a pre-filled mapping cache. */
void RunServeMixed(const RunArgs& args, Tracer& tracer, Outcome& outcome,
                   Metrics& e2e, Metrics& layers);

/** Fixed-iteration solves on the cycle engine, checked bit for bit
 *  against the functional engine. */
void RunCycleSim(const RunArgs& args, Tracer& tracer, Outcome& outcome,
                 Metrics& e2e, Metrics& layers);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
