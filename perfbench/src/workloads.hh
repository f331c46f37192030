/**
 * @file
 * The benchmark's workloads. Each runs for Options::seconds and fills
 * an Outcome: the end-to-end metrics untraced, the per-layer metrics
 * when Options::trace is set.
 */

#ifndef CCR_PERFBENCH_WORKLOADS_HH
#define CCR_PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

/** Figure 8(a) and 8(b) geometry sweep over the 13 built-in workloads;
 *  @p held_out measures on the ref inputs (Figure 11). */
Outcome runSweep(const Options &options, bool held_out);

/** Compile pipeline over a seeded generated population plus the
 *  corpus `.lc` files. */
Outcome runCompile(const Options &options);

/** In-process ccrd server under a fixed, seeded request mix. */
Outcome runServe(const Options &options);

/** Every per-layer metric name with its unit, in report order. A
 *  traced run prints all of them; a layer the workload does not
 *  exercise reads 0. */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

/** One repetition of a workload's unit of measurement (a sweep pass,
 *  a compile pass, a slice of served requests): its throughput in
 *  operations per second and each operation's latency in seconds. */
struct Repetition
{
    double rate = 0.0;
    std::vector<double> latencies;
};

/** Add the end-to-end throughput, the median over repetitions so a
 *  few seconds of host slowdown move it little, and the median latency
 *  in ms over the pooled samples. The 99th percentile is printed too;
 *  it is not an end-to-end metric, because its run-to-run spread on a
 *  shared 4-core host exceeds any useful bound (see README.md). */
void addRepetitions(Outcome &out, const std::vector<Repetition> &reps);

} // namespace perfbench

#endif // CCR_PERFBENCH_WORKLOADS_HH
