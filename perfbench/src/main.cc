/**
 * @file
 * ccr_perfbench: runs one benchmark workload and prints its metrics.
 *
 *   ccr_perfbench --workload sweep|sweep-ref|compile|serve
 *                 [--seed N] [--seconds S] [--trace 0|1]
 *                 [--tiny] [--max-insts N] [--trace-out PATH]
 *
 * Human-readable lines come first; the last line of stdout is one
 * JSON object {"correct", "attempted", "failed", "metrics"}. Untraced,
 * the metrics are the end-to-end set; with --trace 1 they are the
 * per-layer set, taken from a separate traced run of the workload.
 */

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "obs/json.hh"
#include "support/logging.hh"
#include "workloads.hh"

namespace perfbench
{

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> kList = {
        {"workloads.build_ms", "ms"},
        {"workloads.cache.module_hit_ratio", "ratio"},
        {"workloads.cache.profile_hit_ratio", "ratio"},
        {"workloads.cache.base_hit_ratio", "ratio"},
        {"text.parse_ms", "ms"},
        {"text.parse_mb_per_s", "MB/s"},
        {"ir.verify_ms", "ms"},
        {"opt.pipeline_ms", "ms"},
        {"opt.insts_removed", "count"},
        {"profile.run_ms", "ms"},
        {"profile.minst_per_s", "Minst/s"},
        {"analysis.alias_ms", "ms"},
        {"core.form_ms", "ms"},
        {"core.regions_formed", "count"},
        {"core.seeds_rejected", "count"},
        {"lint.module_ms", "ms"},
        {"lint.crosscheck_ms", "ms"},
        {"lint.errors", "count"},
        {"emu.run_minst_per_s", "Minst/s"},
        {"reuse.run_ms", "ms"},
        {"reuse.crb.queries", "count"},
        {"reuse.crb.hit_ratio", "ratio"},
        {"reuse.dtm.queries", "count"},
        {"reuse.dtm.hit_ratio", "ratio"},
        {"uarch.base_run_ms", "ms"},
        {"uarch.ccr_run_ms", "ms"},
        {"uarch.model_ns_per_inst", "ns"},
        {"uarch.base_cycles", "count"},
        {"uarch.ccr_cycles", "count"},
        {"obs.report_ms", "ms"},
        {"server.hit_p50_ms", "ms"},
        {"server.miss_p50_ms", "ms"},
        {"server.inline_p50_ms", "ms"},
        {"server.wire_ms", "ms"},
        {"server.result_cache_hit_ratio", "ratio"},
        {"server.admission_rejects", "count"},
        {"trace.closure_ratio", "ratio"},
        {"trace.overhead_ratio", "ratio"},
    };
    return kList;
}

void
addRepetitions(Outcome &out, const std::vector<Repetition> &reps)
{
    std::vector<double> rates, pooled;
    for (const Repetition &r : reps) {
        rates.push_back(r.rate);
        pooled.insert(pooled.end(), r.latencies.begin(), r.latencies.end());
    }
    out.add("ops_per_s", median(rates), "1/s");
    out.add("p50_ms", percentile(pooled, 0.50) * 1e3, "ms");
    out.show("p99_ms", percentile(pooled, 0.99) * 1e3, "ms");
    out.note("ops_per_s is the median of " + std::to_string(reps.size())
             + " repetitions; latency percentiles pool "
             + std::to_string(pooled.size()) + " samples");
}

} // namespace perfbench

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "ccr_perfbench: " << why
              << "\nusage: ccr_perfbench --workload "
                 "sweep|sweep-ref|compile|serve [--seed N] [--seconds S]"
                 " [--trace 0|1] [--tiny] [--max-insts N]"
                 " [--trace-out PATH]\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                o.workload = value();
            else if (arg == "--seed")
                o.seed = std::stoull(value());
            else if (arg == "--seconds")
                o.seconds = std::stod(value());
            else if (arg == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (arg == "--tiny")
                o.tiny = true;
            else if (arg == "--max-insts")
                o.maxInsts = std::stoull(value());
            else if (arg == "--trace-out")
                o.traceOut = value();
            else
                usage("unknown argument " + arg);
        } catch (const std::exception &) {
            usage("bad value for " + arg);
        }
    }
    if (o.seconds <= 0.0)
        usage("--seconds must be positive");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    ccr::setVerbose(false);
    const Options o = parse(argc, argv);

    Outcome out;
    if (o.workload == "sweep")
        out = runSweep(o, false);
    else if (o.workload == "sweep-ref")
        out = runSweep(o, true);
    else if (o.workload == "compile")
        out = runCompile(o);
    else if (o.workload == "serve")
        out = runServe(o);
    else
        usage("unknown workload '" + o.workload + "'");

    using ccr::obs::Json;
    Json metrics = Json::object();
    std::map<std::string, std::pair<double, std::string>> reported;
    for (const Metric &m : out.metrics)
        reported[m.name] = {m.value, m.unit};
    const auto emit = [&](const std::string &name, double value,
                          const std::string &unit) {
        Json entry = Json::object();
        entry["value"] = value;
        entry["unit"] = unit;
        metrics[name] = std::move(entry);
        std::cout << name << " = " << fmt(value) << " " << unit << "\n";
    };
    if (o.trace) {
        for (const auto &[name, unit] : layerMetrics()) {
            const auto it = reported.find(name);
            emit(name, it == reported.end() ? 0.0 : it->second.first, unit);
        }
    } else {
        for (const Metric &m : out.metrics)
            emit(m.name, m.value, m.unit);
    }
    for (const auto &line : out.lines)
        std::cout << line << "\n";

    Json result = Json::object();
    result["correct"] = out.correct;
    result["attempted"] = out.attempted;
    result["failed"] = out.failed;
    result["metrics"] = std::move(metrics);
    std::cout << result.dump() << std::endl;
    return 0;
}
