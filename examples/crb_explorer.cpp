/**
 * @file
 * CRB design-space explorer: sweep entries x instances for one
 * workload and print the speedup grid plus hit rates — the quickest
 * way to see how a workload's input working set interacts with the
 * buffer geometry. The 15-point grid runs on the parallel experiment
 * driver, so the module build, training profile, and base timed run
 * are shared across all points.
 *
 * Usage: crb_explorer [workload-name] [--jobs N] [--report out.json]
 */

#include <cstdlib>
#include <iostream>

#include "obs/report.hh"
#include "support/logging.hh"
#include "support/table.hh"
#include "workloads/driver.hh"

int
main(int argc, char **argv)
{
    using namespace ccr;

    setVerbose(false);
    std::string name = "pgpencode";
    workloads::DriverOptions opts;
    if (const char *env = std::getenv("CCR_REPORT"); env && *env)
        opts.reportPath = env;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if ((arg == "--jobs" || arg == "-j") && i + 1 < argc) {
            opts.jobs = std::atoi(argv[++i]);
            if (opts.jobs < 1)
                ccr_fatal("bad --jobs value '", argv[i], "'");
        } else if (arg == "--report" && i + 1 < argc) {
            opts.reportPath = argv[++i];
        } else {
            name = arg;
        }
    }

    const std::vector<int> entries{8, 32, 128};
    const std::vector<int> instances{1, 2, 4, 8, 16};

    std::cout << "== CRB design space for " << name << " ==\n\n";

    workloads::RunPlan plan;
    for (const auto e : entries) {
        for (const auto ci : instances) {
            workloads::RunConfig config;
            config.crb.entries = e;
            config.crb.instances = ci;
            plan.add(name, config);
        }
    }
    if (opts.scheme)
        plan.setScheme(*opts.scheme);
    const auto results = workloads::runPlan(plan, opts);

    Table speedups("speedup (rows: entries, cols: instances)");
    Table hits("CRB hit rate");
    std::vector<std::string> header{"entries\\CIs"};
    for (const auto ci : instances)
        header.push_back(std::to_string(ci));
    speedups.setHeader(header);
    hits.setHeader(header);

    std::size_t next = 0;
    for (const auto e : entries) {
        std::vector<std::string> srow{std::to_string(e)};
        std::vector<std::string> hrow{std::to_string(e)};
        for (std::size_t i = 0; i < instances.size(); ++i) {
            const auto &r = results[next++];
            srow.push_back(Table::fmt(r.speedup(), 3));
            hrow.push_back(Table::pct(
                r.report.derived.at("schemeHitRate").asDouble(), 0));
        }
        speedups.addRow(srow);
        hits.addRow(hrow);
    }

    if (!opts.reportPath.empty()) {
        std::string err;
        const auto report = workloads::buildSimReport(plan, results);
        if (!report.writeJsonFile(opts.reportPath, &err))
            ccr_fatal("cannot write SimReport: ", err);
        std::cerr << "report: " << report.runs.size() << " runs -> "
                  << opts.reportPath << "\n";
    }

    speedups.print(std::cout);
    std::cout << "\n";
    hits.print(std::cout);
    std::cout << "\nReading the grid: a working set wider than the CI "
                 "count caps the hit rate\n(the Figure 8(a) effect); "
                 "entry-count limits only bite when the program\nhas "
                 "more hot regions than entries (the Figure 8(b) "
                 "effect).\n";
    return 0;
}
