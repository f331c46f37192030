#include "workloads/cache.hh"

#include <sstream>

#include "ir/verifier.hh"
#include "opt/passes.hh"
#include "support/logging.hh"
#include "workloads/harness.hh"

namespace ccr::workloads
{

namespace
{

std::string
moduleKey(const std::string &name, bool optimized)
{
    return name + (optimized ? "|opt" : "|plain");
}

std::string
inputKey(InputSet set)
{
    return set == InputSet::Train ? "train" : "ref";
}

/** Every PipelineParams field, flattened; two configs with the same
 *  key time identically. */
std::string
pipeKey(const uarch::PipelineParams &p)
{
    std::ostringstream os;
    os << p.issueWidth << ',' << p.intAlus << ',' << p.memPorts << ','
       << p.fpAlus << ',' << p.branchUnits << ','
       << p.icache.sizeBytes << ',' << p.icache.lineBytes << ','
       << p.icache.assoc << ',' << p.icache.missPenalty << ','
       << p.dcache.sizeBytes << ',' << p.dcache.lineBytes << ','
       << p.dcache.assoc << ',' << p.dcache.missPenalty << ','
       << p.bpred.btbEntries << ',' << p.bpred.mispredictPenalty << ','
       << p.reuseFailPenalty << ',' << p.reuseValidateLatency << ','
       << p.reuseOutputWritesPerCycle << ','
       << (p.speculativeValidation ? 1 : 0);
    return os.str();
}

/**
 * Single-flight lookup: the first requester of @p key installs a
 * future and computes the value; concurrent requesters block on that
 * future instead of recomputing.
 */
template <typename T, typename Map, typename Build>
std::shared_ptr<const T>
lookupOrBuild(std::shared_mutex &mu, Map &map, const std::string &key,
              std::atomic<std::uint64_t> &hits,
              std::atomic<std::uint64_t> &misses, Build &&build)
{
    {
        std::shared_lock lock(mu);
        const auto it = map.find(key);
        if (it != map.end()) {
            auto fut = it->second;
            lock.unlock();
            ++hits;
            return fut.get();
        }
    }

    std::promise<std::shared_ptr<const T>> promise;
    std::shared_future<std::shared_ptr<const T>> fut;
    bool builder = false;
    {
        std::unique_lock lock(mu);
        const auto it = map.find(key);
        if (it != map.end()) {
            fut = it->second;
        } else {
            fut = promise.get_future().share();
            map.emplace(key, fut);
            builder = true;
        }
    }

    if (!builder) {
        ++hits;
        return fut.get();
    }

    ++misses;
    try {
        promise.set_value(build());
    } catch (...) {
        promise.set_exception(std::current_exception());
    }
    return fut.get();
}

/** Fill @p data's counter snapshots from a just-finished base
 *  pipeline's registry. */
void
snapshotBaseCounters(BaseRunData &data, const uarch::Pipeline &pipe)
{
    const obs::MetricRegistry &m = pipe.metrics();
    data.icacheMisses = m.get("icache.misses");
    data.dcacheMisses = m.get("dcache.misses");
    data.branchMispredicts = m.get("pipe.branchMispredicts");
}

} // namespace

std::shared_ptr<const Workload>
ExperimentCache::moduleTemplate(const std::string &name, bool optimized)
{
    return lookupOrBuild<Workload>(
        mu_, modules_, moduleKey(name, optimized), moduleHits_,
        moduleMisses_, [&] {
            auto w = std::make_shared<Workload>(buildWorkload(name));
            if (optimized)
                opt::runStandardPipeline(*w->module);
            ir::verifyOrDie(*w->module);
            return std::shared_ptr<const Workload>(std::move(w));
        });
}

Workload
ExperimentCache::workload(const std::string &name, bool optimized)
{
    const auto tmpl = moduleTemplate(name, optimized);
    Workload w;
    w.name = tmpl->name;
    w.module = tmpl->module->clone();
    w.prepare = tmpl->prepare;
    w.outputGlobals = tmpl->outputGlobals;
    return w;
}

std::shared_ptr<const profile::ProfileData>
ExperimentCache::profile(const std::string &name, bool optimized,
                         InputSet set, std::uint64_t max_insts)
{
    const std::string key = moduleKey(name, optimized) + "|"
                            + inputKey(set) + "|"
                            + std::to_string(max_insts);
    return lookupOrBuild<profile::ProfileData>(
        mu_, profiles_, key, profileHits_, profileMisses_, [&] {
            const Workload w = workload(name, optimized);
            return std::make_shared<const profile::ProfileData>(
                profileWorkload(w, set, max_insts));
        });
}

std::shared_ptr<const BaseRunData>
ExperimentCache::baseRun(const std::string &name, bool optimized,
                         InputSet set,
                         const uarch::PipelineParams &pipe,
                         std::uint64_t max_insts)
{
    const std::string key = moduleKey(name, optimized) + "|"
                            + inputKey(set) + "|"
                            + std::to_string(max_insts) + "|"
                            + pipeKey(pipe);
    return lookupOrBuild<BaseRunData>(
        mu_, baseRuns_, key, baseRunHits_, baseRunMisses_, [&] {
            const Workload w = workload(name, optimized);
            emu::Machine machine(*w.module);
            w.prepare(machine, set);
            uarch::Pipeline timing(pipe);
            auto data = std::make_shared<BaseRunData>();
            data->timing = timing.run(machine, max_insts);
            data->completed = machine.halted();
            snapshotBaseCounters(*data, timing);
            if (data->completed)
                data->outputs = readOutputs(machine, w);
            return std::shared_ptr<const BaseRunData>(std::move(data));
        });
}

void
ExperimentCache::clear()
{
    std::unique_lock lock(mu_);
    modules_.clear();
    profiles_.clear();
    baseRuns_.clear();
}

ExperimentCache::Stats
ExperimentCache::stats() const
{
    Stats s;
    s.moduleHits = moduleHits_.load();
    s.moduleMisses = moduleMisses_.load();
    s.profileHits = profileHits_.load();
    s.profileMisses = profileMisses_.load();
    s.baseRunHits = baseRunHits_.load();
    s.baseRunMisses = baseRunMisses_.load();
    return s;
}

ExperimentCache &
ExperimentCache::global()
{
    static ExperimentCache cache;
    return cache;
}

} // namespace ccr::workloads
