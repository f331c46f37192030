/**
 * @file
 * The `serve` workload: an in-process ccrd server (2 shards x 1 job)
 * driven by 2 closed-loop client connections over a request list that
 * is a pure function of the seed. Most requests repeat a popular
 * (workload, scheme, geometry) signature and hit the result cache; one
 * in 50 carries a geometry no earlier request used and runs a real
 * simulation on a warm ExperimentCache; one in 50 submits a freshly
 * generated `.lc` kernel inline, which goes through the admission lint
 * gate and then runs. The same layers thus serve a cached read, a
 * fresh run and an inline write. The result cache is warmed during
 * set-up, so cache warmth no longer decides the numbers.
 */

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "gen/gen.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "support/random.hh"
#include "trace.hh"
#include "workloads.hh"
#include "workloads/corpus.hh"

namespace perfbench
{

namespace
{

using namespace ccr;
using obs::Json;
using server::Client;

/** One request in this many is a fresh geometry, one an inline
 *  kernel; the rest hit the result cache. */
constexpr std::uint64_t kMixPeriod = 50;
constexpr std::uint64_t kFreshSlot = 0;
constexpr std::uint64_t kInlineSlot = kMixPeriod / 2;

/** Requests per repetition: enough that the 99th percentile has ten
 *  samples beyond it. */
constexpr std::size_t kSlice = 1000;

/** The server's memory grows with every fresh signature and inline
 *  kernel it keeps, so peak RSS is taken once this many requests have
 *  completed, not at the end of a window whose length in requests
 *  depends on the host's speed. */
constexpr std::uint64_t kRssRequests = 10'000;

/** Budget every request asks for (the server clamps to its cap). */
constexpr std::uint64_t kMaxInsts = 5'000'000ULL;

const char *const kSchemes[] = {"crb", "dtm"};

enum class Kind
{
    Hit,
    Fresh,
    Inline
};

struct Inputs
{
    /** Workloads of the popular and fresh requests. */
    std::vector<std::string> workloads;

    /** Population the inline kernels are drawn from, one new kernel
     *  per inline request. */
    gen::GenKnobs inlineKnobs;
    std::uint64_t seed = 0;
    std::uint64_t maxInsts = kMaxInsts;
};

Inputs
makeInputs(const Options &o)
{
    Inputs in;
    in.seed = o.seed;
    if (o.maxInsts != 0)
        in.maxInsts = o.maxInsts;
    in.workloads = workloads::corpusWorkloadNames();
    if (o.tiny && in.workloads.size() > 2)
        in.workloads.resize(2);
    in.inlineKnobs.seed = o.seed * 0x9E3779B97F4A7C15ULL + 0x5e7e;
    return in;
}

/** Popular signature @p p: workload x scheme at default geometry. */
Json
popularSpec(const Inputs &in, std::size_t p)
{
    Json spec = Json::object();
    spec["workload"] = in.workloads[p / 2];
    spec["scheme"] = kSchemes[p % 2];
    spec["maxInsts"] = in.maxInsts;
    return spec;
}

std::size_t
popularCount(const Inputs &in)
{
    return in.workloads.size() * 2;
}

struct Request
{
    Kind kind = Kind::Hit;
    Json spec;
    std::size_t popular = 0;
};

/** Request @p i of the list: a pure function of (seed, i). The cache
 *  hits take the popular signatures round-robin by request index, as
 *  tools/ccrload does over (corpus workload x scheme). */
Request
makeRequest(const Inputs &in, std::uint64_t i)
{
    Request r;
    const std::uint64_t slot = i % kMixPeriod;
    const std::uint64_t k = i / kMixPeriod;
    if (slot == kFreshSlot) {
        // Entries above 128, and a geometry that differs for any 2048
        // consecutive k (more fresh requests than a run sends): no
        // popular or earlier fresh request has this signature.
        Rng rng(in.seed * 0x100000001B3ULL + i);
        r.kind = Kind::Fresh;
        r.spec = Json::object();
        r.spec["workload"] =
            in.workloads[rng.nextBelow(in.workloads.size())];
        r.spec["scheme"] = "crb";
        r.spec["maxInsts"] = in.maxInsts;
        const std::uint64_t g = k + in.seed;
        Json crb = Json::object();
        crb["entries"] = static_cast<std::uint64_t>(136 + 8 * (g % 128));
        crb["instances"] = static_cast<std::uint64_t>(1 + (g / 128) % 16);
        r.spec["crb"] = std::move(crb);
    } else if (slot == kInlineSlot) {
        r.kind = Kind::Inline;
        r.spec = Json::object();
        r.spec["source"] =
            gen::generateKernel(gen::populationKnobs(in.inlineKnobs, k)).text;
        r.spec["display"] = "inline_" + std::to_string(k) + ".lc";
        r.spec["scheme"] = "crb";
        r.spec["maxInsts"] = in.maxInsts;
    } else {
        r.popular = i % popularCount(in);
        r.spec = popularSpec(in, r.popular);
    }
    return r;
}

Json
runRequest(Json spec)
{
    Json req = Client::makeRequest("run", "perfbench");
    Json runs = Json::array();
    runs.push(std::move(spec));
    req["runs"] = std::move(runs);
    return req;
}

/** The run frame of a response, or null when the run failed. */
const Json *
runFrame(const std::vector<Json> &frames)
{
    for (const auto &f : frames)
        if (f.at("type").asString() == "run" && f.at("run").isObject())
            return &f;
    return nullptr;
}

/** A fresh or inline run's own checks: outputs matched and the
 *  scheme's counters add up. */
bool
reportConsistent(const Json &run)
{
    const std::string scheme = run.at("config").at("scheme").asString();
    const Json &m = run.at("metrics");
    return run.at("derived").at("outputsMatch").asBool()
           && m.at(scheme + ".hits").asUint()
                      + m.at(scheme + ".misses").asUint()
                  == m.at(scheme + ".queries").asUint();
}

struct Sample
{
    Kind kind = Kind::Hit;
    bool ok = false;
    bool cached = false;
    double seconds = 0.0;
    double serverSeconds = 0.0;
    double end = 0.0; ///< completion time since the window start
};

/** A started server with its result cache warm. */
struct Instance
{
    std::unique_ptr<server::Server> server;
    std::uint16_t port = 0;

    /** Warm-up report of each popular signature (null when it
     *  failed). */
    std::vector<Json> warm;
};

Instance
startWarm(const Inputs &in)
{
    server::ServerOptions opts;
    opts.shards = 2;
    opts.jobsPerShard = 1;
    // One benchmark tenant drives the whole load; the per-tenant quota
    // would otherwise throttle it.
    opts.limits.quotaRatePerSec = 1e9;
    opts.limits.quotaBurst = 1e9;
    Instance inst;
    inst.server = std::make_unique<server::Server>(opts);
    inst.port = inst.server->start();
    Client client;
    if (!client.connectTo(inst.port))
        return inst;
    for (std::size_t p = 0; p < popularCount(in); ++p) {
        const auto frames = client.call(runRequest(popularSpec(in, p)));
        const Json *f = runFrame(frames);
        inst.warm.push_back(f != nullptr ? f->at("run") : Json());
    }
    return inst;
}

Json
metricsSnapshot(std::uint16_t port)
{
    Client client;
    if (!client.connectTo(port))
        return Json::object();
    const auto frames = client.call(Client::makeRequest("metrics"));
    if (frames.empty() || frames[0].at("type").asString() != "metrics")
        return Json::object();
    return frames[0].at("metrics");
}

/** Sum of the snapshot counters whose names contain @p part, after
 *  minus before. */
double
delta(const Json &before, const Json &after, const std::string &part)
{
    double sum = 0.0;
    for (const auto &[name, v] : after.fields())
        if (name.find(part) != std::string::npos && v.isNumber())
            sum += v.asDouble() - before.at(name).asDouble();
    return sum;
}

struct Window
{
    std::vector<Sample> samples;
    double wall = 0.0;
    std::uint64_t wrong = 0;

    /** Peak RSS when kRssRequests had completed (0: never reached). */
    double rssMb = 0.0;
};

/** Drive @p inst with o.jobs closed-loop connections, taking requests
 *  in list order, until @p seconds pass or @p limit requests were
 *  sent (0: no limit). */
Window
drive(const Options &o, const Inputs &in, const Instance &inst,
      double seconds, std::uint64_t limit, Tracer *tr)
{
    Window w;
    std::mutex mu;
    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> wrong{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<double> rss_mb{0.0};
    const double t0 = now();
    std::vector<std::thread> clients;
    for (int c = 0; c < o.jobs; ++c)
        clients.emplace_back([&] {
            Client client;
            if (!client.connectTo(inst.port))
                return;
            std::vector<Sample> local;
            for (;;) {
                if (limit == 0 && now() - t0 >= seconds)
                    break;
                const std::uint64_t i = next++;
                if (limit != 0 && i >= limit)
                    break;
                const Request req = makeRequest(in, i);
                Sample s;
                s.kind = req.kind;
                const double t = now();
                std::vector<Json> frames;
                {
                    Span span(tr, "server.call", i);
                    frames = client.call(runRequest(req.spec));
                }
                s.seconds = now() - t;
                s.end = now() - t0;
                if (++completed == kRssRequests)
                    rss_mb = peakRssMb();
                if (frames.empty() && !client.connectTo(inst.port))
                    break;
                if (const Json *f = runFrame(frames)) {
                    s.ok = true;
                    s.cached = f->at("cached").asBool();
                    s.serverSeconds = f->at("serverMillis").asDouble() / 1e3;
                    const Json &run = f->at("run");
                    const bool good =
                        req.kind == Kind::Hit
                            ? run == inst.warm[req.popular]
                            : reportConsistent(run);
                    if (!good)
                        ++wrong;
                }
                local.push_back(s);
            }
            std::lock_guard lock(mu);
            w.samples.insert(w.samples.end(), local.begin(), local.end());
        });
    for (auto &t : clients)
        t.join();
    w.wall = now() - t0;
    w.wrong = wrong.load();
    w.rssMb = rss_mb.load();
    return w;
}

void
account(const Window &w, Outcome &out)
{
    out.attempted += w.samples.size();
    for (const auto &s : w.samples)
        if (!s.ok)
            ++out.failed;
    if (w.wrong != 0)
        out.wrong(std::to_string(w.wrong)
                  + " responses disagree with their expected report");
}

/** Median latency of the ok samples of @p kind, in ms. */
double
kindP50(const Window &w, Kind kind)
{
    std::vector<double> xs;
    for (const auto &s : w.samples)
        if (s.ok && s.kind == kind)
            xs.push_back(s.seconds);
    return median(xs) * 1e3;
}

/** The traced run's per-layer metrics: latency by request kind, the
 *  client latency outside the server's run time, and the server-side
 *  `metrics` snapshot taken before and after the window. */
void
layerSplit(const Window &w, const Json &before, const Json &after,
           Outcome &out)
{
    std::vector<double> wire;
    std::size_t kinds[3] = {0, 0, 0};
    std::size_t cached = 0, ok = 0;
    for (const auto &s : w.samples) {
        if (!s.ok)
            continue;
        ++ok;
        ++kinds[static_cast<int>(s.kind)];
        cached += s.cached ? 1 : 0;
        wire.push_back(s.seconds - s.serverSeconds);
    }
    const double runs = delta(before, after, "server.runs.completed")
                        + delta(before, after, "server.runs.cached");
    out.add("server.hit_p50_ms", kindP50(w, Kind::Hit), "ms");
    out.add("server.miss_p50_ms", kindP50(w, Kind::Fresh), "ms");
    out.add("server.inline_p50_ms", kindP50(w, Kind::Inline), "ms");
    out.add("server.wire_ms", median(wire) * 1e3, "ms");
    out.add("server.result_cache_hit_ratio",
            ratio(delta(before, after, "server.runs.cached"), runs), "ratio");
    out.add("server.admission_rejects",
            delta(before, after, "server.admission.rejects"), "count");
    const auto hit_ratio = [&](const char *stage) {
        const std::string s = std::string(".cache.") + stage;
        const double hits = delta(before, after, s + ".hits");
        return ratio(hits, hits + delta(before, after, s + ".misses"));
    };
    out.add("workloads.cache.module_hit_ratio", hit_ratio("module"), "ratio");
    out.add("workloads.cache.profile_hit_ratio", hit_ratio("profile"),
            "ratio");
    out.add("workloads.cache.base_hit_ratio", hit_ratio("baseRun"), "ratio");

    out.note("serve: ok responses " + std::to_string(ok) + ": "
             + std::to_string(kinds[0]) + " cache hits, "
             + std::to_string(kinds[1]) + " fresh runs, "
             + std::to_string(kinds[2]) + " inline; "
             + std::to_string(cached) + " flagged cached");
    for (const auto &[name, v] : after.fields())
        if (name.rfind("server.shard.", 0) == 0 && v.isNumber())
            out.note("metrics: " + name + " = "
                     + fmt(v.asDouble() - before.at(name).asDouble()));
}

} // namespace

Outcome
runServe(const Options &o)
{
    Outcome out;
    const Inputs in = makeInputs(o);

    // Set-up: start a server and warm its result cache with every
    // popular signature; three times, keeping the last instance.
    std::vector<double> setups;
    Instance inst;
    for (int i = 0; i < 3; ++i) {
        if (inst.server)
            inst.server->stop();
        const double t = now();
        inst = startWarm(in);
        setups.push_back(now() - t);
    }
    for (const Json &warm : inst.warm)
        if (warm.isNull())
            out.note("warm-up: a popular signature failed");

    const Window w = drive(o, in, inst, o.seconds, 0, nullptr);
    inst.server->stop();
    account(w, out);

    if (o.trace) {
        // The same requests again, on a fresh warm server, each call
        // in a span; the ratio of the two wall times is the tracing
        // overhead.
        Instance traced = startWarm(in);
        Tracer tracer;
        const Json tb = metricsSnapshot(traced.port);
        const Window tw =
            drive(o, in, traced, 0.0, w.samples.size(), &tracer);
        const Json ta = metricsSnapshot(traced.port);
        traced.server->stop();
        account(tw, out);
        layerSplit(tw, tb, ta, out);
        out.add("trace.overhead_ratio", ratio(tw.wall, w.wall), "ratio");
        out.note("trace: overhead = " + fmt(tw.wall) + " s traced / "
                 + fmt(w.wall) + " s untraced for "
                 + std::to_string(w.samples.size()) + " requests");
        if (!o.traceOut.empty() && !tracer.write(o.traceOut))
            out.wrong("cannot write trace to " + o.traceOut);
        return out;
    }

    // Two more set-ups after the window, so that the median samples the
    // host's drifting speed at both ends of the run.
    for (int i = 0; i < 2; ++i) {
        const double t = now();
        const Instance again = startWarm(in);
        setups.push_back(now() - t);
        again.server->stop();
    }

    // Repetitions are consecutive slices of kSlice requests in
    // completion order: each slice's ok rate and latencies.
    std::vector<Sample> done = w.samples;
    std::sort(done.begin(), done.end(),
              [](const Sample &a, const Sample &b) { return a.end < b.end; });
    std::vector<Repetition> reps;
    std::size_t ok = 0;
    double slice_start = 0.0;
    for (std::size_t i = 0; i + kSlice <= done.size(); i += kSlice) {
        Repetition rep;
        std::size_t slice_ok = 0;
        for (std::size_t j = i; j < i + kSlice; ++j) {
            rep.latencies.push_back(done[j].seconds);
            slice_ok += done[j].ok ? 1 : 0;
        }
        const double slice_end = done[i + kSlice - 1].end;
        rep.rate = static_cast<double>(slice_ok) / (slice_end - slice_start);
        slice_start = slice_end;
        reps.push_back(std::move(rep));
    }
    for (const auto &s : done)
        ok += s.ok ? 1 : 0;
    if (reps.empty()) { // fewer requests than one slice: one repetition
        Repetition all{static_cast<double>(ok) / w.wall, {}};
        for (const auto &s : done)
            all.latencies.push_back(s.seconds);
        reps.push_back(std::move(all));
    }
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", w.rssMb > 0.0 ? w.rssMb : peakRssMb(), "MB");
    out.note("peak_rss_mb taken after "
             + std::to_string(w.rssMb > 0.0 ? kRssRequests : done.size())
             + " requests");
    addRepetitions(out, reps);
    const double ok_rps = out.value("ops_per_s");
    out.show("serve.ok_rps", ok_rps, "1/s");
    out.note("serve: " + std::to_string(ok) + " ok of "
             + std::to_string(w.samples.size()) + " requests in "
             + fmt(w.wall) + " s");
    out.show("serve.p50_ms", out.value("p50_ms"), "ms");
    out.show("serve.fail_ratio",
             ratio(static_cast<double>(out.failed),
                   static_cast<double>(out.attempted)),
             "ratio");
    return out;
}

} // namespace perfbench
