#include "server/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>

#include "support/logging.hh"
#include "workloads/cache.hh"
#include "workloads/corpus.hh"
#include "workloads/driver.hh"

namespace ccr::server
{

namespace
{

double
nowMillis()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

/** One client connection. Writes are serialized through writeMu so
 *  concurrently-completing runs never interleave frames. The handler
 *  thread lives here so the accept loop can reap finished
 *  connections; `done` flips when the handler returns (after
 *  shutting the socket down, so the peer sees EOF immediately rather
 *  than at server stop). */
struct Server::Connection
{
    int fd = -1;
    std::mutex writeMu;
    std::thread handler;
    std::atomic<bool> done{false};

    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool
    sendJson(const obs::Json &json)
    {
        const std::string payload = json.dump();
        std::lock_guard lock(writeMu);
        return writeFrame(fd, payload);
    }
};

/** Completion tracking of one in-flight run request. */
struct Server::RequestSync
{
    std::shared_ptr<Connection> conn;
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining = 0;
    std::size_t completed = 0;
    std::size_t rejected = 0;

    void
    finishOne(bool ok)
    {
        std::lock_guard lock(mu);
        (ok ? completed : rejected) += 1;
        remaining -= 1;
        if (remaining == 0)
            cv.notify_all();
    }

    void
    wait()
    {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return remaining == 0; });
    }
};

/** One admitted run, en route to a shard (or attached to an
 *  in-flight leader). */
struct Server::Job
{
    std::shared_ptr<RequestSync> sync;
    std::size_t index = 0; ///< request-local run index
    std::string workload;
    workloads::RunConfig config;
    std::string signature;
    std::string batch;
};

/** Single-flight result-cache entry. The leader (first job with this
 *  signature) computes; followers queue here and are serviced on
 *  completion. */
struct Server::CachedRun
{
    std::mutex mu;
    bool done = false;
    obs::Json report; ///< RunReport JSON, valid once done
    std::vector<Job> waiters;
};

struct Server::Shard
{
    int id = 0;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Job> queue;
    workloads::ExperimentCache cache;
    std::thread dispatcher;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      admission_(options_.limits, options_.clock)
{
    if (options_.shards < 1)
        options_.shards = 1;
    if (options_.jobsPerShard < 1)
        options_.jobsPerShard = 1;
}

Server::~Server()
{
    stop();
}

std::uint16_t
Server::start()
{
    ccr_assert(!running_.load(), "server already started");

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        ccr_fatal("ccrd: socket() failed");
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr))
        != 0)
        ccr_fatal("ccrd: cannot bind 127.0.0.1:", options_.port);
    if (::listen(listenFd_, 64) != 0)
        ccr_fatal("ccrd: listen() failed");

    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                  &len);
    port_ = ntohs(addr.sin_port);

    for (const auto &name : workloads::allWorkloadNames())
        builtinNames_.insert(name);

    shards_.clear();
    for (int s = 0; s < options_.shards; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->id = s;
        shards_.push_back(std::move(shard));
    }

    running_.store(true);
    stopping_.store(false);
    for (auto &shard : shards_)
        shard->dispatcher =
            std::thread([this, &shard] { dispatchLoop(*shard); });
    acceptor_ = std::thread([this] { acceptLoop(); });
    return port_;
}

void
Server::stop()
{
    if (!running_.exchange(false))
        return;
    stopping_.store(true);

    // Unblock the acceptor, and close the socket only once it has
    // returned: it reads listenFd_ until then.
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptor_.joinable())
        acceptor_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }

    // Wake the dispatchers; they fail any queued jobs and exit.
    for (auto &shard : shards_) {
        shard->cv.notify_all();
        if (shard->dispatcher.joinable())
            shard->dispatcher.join();
    }

    // Unblock handler threads stuck in recv(), then join them.
    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard lock(connMutex_);
        conns.swap(connections_);
    }
    for (auto &conn : conns)
        if (conn->fd >= 0)
            ::shutdown(conn->fd, SHUT_RDWR);
    for (auto &conn : conns)
        if (conn->handler.joinable())
            conn->handler.join();
}

void
Server::acceptLoop()
{
    while (!stopping_.load()) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load())
                break;
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        std::lock_guard lock(connMutex_);
        if (stopping_.load())
            break; // conn dtor closes fd
        // Reap connections whose handler already returned, so a
        // long-lived server does not accumulate dead sockets.
        for (auto it = connections_.begin();
             it != connections_.end();) {
            if ((*it)->done.load()) {
                if ((*it)->handler.joinable())
                    (*it)->handler.join();
                it = connections_.erase(it);
            } else {
                ++it;
            }
        }
        connections_.push_back(conn);
        conn->handler =
            std::thread([this, conn] { handleConnection(conn); });
        bumpCounter("server.connections");
    }
}

void
Server::handleConnection(std::shared_ptr<Connection> conn)
{
    std::string payload;
    while (!stopping_.load()) {
        FrameStatus status =
            readFrame(conn->fd, options_.maxFrameBytes, payload);
        if (status == FrameStatus::Closed
            || status == FrameStatus::Truncated
            || status == FrameStatus::IoError)
            break;
        bumpCounter("server.frames");

        if (status == FrameStatus::Oversized
            || status == FrameStatus::BadLength) {
            // The stream position is unrecoverable past a bad
            // length prefix: report and drop the connection.
            bumpCounter("server.admission.rejects.protocol");
            conn->sendJson(errorResponse(
                "proto.frame",
                {ir::makeError(std::string("proto.frame.")
                                   + frameStatusName(status),
                               "rejected frame: "
                                   + std::string(
                                       frameStatusName(status)))}));
            break;
        }

        std::string parse_err;
        auto json = obs::Json::parse(payload, &parse_err);
        if (!json) {
            bumpCounter("server.admission.rejects.protocol");
            conn->sendJson(errorResponse(
                "proto.json",
                {ir::makeError("proto.json",
                               "malformed JSON: " + parse_err)}));
            continue; // frame boundary intact; keep the connection
        }

        Request request;
        std::vector<ir::Diagnostic> diags;
        if (!parseRequest(*json, options_.maxRunsPerRequest, request,
                          diags)) {
            bumpCounter("server.admission.rejects.protocol");
            conn->sendJson(errorResponse("proto.request", diags));
            continue;
        }

        bumpCounter("server.requests");
        handleRequest(conn, request);
        if (request.type == RequestType::Shutdown)
            break;
    }

    // Drop the TCP stream now so the peer sees EOF at the protocol
    // boundary instead of at server stop. The fd itself is closed by
    // the Connection destructor; deliveries still in flight for this
    // connection fail their writes harmlessly.
    ::shutdown(conn->fd, SHUT_RDWR);
    conn->done.store(true);
}

void
Server::handleRequest(const std::shared_ptr<Connection> &conn,
                      const Request &request)
{
    switch (request.type) {
    case RequestType::Run:
        handleRunRequest(conn, request);
        return;
    case RequestType::List: {
        obs::Json names = obs::Json::array();
        for (const auto &name : builtinNames_)
            names.push(name);
        obs::Json out = responseHeader("list");
        out["workloads"] = std::move(names);
        conn->sendJson(out);
        return;
    }
    case RequestType::Metrics: {
        obs::Json out = responseHeader("metrics");
        out["metrics"] = metricsJson();
        conn->sendJson(out);
        return;
    }
    case RequestType::Shutdown: {
        if (!options_.allowRemoteShutdown) {
            conn->sendJson(errorResponse(
                "server.shutdown.forbidden",
                {ir::makeError("server.shutdown.forbidden",
                               "remote shutdown is disabled")}));
            return;
        }
        // Flag first: a client that saw the ack must observe
        // shutdownRequested() == true.
        shutdownRequested_.store(true);
        conn->sendJson(responseHeader("shutdown-ack"));
        return;
    }
    }
}

void
Server::handleRunRequest(const std::shared_ptr<Connection> &conn,
                         const Request &request)
{
    const double t0 = nowMillis();

    std::vector<ir::Diagnostic> quota_diags;
    if (!admission_.admitQuota(
            request.tenant,
            static_cast<double>(request.runs.size()),
            quota_diags)) {
        bumpCounter("server.admission.rejects.quota");
        conn->sendJson(
            errorResponse("server.quota.exceeded", quota_diags));
        return;
    }

    bumpCounter("server.runs.requested", request.runs.size());

    auto sync = std::make_shared<RequestSync>();
    sync->conn = conn;
    sync->remaining = request.runs.size();

    for (std::size_t i = 0; i < request.runs.size(); ++i) {
        const RunSpec &spec = request.runs[i];

        Job job;
        job.sync = sync;
        job.index = i;
        job.config = spec.config;
        job.config.maxInsts =
            admission_.clampBudget(spec.config.maxInsts);
        job.config.telemetry = {}; // traces never cross the wire
        // Sandbox: a run that exhausts its budget is reported as a
        // structured error, never a process kill.
        job.config.budgetFatal = false;

        if (!spec.source.empty()) {
            AdmissionResult adm =
                admission_.admitInline(spec.source, spec.display);
            if (!adm.admitted) {
                bumpCounter("server.admission.rejects.lint");
                job.workload = spec.display;
                deliverRunError(job, adm.reason, adm.diagnostics);
                continue;
            }
            job.workload = adm.name;
        } else {
            if (!workloadAllowed(spec.workload)) {
                bumpCounter("server.admission.rejects.workload");
                job.workload = spec.workload;
                deliverRunError(
                    job, "server.admission.workload",
                    {ir::makeError(
                        "server.admission.unknown-workload",
                        "unknown or unadmitted workload \""
                            + spec.workload + "\"")});
                continue;
            }
            job.workload = spec.workload;
        }

        job.signature = runSignature(job.workload, job.config);
        job.batch = batchKey(job.workload, job.config);

        // Single-flight: first job with this signature leads, the
        // rest attach to its cache entry.
        bool lead = false;
        {
            std::lock_guard lock(cacheMutex_);
            auto [it, inserted] = resultCache_.try_emplace(
                job.signature, nullptr);
            if (inserted) {
                it->second = std::make_shared<CachedRun>();
                lead = true;
            } else {
                std::shared_ptr<CachedRun> entry = it->second;
                std::lock_guard elock(entry->mu);
                if (entry->done) {
                    bumpCounter("server.runs.cached");
                    deliverRun(job, /*cached=*/true, 0.0,
                               entry->report);
                    continue;
                }
                entry->waiters.push_back(std::move(job));
                continue;
            }
        }
        if (lead) {
            Shard &shard = *shards_[static_cast<std::size_t>(
                workloads::workloadContentKey(job.workload)
                % static_cast<std::uint64_t>(shards_.size()))];
            std::lock_guard lock(shard.mu);
            if (stopping_.load()) {
                failLeader(job, "server.shutdown",
                           {ir::makeError("server.shutdown",
                                          "server is stopping")});
                continue;
            }
            shard.queue.push_back(std::move(job));
            shard.cv.notify_one();
        }
    }

    sync->wait();

    std::size_t completed, rejected;
    {
        std::lock_guard lock(sync->mu);
        completed = sync->completed;
        rejected = sync->rejected;
    }
    conn->sendJson(doneResponse(request.runs.size(), completed,
                                rejected, nowMillis() - t0));
}

void
Server::dispatchLoop(Shard &shard)
{
    for (;;) {
        std::vector<Job> jobs;
        {
            std::unique_lock lock(shard.mu);
            shard.cv.wait(lock, [&] {
                return stopping_.load() || !shard.queue.empty();
            });
            while (!shard.queue.empty()) {
                jobs.push_back(std::move(shard.queue.front()));
                shard.queue.pop_front();
            }
            if (jobs.empty() && stopping_.load())
                return;
        }

        if (stopping_.load()) {
            for (const auto &job : jobs)
                failLeader(job, "server.shutdown",
                           {ir::makeError("server.shutdown",
                                          "server is stopping")});
            return;
        }

        // Group compatible jobs into RunPlans: equal batch keys share
        // every ExperimentCache stage.
        std::map<std::string, std::vector<Job>> batches;
        for (auto &job : jobs)
            batches[job.batch].push_back(std::move(job));
        for (auto &[key, batch] : batches) {
            (void)key;
            {
                std::lock_guard lock(metricsMutex_);
                metrics_
                    .histogram("server.batch.occupancy", 0, 64, 16)
                    .record(
                        static_cast<std::int64_t>(batch.size()));
            }
            runBatch(shard, std::move(batch));
        }
    }
}

void
Server::runBatch(Shard &shard, std::vector<Job> jobs)
{
    workloads::RunPlan plan;
    for (const auto &job : jobs)
        plan.add(job.workload, job.config);

    workloads::DriverOptions opts;
    opts.jobs = options_.jobsPerShard;
    opts.seed = options_.seed
                + static_cast<std::uint64_t>(shard.id);
    opts.cache = &shard.cache;
    // Output mismatches must reach the client as data, not kill the
    // server; the offline driver's fatal check stays off here.
    opts.checkOutputs = false;

    const double t0 = nowMillis();
    workloads::runPlan(
        plan, opts,
        [&](std::size_t index, const workloads::RunResult &result) {
            const Job &job = jobs[index];
            const double millis = nowMillis() - t0;

            if (!result.completed) {
                // Budget sandbox tripped: error the leader and any
                // followers; the entry is not worth caching.
                bumpCounter("server.runs.incomplete");
                failLeader(
                    job, "server.budget.exhausted",
                    {ir::makeError(
                        "server.budget.exhausted",
                        job.workload + ": " + result.incompleteStage
                            + " run did not halt within maxInsts="
                            + std::to_string(job.config.maxInsts))});
                return;
            }

            const obs::Json report = result.report.toJson();

            // Publish to the cache entry and collect the followers.
            std::vector<Job> waiters;
            {
                std::lock_guard lock(cacheMutex_);
                auto it = resultCache_.find(job.signature);
                if (it != resultCache_.end()) {
                    std::shared_ptr<CachedRun> entry = it->second;
                    {
                        std::lock_guard elock(entry->mu);
                        entry->done = true;
                        entry->report = report;
                        waiters = std::move(entry->waiters);
                        entry->waiters.clear();
                    }
                    if (!options_.resultCache)
                        resultCache_.erase(it);
                }
            }

            bumpCounter("server.runs.completed");
            deliverRun(job, /*cached=*/false, millis, report);
            for (const auto &waiter : waiters) {
                bumpCounter("server.runs.cached");
                deliverRun(waiter, /*cached=*/true, millis, report);
            }
        });
}

void
Server::deliverRun(const Job &job, bool cached, double server_millis,
                   const obs::Json &report)
{
    job.sync->conn->sendJson(runResponse(
        job.index, job.workload, cached, server_millis, report));
    job.sync->finishOne(/*ok=*/true);
}

void
Server::deliverRunError(const Job &job, std::string_view reason,
                        const std::vector<ir::Diagnostic> &diags)
{
    job.sync->conn->sendJson(
        runErrorResponse(job.index, job.workload, reason, diags));
    job.sync->finishOne(/*ok=*/false);
}

void
Server::failLeader(const Job &job, std::string_view reason,
                   const std::vector<ir::Diagnostic> &diags)
{
    std::vector<Job> waiters;
    {
        std::lock_guard lock(cacheMutex_);
        auto it = resultCache_.find(job.signature);
        if (it != resultCache_.end()) {
            {
                std::lock_guard elock(it->second->mu);
                waiters = std::move(it->second->waiters);
            }
            resultCache_.erase(it);
        }
    }
    deliverRunError(job, reason, diags);
    for (const auto &waiter : waiters)
        deliverRunError(waiter, reason, diags);
}

bool
Server::workloadAllowed(const std::string &name) const
{
    return builtinNames_.count(name) > 0
           || admission_.isAdmitted(name);
}

void
Server::bumpCounter(const std::string &name, std::uint64_t delta)
{
    std::lock_guard lock(metricsMutex_);
    metrics_.counter(name) += delta;
}

obs::Json
Server::metricsJson()
{
    obs::Json out;
    {
        std::lock_guard lock(metricsMutex_);
        out = metrics_.toJson();
    }
    for (const auto &shard : shards_) {
        const auto stats = shard->cache.stats();
        const std::string prefix =
            "server.shard." + std::to_string(shard->id) + ".cache.";
        out[prefix + "module.hits"] = stats.moduleHits;
        out[prefix + "module.misses"] = stats.moduleMisses;
        out[prefix + "profile.hits"] = stats.profileHits;
        out[prefix + "profile.misses"] = stats.profileMisses;
        out[prefix + "baseRun.hits"] = stats.baseRunHits;
        out[prefix + "baseRun.misses"] = stats.baseRunMisses;
    }
    return out;
}

} // namespace ccr::server
