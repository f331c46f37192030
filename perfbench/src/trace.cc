#include "trace.hh"

#include <fstream>
#include <functional>
#include <thread>

#include "common.hh"
#include "obs/json.hh"

namespace perfbench
{

namespace
{

/** Open spans of the current thread, innermost last. */
thread_local std::vector<int> openSpans;

} // namespace

int
Tracer::begin(std::string name, std::uint64_t group)
{
    const std::uint64_t thread =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    const int parent = openSpans.empty() ? -1 : openSpans.back();
    std::lock_guard lock(mu_);
    const auto [it, inserted] =
        tracks_.try_emplace(thread, static_cast<int>(tracks_.size()));
    (void)inserted;
    const int id = static_cast<int>(records_.size());
    records_.push_back({std::move(name), now(), 0.0, parent, it->second, group});
    openSpans.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    const double t = now();
    if (!openSpans.empty() && openSpans.back() == id)
        openSpans.pop_back();
    std::lock_guard lock(mu_);
    records_[static_cast<std::size_t>(id)].end = t;
}

std::map<std::string, double>
Tracer::totals() const
{
    std::lock_guard lock(mu_);
    std::map<std::string, double> out;
    for (const auto &r : records_)
        out[r.name] += r.end - r.start;
    return out;
}

std::map<std::string, double>
Tracer::selfTotals() const
{
    std::lock_guard lock(mu_);
    std::map<std::string, double> out;
    for (const auto &r : records_)
        out[r.name] += r.end - r.start;
    // Children nest inside their parent on one thread, so subtracting
    // each child's duration from its parent leaves the self time.
    for (const auto &r : records_)
        if (r.parent >= 0)
            out[records_[static_cast<std::size_t>(r.parent)].name] -=
                r.end - r.start;
    return out;
}

std::size_t
Tracer::size() const
{
    std::lock_guard lock(mu_);
    return records_.size();
}

bool
Tracer::write(const std::string &path) const
{
    using ccr::obs::Json;
    Json events = Json::array();
    {
        std::lock_guard lock(mu_);
        const double t0 = records_.empty() ? 0.0 : records_[0].start;
        for (const auto &r : records_) {
            Json e = Json::object();
            e["name"] = r.name;
            e["ph"] = "X";
            e["ts"] = (r.start - t0) * 1e6;
            e["dur"] = (r.end - r.start) * 1e6;
            e["pid"] = std::uint64_t{1};
            e["tid"] = static_cast<std::uint64_t>(r.track);
            Json args = Json::object();
            args["group"] = r.group;
            args["parent"] = static_cast<double>(r.parent);
            e["args"] = std::move(args);
            events.push(std::move(e));
        }
    }
    Json doc = Json::object();
    doc["traceEvents"] = std::move(events);
    std::ofstream out(path);
    out << doc.dump() << "\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
