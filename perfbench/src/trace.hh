/**
 * @file
 * In-memory span recorder for the traced benchmark run. Spans are
 * recorded only in the benchmark's own code, around each call into a
 * simulator layer; nothing inside the simulator is instrumented. A
 * span has a name ("<layer>.<operation>"), a start and an end, the
 * span that encloses it on the same thread, and a group id shared by
 * every span of one sweep point, kernel or request. The spans are
 * kept in memory and written out once, as Chrome trace-event JSON,
 * when the run ends.
 */

#ifndef CCR_PERFBENCH_TRACE_HH
#define CCR_PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

class Tracer
{
  public:
    struct Record
    {
        std::string name;
        double start = 0.0; ///< seconds, monotonic clock
        double end = 0.0;
        int parent = -1; ///< index of the enclosing span, -1 at top
        int track = 0;   ///< recording thread
        std::uint64_t group = 0;
    };

    int begin(std::string name, std::uint64_t group);
    void end(int id);

    /** Total duration per span name, seconds. */
    std::map<std::string, double> totals() const;

    /** Duration minus the time covered by child spans, per name. */
    std::map<std::string, double> selfTotals() const;

    std::size_t size() const;

    /** Write every span as Chrome trace-event JSON (chrome://tracing,
     *  Perfetto). False when the file cannot be written. */
    bool write(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::vector<Record> records_;
    std::map<std::uint64_t, int> tracks_; ///< thread hash -> track
};

/** Total of span @p name in @p totals (Tracer::totals()), in ms; 0
 *  when no such span was recorded. */
inline double
totalMs(const std::map<std::string, double> &totals, const std::string &name)
{
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second * 1e3;
}

/** RAII span; a null tracer makes it a no-op, which is how the
 *  untraced run shares code with the traced one. */
class Span
{
  public:
    Span(Tracer *tracer, const char *name, std::uint64_t group = 0)
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->begin(name, group) : -1)
    {}
    ~Span() { close(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span before the scope does. */
    void
    close()
    {
        if (tracer_ != nullptr && id_ >= 0)
            tracer_->end(id_);
        id_ = -1;
    }

  private:
    Tracer *tracer_;
    int id_;
};

} // namespace perfbench

#endif // CCR_PERFBENCH_TRACE_HH
