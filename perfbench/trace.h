/**
 * @file
 * Host-time spans recorded by the benchmark around its calls into the
 * simulator, and the workload wrapper that times every
 * InstrStream::next.
 *
 * Spans stay in memory and are written out when the benchmark ends.
 * Each has a name, start, end, parent span and run id (the sample it
 * belongs to). The stream wrapper is the one place that sees millions
 * of calls, so it aggregates them into a count and self time and keeps
 * only every 2^14-th call as a sampled span.
 */

#ifndef PIRANHA_PERFBENCH_TRACE_H
#define PIRANHA_PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "stats/json.h"
#include "workload/workload.h"

namespace perfbench {

/** One recorded interval of host time (seconds since tracer start). */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    unsigned run = 0;
    std::string name;
    double start = 0;
    double end = 0;
};

/** Thread-safe in-memory span store. */
class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Seconds since the tracer was created. */
    double now() const { return secondsSince(_t0); }

    /** Open a span now; close it with end(). */
    std::uint64_t begin(std::string name, std::uint64_t parent,
                        unsigned run);
    void end(std::uint64_t id);

    /** Record an already finished span. */
    std::uint64_t record(std::string name, std::uint64_t parent,
                         unsigned run, double start, double end);

    /** All spans as a JSON array (the trace file's "spans"). */
    piranha::JsonValue toJson() const;

  private:
    Clock::time_point _t0 = Clock::now();
    mutable std::mutex _mu;
    std::vector<Span> _spans; //!< index = id - 1
};

/** Opens a span on construction and closes it on destruction. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, std::string name, std::uint64_t parent,
              unsigned run)
        : _t(t), _id(t.begin(std::move(name), parent, run))
    {}
    ~SpanScope() { _t.end(_id); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint64_t id() const { return _id; }

  private:
    Tracer &_t;
    std::uint64_t _id;
};

/** Calls to InstrStream::next and the host time spent inside them. */
struct NextTally
{
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
};

/**
 * Wraps a workload so that every stream it makes times next(). When
 * @p job_span names a sweep job, the wrapper also opens that job's
 * span on construction and closes it on destruction: the sweep runner
 * builds the workload first and destroys it last, so the span covers
 * the whole job.
 */
class TracedWorkload : public piranha::Workload
{
  public:
    TracedWorkload(std::unique_ptr<piranha::Workload> inner, Tracer &tracer,
                   NextTally &tally, std::uint64_t parent, unsigned run,
                   const std::string &job_span = "");
    ~TracedWorkload() override;

    /** Parent span for the sampled next() spans of later streams. */
    void setParent(std::uint64_t id) { _parent = id; }

    const std::string &name() const override { return _inner->name(); }
    piranha::WorkloadIlp ilp() const override { return _inner->ilp(); }
    std::uint64_t seed() const override { return _inner->seed(); }

    std::unique_ptr<piranha::InstrStream>
    makeStream(piranha::EventQueue &eq, unsigned global_cpu,
               unsigned total_cpus, std::uint64_t work_target,
               piranha::NodeId node,
               const piranha::AddressMap &amap) override;

  private:
    std::unique_ptr<piranha::Workload> _inner;
    Tracer &_tracer;
    NextTally &_tally;
    std::uint64_t _parent;
    unsigned _run;
    std::uint64_t _jobSpan = 0;
};

} // namespace perfbench

#endif // PIRANHA_PERFBENCH_TRACE_H
