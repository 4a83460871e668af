#include "trace.h"

namespace perfbench {

using piranha::JsonValue;

std::uint64_t
Tracer::begin(std::string name, std::uint64_t parent, unsigned run)
{
    double t = now();
    std::lock_guard<std::mutex> g(_mu);
    _spans.push_back(Span{_spans.size() + 1, parent, run, std::move(name),
                          t, t});
    return _spans.size();
}

void
Tracer::end(std::uint64_t id)
{
    double t = now();
    std::lock_guard<std::mutex> g(_mu);
    _spans.at(id - 1).end = t;
}

std::uint64_t
Tracer::record(std::string name, std::uint64_t parent, unsigned run,
               double start, double end)
{
    std::lock_guard<std::mutex> g(_mu);
    _spans.push_back(Span{_spans.size() + 1, parent, run, std::move(name),
                          start, end});
    return _spans.size();
}

JsonValue
Tracer::toJson() const
{
    std::lock_guard<std::mutex> g(_mu);
    JsonValue arr = JsonValue::array();
    for (const Span &s : _spans) {
        JsonValue o = JsonValue::object();
        o.set("id", s.id);
        o.set("parent", s.parent);
        o.set("run", static_cast<std::uint64_t>(s.run));
        o.set("name", s.name);
        o.set("start_s", s.start);
        o.set("end_s", s.end);
        arr.append(std::move(o));
    }
    return arr;
}

namespace {

/** Times next() of one stream; flushes into the tally on teardown. */
class TracedStream : public piranha::InstrStream
{
  public:
    TracedStream(std::unique_ptr<piranha::InstrStream> inner,
                 Tracer &tracer, NextTally &tally, std::uint64_t parent,
                 unsigned run)
        : _inner(std::move(inner)), _tracer(tracer), _tally(tally),
          _parent(parent), _run(run)
    {}

    ~TracedStream() override
    {
        _tally.calls.fetch_add(_calls, std::memory_order_relaxed);
        _tally.ns.fetch_add(_ns, std::memory_order_relaxed);
    }

    piranha::StreamOp
    next() override
    {
        Clock::time_point t0 = Clock::now();
        piranha::StreamOp op = _inner->next();
        Clock::time_point t1 = Clock::now();
        _ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        if ((++_calls & kSampleMask) == 0) {
            double end = _tracer.now();
            _tracer.record("workload.next", _parent, _run,
                           end - secondsBetween(t0, t1), end);
        }
        return op;
    }

    std::uint64_t workDone() const override { return _inner->workDone(); }

    void
    memCompleted(const piranha::StreamOp &op, std::uint64_t v) override
    {
        _inner->memCompleted(op, v);
    }

  private:
    static constexpr std::uint64_t kSampleMask = (1u << 14) - 1;

    std::unique_ptr<piranha::InstrStream> _inner;
    Tracer &_tracer;
    NextTally &_tally;
    std::uint64_t _parent;
    unsigned _run;
    std::uint64_t _calls = 0;
    std::uint64_t _ns = 0;
};

} // namespace

TracedWorkload::TracedWorkload(std::unique_ptr<piranha::Workload> inner,
                               Tracer &tracer, NextTally &tally,
                               std::uint64_t parent, unsigned run,
                               const std::string &job_span)
    : _inner(std::move(inner)), _tracer(tracer), _tally(tally),
      _parent(parent), _run(run)
{
    if (!job_span.empty()) {
        _jobSpan = _tracer.begin(job_span, parent, run);
        _parent = _jobSpan;
    }
}

TracedWorkload::~TracedWorkload()
{
    if (_jobSpan)
        _tracer.end(_jobSpan);
}

std::unique_ptr<piranha::InstrStream>
TracedWorkload::makeStream(piranha::EventQueue &eq, unsigned global_cpu,
                           unsigned total_cpus, std::uint64_t work_target,
                           piranha::NodeId node,
                           const piranha::AddressMap &amap)
{
    return std::make_unique<TracedStream>(
        _inner->makeStream(eq, global_cpu, total_cpus, work_target, node,
                           amap),
        _tracer, _tally, _parent, _run);
}

} // namespace perfbench
