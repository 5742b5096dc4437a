#include "trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

/** Innermost open span of this thread (0 = none). */
thread_local std::uint64_t tls_current_span = 0;

std::int64_t
Nanos(Clock::duration d)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/** Bucket of an engine phase: matrix kernels by class, the rest by
 *  phase kind. */
int
BucketOf(const azul::PhaseInfo& info)
{
    using azul::KernelClass;
    using Kind = azul::Phase::Kind;
    if (info.kind == Kind::kMatrix) {
        switch (info.kclass) {
          case KernelClass::kSpMV:
            return static_cast<int>(PhaseBucket::kSpmv);
          case KernelClass::kSpTRSVForward:
            return static_cast<int>(PhaseBucket::kFwd);
          case KernelClass::kSpTRSVBackward:
            return static_cast<int>(PhaseBucket::kBwd);
          case KernelClass::kVectorOp:
            break;
        }
        return static_cast<int>(PhaseBucket::kVector);
    }
    if (info.kind == Kind::kVector) {
        return static_cast<int>(PhaseBucket::kVector);
    }
    return static_cast<int>(PhaseBucket::kScalar);
}

} // namespace

double
SecondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::uint64_t
Tracer::NewId()
{
    if (!enabled_) {
        return 0;
    }
    std::lock_guard<std::mutex> lock(mu_);
    return next_id_++;
}

void
Tracer::Record(const std::string& name, Clock::time_point start,
               Clock::time_point end, std::uint64_t id,
               std::uint64_t parent, std::uint64_t request, int tid)
{
    if (!enabled_) {
        return;
    }
    const int thread = tid != 0 ? tid : ThreadIndex();
    std::lock_guard<std::mutex> lock(mu_);
    totals_[name] += std::chrono::duration<double>(end - start).count();
    if (events_.size() < kMaxEvents) {
        Event e;
        e.name = name;
        e.start_ns = Nanos(start - origin_);
        e.dur_ns = Nanos(end - start);
        e.id = id;
        e.parent = parent;
        e.request = request;
        e.tid = thread;
        events_.push_back(std::move(e));
    }
}

double
Tracer::TotalSeconds(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second;
}

std::size_t
Tracer::num_events() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

bool
Tracer::WriteChromeTrace(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[160];
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event& e = events_[i];
        // Chrome trace timestamps are microseconds.
        std::snprintf(buf, sizeof(buf),
                      "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                      "\"dur\":%.3f",
                      e.tid, static_cast<double>(e.start_ns) / 1e3,
                      static_cast<double>(e.dur_ns) / 1e3);
        out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << e.name
            << "\",\"cat\":\"" << e.name.substr(0, e.name.find('.'))
            << "\"," << buf << ",\"args\":{\"id\":" << e.id
            << ",\"parent\":" << e.parent << ",\"request\":" << e.request
            << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

int
Tracer::ThreadIndex()
{
    static std::atomic<int> next{1};
    thread_local const int index = next.fetch_add(1);
    return index;
}

Span::Span(Tracer& tracer, std::string name, std::uint64_t request)
    : tracer_(tracer),
      name_(std::move(name)),
      request_(request),
      parent_(tls_current_span),
      id_(tracer.NewId()),
      start_(Clock::now())
{
    if (id_ != 0) {
        tls_current_span = id_;
    }
}

Span::~Span() { Stop(); }

double
Span::Stop()
{
    if (seconds_ >= 0.0) {
        return seconds_;
    }
    const Clock::time_point end = Clock::now();
    seconds_ = std::chrono::duration<double>(end - start_).count();
    if (id_ != 0) {
        tracer_.Record(name_, start_, end, id_, parent_, request_);
        tls_current_span = parent_;
    }
    return seconds_;
}

std::uint64_t
Span::Current()
{
    return tls_current_span;
}

const char*
PhaseBucketName(int bucket)
{
    static const char* const kNames[kNumPhaseBuckets] = {
        "spmv", "sptrsv_fwd", "sptrsv_bwd", "vector", "scalar"};
    return kNames[bucket];
}

void
HostPhaseObserver::OnPhaseStart(const azul::PhaseInfo& info,
                                azul::Cycle now)
{
    (void)info;
    (void)now;
    phase_start_ = Clock::now();
}

void
HostPhaseObserver::OnPhaseEnd(const azul::PhaseInfo& info,
                              azul::Cycle now, const azul::SimStats& delta)
{
    (void)now;
    const Clock::time_point end = Clock::now();
    const int bucket = BucketOf(info);
    const double seconds =
        std::chrono::duration<double>(end - phase_start_).count();
    profile_.bucket_seconds[static_cast<std::size_t>(bucket)] += seconds;
    ++profile_.bucket_count[static_cast<std::size_t>(bucket)];
    profile_.phase_seconds += seconds;
    if (info.kind == azul::Phase::Kind::kMatrix) {
        profile_.matrix_cycles += delta.cycles;
    }
    const std::uint64_t parent =
        iter_id_ != 0 ? iter_id_ : Span::Current();
    tracer_.Record(std::string("sim.") + PhaseBucketName(bucket),
                   phase_start_, end, tracer_.NewId(), parent, request_);
}

void
HostPhaseObserver::OnIterationStart(azul::Index iteration, azul::Cycle now)
{
    (void)iteration;
    (void)now;
    iter_start_ = Clock::now();
    iter_id_ = tracer_.NewId();
}

void
HostPhaseObserver::OnIterationDone(azul::Index iteration,
                                   double residual_norm, azul::Cycle now)
{
    (void)iteration;
    (void)residual_norm;
    (void)now;
    const Clock::time_point end = Clock::now();
    profile_.iteration_seconds +=
        std::chrono::duration<double>(end - iter_start_).count();
    ++profile_.iterations;
    tracer_.Record("sim.iteration", iter_start_, end, iter_id_,
                   Span::Current(), request_);
    iter_id_ = 0;
}

void
HostPhaseObserver::OnKernelCycle(azul::Cycle cycle_in_kernel, int issued)
{
    (void)cycle_in_kernel;
    profile_.issued_ops += static_cast<std::uint64_t>(issued);
}

} // namespace perfbench
