/**
 * @file
 * Host-time spans for the benchmark's traced run.
 *
 * A Span times one call into a library layer from outside. Timing is
 * always on (the end-to-end numbers come from the same clock reads);
 * recording into the Tracer happens only when tracing is enabled.
 * Spans nest per thread: each records the span that was open on its
 * thread when it started as its parent. Recorded spans stay in
 * memory until WriteChromeTrace() serializes them as chrome://tracing
 * JSON at the end of the run.
 *
 * HostPhaseObserver is the traced run's SimObserver: it stamps each
 * engine phase and iteration with the host clock, records them as
 * child spans of the enclosing solve, and accumulates per-kernel-class
 * host time plus the cycle engine's issue counts.
 */
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/observer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
double SecondsSince(Clock::time_point t0);

/** In-memory span store; all methods are thread-safe. */
class Tracer {
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Fresh span id (0 when disabled). */
    std::uint64_t NewId();

    /** Records one finished span (no-op when disabled). `tid` 0 means
     *  the calling thread. */
    void Record(const std::string& name, Clock::time_point start,
                Clock::time_point end, std::uint64_t id,
                std::uint64_t parent, std::uint64_t request, int tid = 0);

    /** Summed seconds of the spans recorded under `name`. */
    double TotalSeconds(const std::string& name) const;

    /** Writes every recorded span as chrome://tracing JSON; false on
     *  I/O failure. */
    bool WriteChromeTrace(const std::string& path) const;

    std::size_t num_events() const;

    /** Small dense id of the calling thread (1, 2, ...). */
    static int ThreadIndex();

  private:
    struct Event {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t dur_ns = 0;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::uint64_t request = 0;
        int tid = 0;
    };
    /** Events beyond this are only aggregated, not kept. */
    static constexpr std::size_t kMaxEvents = 150000;

    const bool enabled_;
    const Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Event> events_;
    std::map<std::string, double> totals_; //!< seconds per span name
    std::uint64_t next_id_ = 1;
};

/**
 * Times one call from construction to Stop() (or destruction). While
 * alive it is the parent of spans started on the same thread.
 */
class Span {
  public:
    Span(Tracer& tracer, std::string name, std::uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /** Ends the span (idempotent) and returns its length in seconds. */
    double Stop();

    /** Id of the innermost open span on this thread (0 if none). */
    static std::uint64_t Current();

  private:
    Tracer& tracer_;
    std::string name_;
    std::uint64_t request_;
    std::uint64_t parent_;
    std::uint64_t id_;
    Clock::time_point start_;
    double seconds_ = -1.0;
};

/** Host-time buckets of the engine phases. */
enum class PhaseBucket : int { kSpmv, kFwd, kBwd, kVector, kScalar };
inline constexpr int kNumPhaseBuckets = 5;
/** Metric-name suffix of a bucket ("spmv", "sptrsv_fwd", ...). */
const char* PhaseBucketName(int bucket);

/** Host-clock totals of engine phases, iterations and issue slots. */
struct PhaseProfile {
    std::array<double, kNumPhaseBuckets> bucket_seconds{};
    std::array<std::int64_t, kNumPhaseBuckets> bucket_count{};
    double phase_seconds = 0.0;     //!< all phases, prologue included
    double iteration_seconds = 0.0; //!< iteration bodies only
    std::int64_t iterations = 0;
    std::uint64_t issued_ops = 0;    //!< OnKernelCycle sum
    std::uint64_t matrix_cycles = 0; //!< matrix-phase cycle deltas
};

/** Fills a PhaseProfile and records phases/iterations as spans. */
class HostPhaseObserver : public azul::SimObserver {
  public:
    explicit HostPhaseObserver(Tracer& tracer) : tracer_(tracer) {}

    void OnPhaseStart(const azul::PhaseInfo& info,
                      azul::Cycle now) override;
    void OnPhaseEnd(const azul::PhaseInfo& info, azul::Cycle now,
                    const azul::SimStats& delta) override;
    void OnIterationStart(azul::Index iteration, azul::Cycle now) override;
    void OnIterationDone(azul::Index iteration, double residual_norm,
                         azul::Cycle now) override;
    void OnKernelCycle(azul::Cycle cycle_in_kernel, int issued) override;

    /** Sets the request id attached to subsequently recorded spans. */
    void set_request(std::uint64_t request) { request_ = request; }

    const PhaseProfile& profile() const { return profile_; }

  private:
    Tracer& tracer_;
    PhaseProfile profile_;
    std::uint64_t request_ = 0;
    Clock::time_point phase_start_{};
    Clock::time_point iter_start_{};
    std::uint64_t iter_id_ = 0; //!< open iteration span (0 = none)
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H_
