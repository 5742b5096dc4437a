/**
 * @file
 * Shared pieces of the benchmark: run arguments, seeded inputs,
 * session options, the correctness oracle, metric output, and the
 * traced run's layer probes (pipeline decomposition, host floors and
 * engine phase profiles).
 */
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "core/azul_system.h"
#include "sparse/generators.h"
#include "trace.h"

namespace perfbench {

using azul::AzulOptions;
using azul::AzulSystem;
using azul::CsrMatrix;
using azul::EngineKind;
using azul::Vector;

/** Tile grid every workload runs on (8x8). */
inline constexpr int kGridSide = 8;
/** Relative residual tolerance of every converged solve. */
inline constexpr double kTol = 1e-8;
/** Oracle bound on the host-recomputed ||b - Ax|| / ||b|| of a
 *  converged solve (kTol plus accumulated rounding headroom). */
inline constexpr double kResidualBound = 1e-6;

/**
 * Load schedule of every workload: kRounds rounds, each a closed loop
 * for kClosedShare of the round, then Poisson open loops for
 * kOpenShare each at kOpenLoad[0] (low) and kOpenLoad[1] (high) times
 * the throughput that round's closed loop measured. Interleaving the
 * phases spreads slow spells of a shared host over all of them, and
 * tying the rates to the round's own saturation keeps the offered
 * load, and so the queueing, the same when the host slows down.
 */
inline constexpr int kRounds = 6;
inline constexpr double kClosedShare = 0.2;
inline constexpr double kOpenShare = 0.4;
inline constexpr double kOpenLoad[2] = {0.25, 0.5};

/** Command-line arguments of one run. */
struct RunArgs {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string work_dir;  //!< scratch space (trace file)
    std::string cache_dir; //!< this run's mapping cache, removed at exit
};

/** Independent, reproducible random stream `stream` of `seed`. */
std::mt19937_64 StreamRng(std::uint64_t seed, std::uint64_t stream);

/** Uniform [-1, 1) vector of length n. */
Vector RandomVector(azul::Index n, std::mt19937_64& rng);

/** base + 0.01 * uniform noise: the next time step's right-hand side. */
Vector StepRhs(const Vector& base, std::mt19937_64& rng);

/**
 * A values-only perturbation that keeps A symmetric positive
 * definite: c * A + d * I with c in [0.95, 1.05] and d in
 * [0, 0.01 * mean diagonal].
 */
CsrMatrix PerturbValues(const CsrMatrix& a, std::mt19937_64& rng);

/** The named suite matrices at `scale` (all when `names` is empty),
 *  in suite order. */
std::vector<azul::SuiteMatrix> LoadSuite(double scale,
                                         const std::vector<std::string>& names);

/** Library defaults plus the benchmark's settings: 8x8 tiles, PCG +
 *  IC0 at kTol, the given engine and mapping-cache directory. */
AzulOptions SessionOptions(EngineKind engine, const std::string& cache_dir);

/** ||b - A x|| / ||b|| on the host. */
double RelResidual(const CsrMatrix& a, const Vector& x, const Vector& b);

/** Linear-interpolated percentile, p in [0, 100]; 0 when empty. */
double Percentile(std::vector<double> xs, double p);
double Median(std::vector<double> xs);

/** Milliseconds elapsed since `t0`. */
double MsSince(Clock::time_point t0);

/**
 * Waits for `t` by polling the clock, as a dedicated server core
 * would: an open-loop generator that sleeps pays for its vCPU going
 * idle (wake-up lag, caches refilled by other tenants), which moved
 * cycle-sim's low-load median by 20% between runs.
 */
void PollUntil(Clock::time_point t);

/** Attempted operations and failed checks; thread-safe. */
class Outcome {
  public:
    void Attempt(std::int64_t n = 1);
    /** Counts one failure and keeps the first messages for stderr. */
    void Fail(const std::string& what);
    std::int64_t attempted() const;
    std::int64_t failed() const;
    std::vector<std::string> messages() const;

  private:
    mutable std::mutex mu_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
    std::vector<std::string> messages_;
};

/** Named metrics of one run, printed in insertion order. */
class Metrics {
  public:
    void Set(const std::string& name, double value, const std::string& unit);
    /** Human-readable table, one metric per line. */
    void Print() const;
    /** {"name": {"value": v, "unit": "u"}, ...} */
    std::string ToJson() const;

    struct Row {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    const std::vector<Row>& rows() const { return rows_; }

  private:
    std::vector<Row> rows_;
};

/** Geometric mean over the non-empty groups of each group's p-th
 *  percentile: every session weighs the same, and quantiles of a
 *  mixture of sessions cannot jump between them. */
double GmeanOfPercentiles(const std::vector<std::vector<double>>& groups,
                          double p);

/** Open-loop latency samples (ms) of one rate, one vector per session. */
using SessionSamples = std::vector<std::vector<double>>;

/** Sets the end-to-end lat_low_ms_p50 and the per-layer
 *  open.lat_high_ms_p50 (GmeanOfPercentiles at 50), and the pooled
 *  open.lat_{low,high}_ms_p99. */
void SetLatencyMetrics(const SessionSamples& low, const SessionSamples& high,
                       Metrics& e2e, Metrics& layers);

/**
 * The benchmark's own fixed host kernel, run right after every request
 * of the calling-thread workloads to read how fast the host runs at
 * that moment: 8 timed CSR SpMV sweeps over a 5-point Laplacian on a
 * 100x100 grid (50k nonzeros, 0.8 MB, cache-resident after one untimed
 * sweep), about 0.35 ms. On a shared 4-core VM (perfbench/README.md)
 * other tenants slow the simulator down by up to 1.5x for spells of
 * seconds to minutes while a pure ALU loop runs unaffected; this kernel
 * slows down with the simulator, so a time divided by its slowness
 * depends far less on the neighbours. It is not library code, so no
 * change to the program under test moves it.
 */
class HostSpeedProbe {
  public:
    /** Kernel time (ms) that reads as slowness 1: about its time on
     *  that VM when the host is quiet. */
    static constexpr double kReferenceMs = 0.35;

    HostSpeedProbe();
    /** Runs the kernel once; returns its time over kReferenceMs and
     *  keeps it for median_slowness(). */
    double Slowness();
    /** Median of every Slowness() so far; 1 before the first. */
    double median_slowness() const;

  private:
    void Sweep(); //!< y = A x / 4, then swap x and y

    std::vector<std::int32_t> row_ptr_;
    std::vector<std::int32_t> col_;
    std::vector<double> val_;
    std::vector<double> x_;
    std::vector<double> y_;
    std::vector<double> samples_;
    double sink_ = 0.0; //!< keeps the sweeps observable
};

/** Peak resident set size of this process in MB (getrusage). */
double PeakRssMb();

/** The per-layer metric names every traced run reports; a layer the
 *  workload does not exercise reads 0. */
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

/** Sets every layer metric not yet set to 0, in LayerMetricNames
 *  order, and drops names outside that list. */
Metrics CompleteLayerMetrics(const Metrics& measured);

/**
 * Traced run only: re-runs AzulSystem::Create's pipeline stage by
 * stage through the modules' public functions on each matrix, under
 * spans named solver.color, solver.factor, mapping.hypergraph,
 * mapping.partition and mapping.map (or mapping.cache_open when
 * `cache_dir` is set), mapping.traffic and dataflow.compile, then
 * calls AzulSystem::Create itself on the same matrix (span
 * core.create), so stages and whole compare under the same host
 * conditions. Sets the solver.*, mapping.*, dataflow.* and
 * core.create_s layer metrics as sums over the matrices, and returns
 * the created functional-engine systems.
 */
std::vector<AzulSystem> ProfilePipeline(
    const std::vector<const CsrMatrix*>& matrices,
    const std::string& cache_dir, Tracer& tracer, Outcome& outcome,
    Metrics& layers);

/**
 * Traced run only: host floors on the systems' permuted matrices
 * (CSR SpMV, axpy, host PCG+IC0 to kTol on the same right-hand
 * sides), the functional engine's per-kernel-class phase profile
 * against them, Solve time outside the observed phases, and the
 * tracing overhead of traced vs untraced solves.
 */
void ProfileFunctional(std::vector<AzulSystem*> systems, std::uint64_t seed,
                       Tracer& tracer, Outcome& outcome, Metrics& layers);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H_
