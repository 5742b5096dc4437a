/**
 * @file
 * The two workloads served on the calling thread: cold-open
 * (functional engine, no mapping cache) and cycle-sim (cycle engine,
 * pre-filled mapping cache, functional-engine oracle).
 */
#include <array>
#include <cstring>
#include <functional>
#include <string>

#include "sim/sim_stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

// cold-open: the whole suite, opened cold.
constexpr double kColdScale = 0.25;
constexpr int kColdSetupReps = 3;

// cycle-sim: one suite matrix per parallelism class.
constexpr double kCycleScale = 0.25;
constexpr int kCycleSetupReps = 9;
constexpr azul::Index kCycleIters = 3;
const std::vector<std::string> kCycleMatrices = {"fem3d-dense", "geo-mesh",
                                                 "grid2d"};

/** What serving one request on the calling thread produced. */
struct Served {
    double seconds = 0.0; //!< host time of the Solve call
    azul::Index iterations = 0;
};
/** Serves one request against session `s`. */
using ServeFn = std::function<Served(std::size_t s)>;

/**
 * The kRounds schedule (harness.h) served FIFO on the calling thread.
 * A closed-loop round is one solve per session; the slice's
 * saturation is its solves over their summed Solve time. Open-loop
 * latency runs from each request's intended arrival time. Right after
 * every request the HostSpeedProbe runs once, and the request's solve
 * time or latency is reported divided by that slowness.
 */
void
DriveSequential(const RunArgs& args, std::size_t sessions,
                const ServeFn& serve, HostSpeedProbe& probe, Metrics& e2e,
                Metrics& layers)
{
    std::vector<std::vector<double>> solve_ms(sessions);
    // Per closed-loop round (one solve per session): solves and
    // iterations per second of summed Solve time.
    std::vector<double> round_solves_per_s;
    std::vector<double> round_iters_per_s;
    double iterations = 0.0;
    double solves = 0.0;
    std::vector<double> lag_ms;
    std::array<SessionSamples, 2> latency_ms = {SessionSamples(sessions),
                                                 SessionSamples(sessions)};
    std::array<std::mt19937_64, 2> rngs = {StreamRng(args.seed, 1),
                                           StreamRng(args.seed, 2)};
    const double slice = args.seconds / kRounds;
    for (int round = 0; round < kRounds; ++round) {
        const Clock::time_point closed_start = Clock::now();
        double slice_solves = 0.0;
        double slice_busy_s = 0.0; // as measured: sets the open-loop rates
        do {
            double busy_s = 0.0; // divided by the slowness
            double iters = 0.0;
            for (std::size_t s = 0; s < sessions; ++s) {
                const Served served = serve(s);
                const double slowness = probe.Slowness();
                solve_ms[s].push_back(served.seconds * 1e3 / slowness);
                busy_s += served.seconds / slowness;
                slice_busy_s += served.seconds;
                iters += static_cast<double>(served.iterations);
            }
            round_solves_per_s.push_back(static_cast<double>(sessions) /
                                         busy_s);
            round_iters_per_s.push_back(iters / busy_s);
            iterations += iters;
            solves += static_cast<double>(sessions);
            slice_solves += static_cast<double>(sessions);
        } while (SecondsSince(closed_start) < kClosedShare * slice);
        for (std::size_t i = 0; i < 2; ++i) {
            std::mt19937_64& rng = rngs[i];
            std::exponential_distribution<double> gap(
                kOpenLoad[i] * slice_solves / slice_busy_s);
            std::uniform_int_distribution<std::size_t> pick(0, sessions - 1);
            const Clock::time_point start = Clock::now();
            for (double due = gap(rng); due < kOpenShare * slice;
                 due += gap(rng)) {
                const Clock::time_point intended =
                    start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(due));
                if (Clock::now() < intended) {
                    PollUntil(intended);
                    lag_ms.push_back(MsSince(intended));
                }
                const std::size_t s = pick(rng);
                (void)serve(s);
                const double ms = MsSince(intended);
                latency_ms[i][s].push_back(ms / probe.Slowness());
            }
        }
    }
    e2e.Set("solve_ms_p50", GmeanOfPercentiles(solve_ms, 50.0), "ms");
    e2e.Set("solve_ms_p90", GmeanOfPercentiles(solve_ms, 90.0), "ms");
    e2e.Set("solves_per_s", Median(round_solves_per_s), "1/s");
    e2e.Set("sim_iters_per_s", Median(round_iters_per_s), "1/s");
    SetLatencyMetrics(latency_ms[0], latency_ms[1], e2e, layers);
    layers.Set("solver.iters_per_solve", iterations / solves, "count");
    layers.Set("gen.lag_ms_p99", Percentile(lag_ms, 99.0), "ms");
    layers.Set("host.slowness", probe.median_slowness(), "x");
}

/** Creates one system per matrix under core.create spans; returns the
 *  summed seconds, each divided by the slowness `probe` reads right
 *  after it, or a negative value when a Create failed. */
double
OpenAll(const std::vector<azul::SuiteMatrix>& suite, const AzulOptions& opts,
        Tracer& tracer, HostSpeedProbe& probe, Outcome& outcome,
        std::vector<AzulSystem>& out)
{
    double total = 0.0;
    for (const azul::SuiteMatrix& sm : suite) {
        outcome.Attempt();
        Span span(tracer, "core.create");
        azul::StatusOr<AzulSystem> sys = AzulSystem::Create(sm.a, opts);
        const double seconds = span.Stop();
        total += seconds / probe.Slowness();
        if (!sys.ok()) {
            outcome.Fail("Create(" + sm.name + "): " + sys.status().ToString());
            return -1.0;
        }
        out.push_back(*std::move(sys));
    }
    return total;
}

std::vector<const CsrMatrix*>
MatrixPointers(const std::vector<azul::SuiteMatrix>& suite)
{
    std::vector<const CsrMatrix*> out;
    for (const azul::SuiteMatrix& sm : suite) {
        out.push_back(&sm.a);
    }
    return out;
}

std::vector<AzulSystem*>
SystemPointers(std::vector<AzulSystem>& systems)
{
    std::vector<AzulSystem*> out;
    for (AzulSystem& sys : systems) {
        out.push_back(&sys);
    }
    return out;
}

} // namespace

void
RunColdOpen(const RunArgs& args, Tracer& tracer, Outcome& outcome,
            Metrics& e2e, Metrics& layers)
{
    const std::vector<azul::SuiteMatrix> suite = LoadSuite(kColdScale, {});
    HostSpeedProbe probe;
    AzulOptions opts = SessionOptions(EngineKind::kFunctional, "");
    opts.warm_start = true;
    std::vector<AzulSystem> systems;
    std::vector<double> setup_s;
    for (int rep = 0; rep < kColdSetupReps; ++rep) {
        systems.clear();
        setup_s.push_back(
            OpenAll(suite, opts, tracer, probe, outcome, systems));
        if (setup_s.back() < 0.0) {
            return;
        }
    }
    e2e.Set("setup_s", Median(setup_s), "s");

    std::vector<std::mt19937_64> rngs;
    std::vector<Vector> base;
    for (std::size_t s = 0; s < suite.size(); ++s) {
        rngs.push_back(StreamRng(args.seed, 10 + s));
        base.push_back(RandomVector(suite[s].a.rows(), rngs.back()));
    }
    HostPhaseObserver observer(tracer);
    if (tracer.enabled()) {
        for (AzulSystem& sys : systems) {
            sys.engine().AttachObserver(&observer);
        }
    }
    std::uint64_t next_request = 1;
    const ServeFn serve = [&](std::size_t s) {
        // Time steps: the next rhs is a small change of the base one,
        // and every solve after a session's first starts warm.
        const Vector b = StepRhs(base[s], rngs[s]);
        const std::uint64_t request = next_request++;
        observer.set_request(request);
        outcome.Attempt();
        Span span(tracer, "core.solve", request);
        const azul::SolveReport rep = systems[s].Solve(b);
        const Served served{span.Stop(), rep.run.iterations};
        if (!rep.run.converged) {
            outcome.Fail(suite[s].name + ": solve did not converge");
        } else if (RelResidual(suite[s].a, rep.run.x, b) > kResidualBound) {
            outcome.Fail(suite[s].name + ": true residual above bound");
        }
        return served;
    };
    DriveSequential(args, systems.size(), serve, probe, e2e, layers);
    for (AzulSystem& sys : systems) {
        sys.engine().DetachObserver(&observer);
    }
    if (tracer.enabled()) {
        std::vector<AzulSystem> probes =
            ProfilePipeline(MatrixPointers(suite), "", tracer, outcome, layers);
        ProfileFunctional(SystemPointers(probes), args.seed, tracer, outcome,
                          layers);
    }
}

void
RunCycleSim(const RunArgs& args, Tracer& tracer, Outcome& outcome,
            Metrics& e2e, Metrics& layers)
{
    const std::vector<azul::SuiteMatrix> suite =
        LoadSuite(kCycleScale, kCycleMatrices);
    HostSpeedProbe probe;
    const std::string& cache_dir = args.cache_dir;
    // Pre-fill the mapping cache (untimed): mapping is not this
    // workload's subject.
    {
        std::vector<AzulSystem> prefill;
        Tracer off(false);
        if (OpenAll(suite,
                    SessionOptions(EngineKind::kFunctional, cache_dir), off,
                    probe, outcome, prefill) < 0.0) {
            return;
        }
    }
    AzulOptions cycle_opts = SessionOptions(EngineKind::kCycle, cache_dir);
    cycle_opts.spec.tol = 0.0; // fixed-iteration solves
    cycle_opts.spec.max_iters = kCycleIters;
    AzulOptions oracle_opts = cycle_opts;
    oracle_opts.engine = EngineKind::kFunctional;
    std::vector<AzulSystem> cycle;
    std::vector<AzulSystem> oracle;
    std::vector<double> setup_s;
    for (int rep = 0; rep < kCycleSetupReps; ++rep) {
        cycle.clear();
        oracle.clear();
        const double c =
            OpenAll(suite, cycle_opts, tracer, probe, outcome, cycle);
        const double f =
            OpenAll(suite, oracle_opts, tracer, probe, outcome, oracle);
        if (c < 0.0 || f < 0.0) {
            return;
        }
        setup_s.push_back(c + f);
    }
    e2e.Set("setup_s", Median(setup_s), "s");

    std::vector<std::mt19937_64> rngs;
    for (std::size_t s = 0; s < suite.size(); ++s) {
        rngs.push_back(StreamRng(args.seed, 10 + s));
    }
    HostPhaseObserver observer(tracer);
    if (tracer.enabled()) {
        for (AzulSystem& sys : cycle) {
            sys.engine().AttachObserver(&observer);
        }
    }
    // Simulated totals per session: their per-iteration means weigh the
    // matrices equally, so they do not depend on the request mix.
    std::vector<azul::SimStats> sim(suite.size());
    std::vector<double> sim_iterations(suite.size(), 0.0);
    double solve_s = 0.0;
    std::uint64_t next_request = 1;
    const ServeFn serve = [&](std::size_t s) {
        const Vector b = RandomVector(suite[s].a.rows(), rngs[s]);
        const std::uint64_t request = next_request++;
        observer.set_request(request);
        outcome.Attempt();
        Span span(tracer, "core.solve", request);
        const azul::SolveReport rep =
            cycle[s].Solve(b, azul::RunBudget{}, Vector());
        const Served served{span.Stop(), rep.run.iterations};
        solve_s += served.seconds;
        sim_iterations[s] += static_cast<double>(rep.run.iterations);
        sim[s].cycles += rep.run.stats.cycles;
        sim[s].messages += rep.run.stats.messages;
        for (std::size_t c = 0; c < azul::kNumKernelClasses; ++c) {
            sim[s].class_cycles[c] += rep.run.stats.class_cycles[c];
        }
        // Oracle: the functional engine must reproduce x and the
        // iteration count bit for bit.
        const azul::SolveReport ref =
            oracle[s].Solve(b, azul::RunBudget{}, Vector());
        const Vector& x = rep.run.x;
        if (rep.run.iterations != kCycleIters ||
            ref.run.iterations != rep.run.iterations ||
            ref.run.x.size() != x.size() ||
            std::memcmp(ref.run.x.data(), x.data(),
                        x.size() * sizeof(double)) != 0) {
            outcome.Fail(suite[s].name +
                         ": cycle engine differs from functional engine");
        }
        return served;
    };
    DriveSequential(args, cycle.size(), serve, probe, e2e, layers);
    for (AzulSystem& sys : cycle) {
        sys.engine().DetachObserver(&observer);
    }
    if (!tracer.enabled()) {
        return;
    }

    const PhaseProfile& p = observer.profile();
    double cycles = 0.0;
    for (const azul::SimStats& st : sim) {
        cycles += static_cast<double>(st.cycles);
    }
    layers.Set("sim.cycle.host_ns_per_sim_cycle", solve_s / cycles * 1e9,
               "ns");
    const auto per_iter = [&](auto count) {
        double sum = 0.0;
        for (std::size_t s = 0; s < sim.size(); ++s) {
            sum += static_cast<double>(count(sim[s])) / sim_iterations[s];
        }
        return sum / static_cast<double>(sim.size());
    };
    for (int b = 0; b < kNumPhaseBuckets; ++b) {
        layers.Set(std::string("sim.cycle.host_share.") + PhaseBucketName(b),
                   p.bucket_seconds[static_cast<std::size_t>(b)] / solve_s,
                   "ratio");
    }
    layers.Set("sim.cycle.cycles_per_iter",
               per_iter([](const azul::SimStats& st) { return st.cycles; }),
               "cycles");
    for (std::size_t c = 0; c < azul::kNumKernelClasses; ++c) {
        layers.Set(std::string("sim.cycle.cycles_per_iter.") +
                       PhaseBucketName(static_cast<int>(c)),
                   per_iter([c](const azul::SimStats& st) {
                       return st.class_cycles[c];
                   }),
                   "cycles");
    }
    layers.Set("sim.cycle.msgs_per_iter",
               per_iter([](const azul::SimStats& st) { return st.messages; }),
               "count");
    layers.Set("sim.cycle.pe_issue_frac",
               static_cast<double>(p.issued_ops) /
                   (static_cast<double>(cycle_opts.sim.num_tiles()) *
                    static_cast<double>(p.matrix_cycles)),
               "ratio");
    // Converged functional solves for the sim.func.* profile and floors.
    std::vector<AzulSystem> probes = ProfilePipeline(
        MatrixPointers(suite), cache_dir, tracer, outcome, layers);
    ProfileFunctional(SystemPointers(probes), args.seed, tracer, outcome,
                      layers);
    // Tracing overhead on the engine this workload runs: the same
    // fixed-iteration solves with and without the observer and spans.
    double plain_s = 0.0;
    double traced_s = 0.0;
    for (std::size_t s = 0; s < cycle.size(); ++s) {
        const Vector b = RandomVector(suite[s].a.rows(), rngs[s]);
        for (int rep = 0; rep < 2; ++rep) {
            Clock::time_point t0 = Clock::now();
            (void)cycle[s].Solve(b, azul::RunBudget{}, Vector());
            plain_s += SecondsSince(t0);
            cycle[s].engine().AttachObserver(&observer);
            Span span(tracer, "core.solve");
            (void)cycle[s].Solve(b, azul::RunBudget{}, Vector());
            traced_s += span.Stop();
            cycle[s].engine().DetachObserver(&observer);
        }
    }
    layers.Set("trace.overhead_frac", traced_s / plain_s - 1.0, "ratio");
}

} // namespace perfbench
