#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "dataflow/program.h"
#include "mapping/azul_mapper.h"
#include "mapping/mapper_factory.h"
#include "mapping/mapping_cache.h"
#include "mapping/partitioner.h"
#include "solver/coloring.h"
#include "solver/pcg.h"
#include "solver/preconditioner.h"
#include "solver/spmv.h"

namespace perfbench {

using azul::Index;

std::mt19937_64
StreamRng(std::uint64_t seed, std::uint64_t stream)
{
    // SplitMix64 finalizer over (seed, stream): decorrelated streams.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return std::mt19937_64(z ^ (z >> 31));
}

Vector
RandomVector(Index n, std::mt19937_64& rng)
{
    std::uniform_real_distribution<double> uni(-1.0, 1.0);
    Vector v(static_cast<std::size_t>(n));
    for (double& x : v) {
        x = uni(rng);
    }
    return v;
}

Vector
StepRhs(const Vector& base, std::mt19937_64& rng)
{
    std::uniform_real_distribution<double> uni(-1.0, 1.0);
    Vector b = base;
    for (double& x : b) {
        x += 0.01 * uni(rng);
    }
    return b;
}

CsrMatrix
PerturbValues(const CsrMatrix& a, std::mt19937_64& rng)
{
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    const double c = 0.95 + 0.1 * uni(rng);
    double diag_sum = 0.0;
    for (Index r = 0; r < a.rows(); ++r) {
        diag_sum += a.At(r, r);
    }
    const double d = 0.01 * uni(rng) * diag_sum /
                     static_cast<double>(a.rows());
    CsrMatrix out = a;
    std::vector<double>& vals = out.mutable_vals();
    for (Index r = 0; r < a.rows(); ++r) {
        for (Index k = a.RowBegin(r); k < a.RowEnd(r); ++k) {
            const std::size_t i = static_cast<std::size_t>(k);
            vals[i] = c * vals[i] + (a.col_idx()[i] == r ? d : 0.0);
        }
    }
    return out;
}

std::vector<azul::SuiteMatrix>
LoadSuite(double scale, const std::vector<std::string>& names)
{
    std::vector<azul::SuiteMatrix> suite = azul::MakeBenchmarkSuite(scale);
    if (names.empty()) {
        return suite;
    }
    std::vector<azul::SuiteMatrix> picked;
    for (azul::SuiteMatrix& sm : suite) {
        if (std::find(names.begin(), names.end(), sm.name) != names.end()) {
            picked.push_back(std::move(sm));
        }
    }
    return picked;
}

AzulOptions
SessionOptions(EngineKind engine, const std::string& cache_dir)
{
    AzulOptions o;
    o.sim.grid_width = kGridSide;
    o.sim.grid_height = kGridSide;
    o.engine = engine;
    o.spec.tol = kTol;
    o.mapping_cache_dir = cache_dir;
    return o;
}

double
RelResidual(const CsrMatrix& a, const Vector& x, const Vector& b)
{
    Vector r = b;
    const Vector ax = azul::SpMV(a, x);
    double rr = 0.0;
    double bb = 0.0;
    for (std::size_t i = 0; i < r.size(); ++i) {
        r[i] -= ax[i];
        rr += r[i] * r[i];
        bb += b[i] * b[i];
    }
    return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

double
Percentile(std::vector<double> xs, double p)
{
    if (xs.empty()) {
        return 0.0;
    }
    std::sort(xs.begin(), xs.end());
    const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double
Median(std::vector<double> xs)
{
    return Percentile(std::move(xs), 50.0);
}

double
MsSince(Clock::time_point t0)
{
    return SecondsSince(t0) * 1e3;
}

void
PollUntil(Clock::time_point t)
{
    while (Clock::now() < t) {
    }
}

double
GmeanOfPercentiles(const std::vector<std::vector<double>>& groups, double p)
{
    double log_sum = 0.0;
    int n = 0;
    for (const std::vector<double>& g : groups) {
        if (!g.empty()) {
            log_sum += std::log(Percentile(g, p));
            ++n;
        }
    }
    return n > 0 ? std::exp(log_sum / n) : 0.0;
}

void
SetLatencyMetrics(const SessionSamples& low, const SessionSamples& high,
                  Metrics& e2e, Metrics& layers)
{
    e2e.Set("lat_low_ms_p50", GmeanOfPercentiles(low, 50.0), "ms");
    layers.Set("open.lat_high_ms_p50", GmeanOfPercentiles(high, 50.0), "ms");
    for (const auto& [label, sessions] :
         {std::pair<std::string, const SessionSamples*>{"low", &low},
          std::pair<std::string, const SessionSamples*>{"high", &high}}) {
        std::vector<double> pooled;
        for (const std::vector<double>& xs : *sessions) {
            pooled.insert(pooled.end(), xs.begin(), xs.end());
        }
        layers.Set("open.lat_" + label + "_ms_p99", Percentile(pooled, 99.0),
                   "ms");
    }
}

void
Outcome::Attempt(std::int64_t n)
{
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += n;
}

void
Outcome::Fail(const std::string& what)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    if (messages_.size() < 20) {
        messages_.push_back(what);
    }
}

std::int64_t
Outcome::attempted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return attempted_;
}

std::int64_t
Outcome::failed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
}

std::vector<std::string>
Outcome::messages() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
}

void
Metrics::Set(const std::string& name, double value, const std::string& unit)
{
    for (Row& row : rows_) {
        if (row.name == name) {
            row.value = value;
            row.unit = unit;
            return;
        }
    }
    rows_.push_back({name, value, unit});
}

void
Metrics::Print() const
{
    for (const Row& row : rows_) {
        std::printf("%-42s %16.6g %s\n", row.name.c_str(), row.value,
                    row.unit.c_str());
    }
}

std::string
Metrics::ToJson() const
{
    std::ostringstream out;
    out << "{";
    char buf[64];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        const double v = std::isfinite(rows_[i].value) ? rows_[i].value : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out << (i == 0 ? "" : ", ") << "\"" << rows_[i].name
            << "\": {\"value\": " << buf << ", \"unit\": \""
            << rows_[i].unit << "\"}";
    }
    out << "}";
    return out.str();
}

HostSpeedProbe::HostSpeedProbe()
{
    constexpr std::int32_t kSide = 100;
    row_ptr_.push_back(0);
    for (std::int32_t i = 0; i < kSide; ++i) {
        for (std::int32_t j = 0; j < kSide; ++j) {
            const std::int32_t row = i * kSide + j;
            for (const std::int32_t d : {-kSide, -1, 0, 1, kSide}) {
                const std::int32_t c = row + d;
                if (c >= 0 && c < kSide * kSide) {
                    col_.push_back(c);
                    val_.push_back(d == 0 ? 4.0 : -1.0);
                }
            }
            row_ptr_.push_back(static_cast<std::int32_t>(col_.size()));
        }
    }
    y_.assign(static_cast<std::size_t>(kSide * kSide), 0.0);
}

void
HostSpeedProbe::Sweep()
{
    for (std::size_t r = 0; r + 1 < row_ptr_.size(); ++r) {
        double acc = 0.0;
        for (std::int32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
            const std::size_t i = static_cast<std::size_t>(k);
            acc += val_[i] * x_[static_cast<std::size_t>(col_[i])];
        }
        y_[r] = 0.25 * acc;
    }
    x_.swap(y_);
}

double
HostSpeedProbe::Slowness()
{
    // An untimed first sweep brings the kernel's data back into cache,
    // so the timed sweeps do not depend on what the request before
    // left there.
    x_.assign(y_.size(), 1.0);
    Sweep();
    const Clock::time_point t0 = Clock::now();
    for (int sweep = 0; sweep < 8; ++sweep) {
        Sweep();
    }
    sink_ += x_[x_.size() / 2];
    samples_.push_back(MsSince(t0) / kReferenceMs);
    return samples_.back();
}

double
HostSpeedProbe::median_slowness() const
{
    return samples_.empty() ? 1.0 : Median(samples_);
}

double
PeakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB on Linux
}

const std::vector<std::pair<std::string, std::string>>&
LayerMetricNames()
{
    static const std::vector<std::pair<std::string, std::string>> kNames = [] {
        std::vector<std::pair<std::string, std::string>> n = {
            {"solver.color_s", "s"},
            {"solver.factor_s", "s"},
            {"solver.iters_per_solve", "count"},
            {"mapping.map_s", "s"},
            {"mapping.hypergraph_s", "s"},
            {"mapping.coarsen_s", "s"},
            {"mapping.initial_s", "s"},
            {"mapping.refine_s", "s"},
            {"mapping.fm_s", "s"},
            {"mapping.extract_s", "s"},
            {"mapping.traffic_msgs", "count"},
            {"mapping.cache_open_s", "s"},
            {"dataflow.compile_s", "s"},
            {"core.create_s", "s"},
            {"core.update_values_ms", "ms"},
            {"core.solve_other_ms", "ms"},
            {"core.solve_ms_x_floor", "x"},
        };
        for (const char* k : {"spmv_ns_per_nnz", "sptrsv_fwd_ns_per_nnz",
                              "sptrsv_bwd_ns_per_nnz", "vector_ns_per_slot",
                              "iter_ns_per_nnz"}) {
            n.push_back({std::string("sim.func.") + k, "ns"});
            n.push_back({std::string("sim.func.") + k + "_x_floor", "x"});
        }
        n.push_back({"sim.cycle.host_ns_per_sim_cycle", "ns"});
        for (int b = 0; b < kNumPhaseBuckets; ++b) {
            n.push_back({std::string("sim.cycle.host_share.") +
                             PhaseBucketName(b),
                         "ratio"});
        }
        n.push_back({"sim.cycle.cycles_per_iter", "cycles"});
        for (int b = 0; b < 4; ++b) {
            n.push_back({std::string("sim.cycle.cycles_per_iter.") +
                             PhaseBucketName(b),
                         "cycles"});
        }
        const std::vector<std::pair<std::string, std::string>> tail = {
            {"sim.cycle.msgs_per_iter", "count"},
            {"sim.cycle.pe_issue_frac", "ratio"},
            {"service.queue_ms_p50", "ms"},
            {"service.queue_ms_p99", "ms"},
            {"service.exec_solve_ms_p50", "ms"},
            {"service.exec_update_ms_p50", "ms"},
            {"service.rejected", "count"},
            {"service.deadline_expired", "count"},
            {"fleet.submit_us_p50", "us"},
            {"fleet.sessions_max_over_mean", "ratio"},
            {"fleet.busy_max_over_mean", "ratio"},
            {"gen.lag_ms_p99", "ms"},
            {"host.slowness", "x"},
            {"open.lat_high_ms_p50", "ms"},
            {"open.lat_low_ms_p99", "ms"},
            {"open.lat_high_ms_p99", "ms"},
            {"floor.csr_spmv_ns_per_nnz", "ns"},
            {"floor.axpy_ns_per_slot", "ns"},
            {"floor.host_pcg_ms", "ms"},
            {"trace.overhead_frac", "ratio"},
        };
        n.insert(n.end(), tail.begin(), tail.end());
        return n;
    }();
    return kNames;
}

Metrics
CompleteLayerMetrics(const Metrics& measured)
{
    Metrics out;
    for (const auto& [name, unit] : LayerMetricNames()) {
        double value = 0.0;
        for (const Metrics::Row& row : measured.rows()) {
            if (row.name == name) {
                value = row.value;
            }
        }
        out.Set(name, value, unit);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Traced-run probes.

std::vector<AzulSystem>
ProfilePipeline(const std::vector<const CsrMatrix*>& matrices,
                const std::string& cache_dir, Tracer& tracer,
                Outcome& outcome, Metrics& layers)
{
    std::vector<AzulSystem> systems;
    double create_s = 0.0;
    const AzulOptions base = SessionOptions(EngineKind::kFunctional, cache_dir);
    azul::AzulMapperOptions mopts = base.azul_mapper;
    mopts.grid_width = base.sim.grid_width;
    mopts.grid_height = base.sim.grid_height;
    const std::int32_t tiles = base.sim.num_tiles();
    azul::PartitionPhaseStats phases;
    double traffic = 0.0;
    for (const CsrMatrix* a : matrices) {
        azul::ColoredMatrix colored;
        {
            Span span(tracer, "solver.color");
            colored = azul::ColorAndPermute(*a);
        }
        CsrMatrix l;
        {
            Span span(tracer, "solver.factor");
            l = *azul::MakePreconditioner(base.spec.precond, colored.a)
                     ->lower_factor();
        }
        azul::MappingProblem prob;
        prob.a = &colored.a;
        prob.l = &l;
        const auto mapper = azul::MakeMapper(base.mapper, mopts);
        azul::DataMapping mapping;
        if (cache_dir.empty()) {
            {
                Span span(tracer, "mapping.hypergraph");
                const azul::Hypergraph hg =
                    azul::AzulMapper(mopts).BuildHypergraph(prob);
                span.Stop();
                Span partition(tracer, "mapping.partition");
                (void)azul::PartitionHypergraph(hg, tiles, mopts.partitioner,
                                                &phases);
            }
            Span span(tracer, "mapping.map");
            mapping = mapper->Map(prob, tiles);
        } else {
            azul::MappingCache cache(cache_dir);
            const std::uint64_t key =
                azul::MappingCacheKey(prob, mapper->name(), tiles, mopts);
            Span span(tracer, "mapping.cache_open");
            std::optional<azul::DataMapping> hit =
                cache.TryLoad(key, prob, tiles);
            span.Stop();
            if (!hit.has_value()) {
                outcome.Fail("mapping cache miss after pre-fill");
                continue;
            }
            mapping = *std::move(hit);
        }
        {
            Span span(tracer, "mapping.traffic");
            traffic += azul::EstimateTraffic(prob, mapping).total();
        }
        azul::ProgramBuildInputs in;
        in.a = &colored.a;
        in.l = &l;
        in.precond = base.spec.precond;
        in.mapping = &mapping;
        in.geom = base.sim.geometry();
        in.graph = base.graph;
        in.jacobi_omega = base.spec.jacobi_omega;
        in.restart = base.spec.restart;
        {
            Span span(tracer, "dataflow.compile");
            (void)azul::BuildSolverProgram(base.spec.method, in);
        }
        Span span(tracer, "core.create");
        azul::StatusOr<AzulSystem> sys = AzulSystem::Create(*a, base);
        create_s += span.Stop();
        if (!sys.ok()) {
            outcome.Fail("Create: " + sys.status().ToString());
            continue;
        }
        systems.push_back(*std::move(sys));
    }
    const auto total = [&tracer](const char* name) {
        return tracer.TotalSeconds(name);
    };
    layers.Set("solver.color_s", total("solver.color"), "s");
    layers.Set("solver.factor_s", total("solver.factor"), "s");
    layers.Set("mapping.map_s", total("mapping.map"), "s");
    layers.Set("mapping.hypergraph_s", total("mapping.hypergraph"), "s");
    layers.Set("mapping.coarsen_s", phases.coarsen.seconds(), "s");
    layers.Set("mapping.initial_s", phases.initial.seconds(), "s");
    layers.Set("mapping.refine_s", phases.refine.seconds(), "s");
    layers.Set("mapping.fm_s", phases.fm_refine.seconds(), "s");
    layers.Set("mapping.extract_s", phases.extract.seconds(), "s");
    layers.Set("mapping.traffic_msgs", traffic, "count");
    layers.Set("mapping.cache_open_s", total("mapping.cache_open"), "s");
    layers.Set("dataflow.compile_s", total("dataflow.compile"), "s");
    layers.Set("core.create_s", create_s, "s");
    return systems;
}

namespace {

/** Median over `trials` of the per-call seconds of `fn` repeated
 *  until one trial lasts at least 5 ms. */
template <typename Fn>
double
FloorSeconds(Fn&& fn, int trials = 5)
{
    int reps = 1;
    for (;;) {
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < reps; ++i) {
            fn();
        }
        if (SecondsSince(t0) >= 5e-3 || reps >= (1 << 20)) {
            break;
        }
        reps *= 2;
    }
    std::vector<double> per_call;
    for (int t = 0; t < trials; ++t) {
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < reps; ++i) {
            fn();
        }
        per_call.push_back(SecondsSince(t0) / reps);
    }
    return Median(per_call);
}

} // namespace

void
ProfileFunctional(std::vector<AzulSystem*> systems, std::uint64_t seed,
                  Tracer& tracer, Outcome& outcome, Metrics& layers)
{
    constexpr int kReps = 3;
    double spmv_floor_s = 0.0;
    double axpy_floor_s = 0.0;
    double pcg_floor_s = 0.0;
    double nnz_sum = 0.0;
    double slot_sum = 0.0;
    double untraced_s = 0.0;
    double traced_s = 0.0;
    double other_s = 0.0;
    // Phase clocks only (no span recording) for the profile; the full
    // tracer only for the overhead comparison.
    Tracer quiet(false);
    HostPhaseObserver profiler(quiet);
    HostPhaseObserver traced(tracer);
    const PhaseProfile& profile = profiler.profile();
    // Work units the observed phases covered, per bucket.
    std::array<double, kNumPhaseBuckets> units{};
    double iter_units = 0.0;
    for (std::size_t s = 0; s < systems.size(); ++s) {
        AzulSystem& sys = *systems[s];
        const CsrMatrix& a = sys.matrix();
        const double nnz = static_cast<double>(a.nnz());
        const double n = static_cast<double>(a.rows());
        const double lnnz =
            sys.factor() != nullptr ? static_cast<double>(sys.factor()->nnz())
                                    : 0.0;
        std::mt19937_64 rng = StreamRng(seed, 9000 + s);
        const Vector b = RandomVector(a.rows(), rng);
        const Vector b_perm = azul::PermuteVector(b, sys.permutation());

        Vector y(b.size(), 0.0);
        spmv_floor_s +=
            FloorSeconds([&] { azul::SpMVAccumulate(a, b_perm, y); });
        axpy_floor_s += FloorSeconds([&] { azul::Axpy(1e-3, b_perm, y); });
        nnz_sum += nnz;
        slot_sum += n;

        const auto precond =
            azul::MakePreconditioner(sys.options().spec.precond, a);
        const double abs_tol = kTol * azul::Norm2(b_perm);
        std::vector<double> pcg_s;
        for (int r = 0; r < kReps; ++r) {
            const Clock::time_point t0 = Clock::now();
            const azul::SolveResult ref =
                azul::PreconditionedConjugateGradients(a, b_perm, *precond,
                                                       abs_tol, 1000);
            pcg_s.push_back(SecondsSince(t0));
            if (!ref.converged) {
                outcome.Fail("host PCG floor did not converge");
            }
        }
        pcg_floor_s += Median(pcg_s);

        // The same cold solve untraced, under the phase clocks, and
        // fully traced.
        const PhaseProfile before = profile;
        std::vector<double> plain_s;
        std::vector<double> traced_s_reps;
        for (int r = 0; r < kReps; ++r) {
            Clock::time_point t0 = Clock::now();
            (void)sys.Solve(b, azul::RunBudget{}, Vector());
            plain_s.push_back(SecondsSince(t0));

            const double phases_before = profile.phase_seconds;
            sys.engine().AttachObserver(&profiler);
            t0 = Clock::now();
            const azul::SolveReport rep =
                sys.Solve(b, azul::RunBudget{}, Vector());
            other_s += (SecondsSince(t0) -
                        (profile.phase_seconds - phases_before)) /
                       kReps;
            sys.engine().DetachObserver(&profiler);
            if (!rep.run.converged ||
                RelResidual(a, azul::PermuteVector(rep.run.x, sys.permutation()),
                            b_perm) > kResidualBound) {
                outcome.Fail("profiled functional solve failed the oracle");
            }

            sys.engine().AttachObserver(&traced);
            Span span(tracer, "core.solve");
            (void)sys.Solve(b, azul::RunBudget{}, Vector());
            traced_s_reps.push_back(span.Stop());
            sys.engine().DetachObserver(&traced);
        }
        untraced_s += Median(plain_s);
        traced_s += Median(traced_s_reps);
        const auto added = [&](int bucket) {
            const std::size_t i = static_cast<std::size_t>(bucket);
            return static_cast<double>(profile.bucket_count[i] -
                                       before.bucket_count[i]);
        };
        units[0] += added(0) * nnz;
        units[1] += added(1) * lnnz;
        units[2] += added(2) * lnnz;
        units[3] += added(3) * n;
        iter_units +=
            static_cast<double>(profile.iterations - before.iterations) * nnz;
    }
    const double csr_floor_ns = spmv_floor_s / nnz_sum * 1e9;
    const double axpy_floor_ns = axpy_floor_s / slot_sum * 1e9;
    const auto ns_per = [](double seconds, double count) {
        return count > 0.0 ? seconds / count * 1e9 : 0.0;
    };
    const double kernel_ns[4] = {
        ns_per(profile.bucket_seconds[0], units[0]),
        ns_per(profile.bucket_seconds[1], units[1]),
        ns_per(profile.bucket_seconds[2], units[2]),
        ns_per(profile.bucket_seconds[3], units[3]),
    };
    const char* const kKernelNames[4] = {
        "spmv_ns_per_nnz", "sptrsv_fwd_ns_per_nnz", "sptrsv_bwd_ns_per_nnz",
        "vector_ns_per_slot"};
    for (int k = 0; k < 4; ++k) {
        const std::string name = std::string("sim.func.") + kKernelNames[k];
        const double floor = k == 3 ? axpy_floor_ns : csr_floor_ns;
        layers.Set(name, kernel_ns[k], "ns");
        layers.Set(name + "_x_floor", kernel_ns[k] / floor, "x");
    }
    const double iter_ns = ns_per(profile.iteration_seconds, iter_units);
    layers.Set("sim.func.iter_ns_per_nnz", iter_ns, "ns");
    layers.Set("sim.func.iter_ns_per_nnz_x_floor", iter_ns / csr_floor_ns,
               "x");
    const double count = static_cast<double>(systems.size());
    layers.Set("core.solve_other_ms", other_s / count * 1e3, "ms");
    layers.Set("core.solve_ms_x_floor", untraced_s / pcg_floor_s, "x");
    layers.Set("floor.csr_spmv_ns_per_nnz", csr_floor_ns, "ns");
    layers.Set("floor.axpy_ns_per_slot", axpy_floor_ns, "ns");
    layers.Set("floor.host_pcg_ms", pcg_floor_s / count * 1e3, "ms");
    layers.Set("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio");
}

} // namespace perfbench
