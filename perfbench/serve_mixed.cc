/**
 * @file
 * serve-mixed: an AzulFleet of two single-threaded instances serving
 * eight tenants a mix of solves and value updates. The main thread
 * generates requests; one collector thread waits for and checks the
 * responses of the open-loop phases.
 */
#include <condition_variable>
#include <deque>
#include <optional>
#include <thread>

#include "fleet/azul_fleet.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kServeScale = 0.25;
constexpr int kServeSetupReps = 9;
constexpr std::size_t kTenants = 8;
/** Perturbed value sets per tenant an update can install. */
constexpr int kVersions = 4;
constexpr double kUpdateShare = 0.2;
/** Requests admitted at once in one closed-loop burst. */
constexpr std::size_t kBurst = 64;

/** One request from generation to its checked response. */
struct Pending {
    std::uint64_t tag = 0; //!< benchmark-side request number (spans)
    azul::RequestId id = 0;
    std::size_t tenant = 0;
    bool update = false;
    const CsrMatrix* a = nullptr; //!< values the request sees/installs
    Vector b;                     //!< solve right-hand side
    Clock::time_point intended;
    Clock::time_point submitted; //!< Submit* returned
};

/** What the checked responses of one phase measured. */
struct PhaseStats {
    /** Intended arrival -> response, per tenant (open loop only). */
    SessionSamples latency_ms = SessionSamples(kTenants);
    std::vector<double> queue_ms;
    std::vector<double> exec_solve_ms;
    std::vector<std::vector<double>> exec_solve_ms_by_tenant =
        std::vector<std::vector<double>>(kTenants);
    std::vector<double> exec_update_ms;
    double iterations = 0.0;
    std::array<double, 2> busy_s{}; //!< service seconds per instance
};

/** FIFO handing submitted requests to the collector thread. */
class PendingQueue {
  public:
    void
    Push(Pending p)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            items_.push_back(std::move(p));
        }
        cv_.notify_one();
    }
    void
    Close()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
        }
        cv_.notify_one();
    }
    /** Next request, or nullopt once closed and empty. */
    std::optional<Pending>
    Pop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
        if (items_.empty()) {
            return std::nullopt;
        }
        Pending p = std::move(items_.front());
        items_.pop_front();
        return p;
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Pending> items_;
    bool closed_ = false;
};

/** The fleet, its tenants, and the request generator/checker. */
class Traffic {
  public:
    Traffic(const RunArgs& args, const std::vector<azul::SuiteMatrix>& suite,
            Tracer& tracer, Outcome& outcome)
        : suite_(suite), tracer_(tracer), outcome_(outcome),
          rng_(StreamRng(args.seed, 3))
    {
        for (std::size_t t = 0; t < kTenants; ++t) {
            std::mt19937_64 rng = StreamRng(args.seed, 20 + t);
            base_.push_back(RandomVector(tenant_matrix(t).rows(), rng));
            std::vector<CsrMatrix> v = {tenant_matrix(t)};
            for (int k = 0; k < kVersions; ++k) {
                v.push_back(PerturbValues(tenant_matrix(t), rng));
            }
            versions_.push_back(std::move(v));
        }
        current_.assign(kTenants, 0);
    }

    /** Opens every tenant on a fresh fleet; the summed OpenSession
     *  seconds, or a negative value on failure. */
    double
    Open(const std::string& cache_dir)
    {
        fleet_.reset();
        azul::FleetOptions fopts;
        fopts.num_instances = 2;
        fopts.service.num_threads = 1;
        fopts.service.max_queue = 4096;
        fopts.service.mapping_cache_dir = cache_dir;
        fopts.record_replay_log = false; // nothing is killed
        azul::StatusOr<std::unique_ptr<azul::AzulFleet>> fleet =
            azul::AzulFleet::Create(std::move(fopts));
        if (!fleet.ok()) {
            outcome_.Fail("fleet: " + fleet.status().ToString());
            return -1.0;
        }
        fleet_ = *std::move(fleet);
        sessions_.clear();
        current_.assign(kTenants, 0);
        double total = 0.0;
        for (std::size_t t = 0; t < kTenants; ++t) {
            AzulOptions opts = SessionOptions(EngineKind::kFunctional, "");
            opts.warm_start = t % 2 == 1;
            outcome_.Attempt();
            Span span(tracer_, "fleet.open_session");
            const azul::StatusOr<azul::SessionId> id = fleet_->OpenSession(
                tenant_matrix(t), opts, "tenant-" + std::to_string(t));
            total += span.Stop();
            if (!id.ok()) {
                outcome_.Fail("open tenant-" + std::to_string(t) + ": " +
                              id.status().ToString());
                return -1.0;
            }
            sessions_.push_back(*id);
        }
        instance_.clear();
        for (const azul::SessionId id : sessions_) {
            const azul::StatusOr<int> inst = fleet_->InstanceOf(id);
            instance_.push_back(inst.ok() && *inst >= 0 ? *inst : 0);
        }
        return total;
    }

    /** Draws the next request of `tenant`: 80% solves of a fresh time
     *  step, 20% value updates (which later solves then see). */
    Pending
    Make(std::size_t tenant)
    {
        std::uniform_real_distribution<double> uni(0.0, 1.0);
        std::uniform_int_distribution<int> version(1, kVersions);
        Pending p;
        p.tag = next_tag_++;
        p.tenant = tenant;
        p.update = uni(rng_) < kUpdateShare;
        if (p.update) {
            current_[tenant] = version(rng_);
        } else {
            p.b = StepRhs(base_[tenant], rng_);
        }
        p.a = &versions_[tenant][static_cast<std::size_t>(current_[tenant])];
        return p;
    }

    /** Submits `p`; false (and a counted failure) when refused. */
    bool
    Submit(Pending& p)
    {
        outcome_.Attempt();
        ++attempts_;
        CsrMatrix a_new = p.update ? *p.a : CsrMatrix();
        Vector b = p.b;
        const azul::SessionId session = sessions_[p.tenant];
        Span span(tracer_, "fleet.submit", p.tag);
        const azul::StatusOr<azul::RequestId> id =
            p.update ? fleet_->SubmitUpdateValues(session, std::move(a_new))
                     : fleet_->SubmitSolve(session, std::move(b));
        submit_us_.push_back(span.Stop() * 1e6);
        p.submitted = Clock::now();
        if (!id.ok()) {
            ++refused_;
            outcome_.Fail("submit refused: " + id.status().ToString());
            return false;
        }
        p.id = *id;
        return true;
    }

    /** Waits for `p`'s response, checks it, and records it in `into`. */
    void
    Collect(const Pending& p, PhaseStats& into)
    {
        Span span(tracer_, "fleet.wait", p.tag);
        const azul::StatusOr<azul::SolveResponse> r = fleet_->Wait(p.id);
        span.Stop();
        if (!r.ok() || !r->status.ok()) {
            outcome_.Fail("response: " +
                          (r.ok() ? r->status : r.status()).ToString());
            return;
        }
        ++completed_;
        const azul::SolveResponse& resp = *r;
        if (!p.update) {
            if (!resp.report.run.converged) {
                outcome_.Fail("served solve did not converge");
            } else if (RelResidual(*p.a, resp.report.run.x, p.b) >
                       kResidualBound) {
                outcome_.Fail("served solve: true residual above bound");
            }
            into.iterations += static_cast<double>(resp.report.run.iterations);
            into.exec_solve_ms.push_back(resp.service_seconds * 1e3);
            into.exec_solve_ms_by_tenant[p.tenant].push_back(
                resp.service_seconds * 1e3);
        } else {
            into.exec_update_ms.push_back(resp.service_seconds * 1e3);
        }
        into.queue_ms.push_back(resp.queue_seconds * 1e3);
        into.latency_ms[p.tenant].push_back(
            (std::chrono::duration<double>(p.submitted - p.intended).count() +
             resp.queue_seconds + resp.service_seconds) *
            1e3);
        const int inst = instance_[p.tenant];
        into.busy_s[static_cast<std::size_t>(inst % 2)] += resp.service_seconds;
        if (tracer_.enabled()) {
            // Queue and execution as the response reports them, on one
            // trace row per instance.
            const auto at = [&p](double s) {
                return p.submitted + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(s));
            };
            const int row = 100 + inst;
            tracer_.Record("service.queue", p.submitted, at(resp.queue_seconds),
                           tracer_.NewId(), 0, p.tag, row);
            tracer_.Record(p.update ? "service.update" : "service.solve",
                           at(resp.queue_seconds),
                           at(resp.queue_seconds + resp.service_seconds),
                           tracer_.NewId(), 0, p.tag, row);
        }
    }

    /**
     * Request conservation after a drain: at the router, attempts ==
     * admitted + refused; per instance and summed, admitted ==
     * completed; and every admitted request was collected.
     */
    void
    CheckConservation()
    {
        fleet_->Drain();
        const azul::FleetStats fs = fleet_->stats();
        const std::int64_t refused = fs.service.rejected + fs.router_rejected;
        if (attempts_ != fs.service.submitted + refused || refused != refused_) {
            outcome_.Fail("router: submitted != admitted + refused");
        }
        std::int64_t admitted = 0;
        std::int64_t done = 0;
        for (const azul::ServiceStats& s : fleet_->per_instance_stats()) {
            admitted += s.submitted;
            done += s.completed;
            if (s.submitted != s.completed) {
                outcome_.Fail("instance: admitted != completed");
            }
        }
        if (admitted != fs.service.submitted || done != completed_) {
            outcome_.Fail("instances: sum of admitted != collected");
        }
    }

    azul::AzulFleet& fleet() { return *fleet_; }
    const std::vector<int>& instance_of_tenant() const { return instance_; }
    const std::vector<double>& submit_us() const { return submit_us_; }
    const CsrMatrix& version(std::size_t t, int v) const
    {
        return versions_[t][static_cast<std::size_t>(v)];
    }

  private:
    const CsrMatrix& tenant_matrix(std::size_t t) const
    {
        return suite_[t % suite_.size()].a;
    }

    const std::vector<azul::SuiteMatrix>& suite_;
    Tracer& tracer_;
    Outcome& outcome_;
    std::mt19937_64 rng_;
    std::vector<Vector> base_;
    std::vector<std::vector<CsrMatrix>> versions_;
    std::vector<int> current_; //!< version the next solve sees
    std::unique_ptr<azul::AzulFleet> fleet_;
    std::vector<azul::SessionId> sessions_;
    std::vector<int> instance_;
    std::vector<double> submit_us_;
    std::uint64_t next_tag_ = 1;
    std::int64_t attempts_ = 0;
    std::int64_t refused_ = 0;
    std::int64_t completed_ = 0;
};

/** Poisson arrivals at `rate` for `duration` seconds; the collector
 *  thread checks responses as they complete. Appends the generator's
 *  lateness samples to `lag_ms`. */
void
OpenLoop(Traffic& traffic, double rate, double duration, std::mt19937_64& rng,
         PhaseStats& stats, std::vector<double>& lag_ms)
{
    PendingQueue queue;
    std::thread collector([&] {
        while (std::optional<Pending> p = queue.Pop()) {
            traffic.Collect(*p, stats);
        }
    });
    // Closes the queue and joins on every exit path.
    struct Joiner {
        PendingQueue& q;
        std::thread& t;
        ~Joiner()
        {
            q.Close();
            t.join();
        }
    } joiner{queue, collector};

    std::exponential_distribution<double> gap(rate);
    std::uniform_int_distribution<std::size_t> pick(0, kTenants - 1);
    const Clock::time_point start = Clock::now();
    for (double due = gap(rng); due < duration; due += gap(rng)) {
        const Clock::time_point intended =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due));
        PollUntil(intended);
        Pending p = traffic.Make(pick(rng));
        p.intended = intended;
        lag_ms.push_back(MsSince(intended));
        if (traffic.Submit(p)) {
            queue.Push(std::move(p));
        }
    }
}

double
MaxOverMean(const std::vector<double>& xs)
{
    double max = 0.0;
    double sum = 0.0;
    for (const double x : xs) {
        max = std::max(max, x);
        sum += x;
    }
    return sum > 0.0 ? max / (sum / static_cast<double>(xs.size())) : 0.0;
}

} // namespace

void
RunServeMixed(const RunArgs& args, Tracer& tracer, Outcome& outcome,
              Metrics& e2e, Metrics& layers)
{
    const std::vector<azul::SuiteMatrix> suite = LoadSuite(kServeScale, {});
    const std::string& cache_dir = args.cache_dir;
    std::vector<const CsrMatrix*> matrices;
    // Pre-fill the mapping cache (untimed): sessions open cache-warm.
    for (const azul::SuiteMatrix& sm : suite) {
        matrices.push_back(&sm.a);
        outcome.Attempt();
        const azul::StatusOr<AzulSystem> sys = AzulSystem::Create(
            sm.a, SessionOptions(EngineKind::kFunctional, cache_dir));
        if (!sys.ok()) {
            outcome.Fail("pre-fill " + sm.name + ": " + sys.status().ToString());
            return;
        }
    }
    Traffic traffic(args, suite, tracer, outcome);
    std::vector<double> setup_s;
    for (int rep = 0; rep < kServeSetupReps; ++rep) {
        setup_s.push_back(traffic.Open(cache_dir));
        if (setup_s.back() < 0.0) {
            return;
        }
    }
    e2e.Set("setup_s", Median(setup_s), "s");

    // Closed loop: bursts admitted at once, then collected in order.
    PhaseStats closed;
    PhaseStats low;
    PhaseStats high;
    // Per burst: completed requests per second. Solver iterations per
    // burst vary with its mix of warm, cold and update requests, so
    // their rate is taken over the whole closed loop.
    std::vector<double> burst_per_s;
    double closed_wall_s = 0.0;
    std::size_t next_tenant = 0;
    std::vector<double> lag_ms;
    std::mt19937_64 low_rng = StreamRng(args.seed, 1);
    std::mt19937_64 high_rng = StreamRng(args.seed, 2);
    const double slice = args.seconds / kRounds;
    for (int round = 0; round < kRounds; ++round) {
        const Clock::time_point closed_start = Clock::now();
        double slice_done = 0.0;
        while (SecondsSince(closed_start) < kClosedShare * slice) {
            std::vector<Pending> burst;
            const Clock::time_point t0 = Clock::now();
            for (std::size_t i = 0; i < kBurst; ++i) {
                Pending p = traffic.Make(next_tenant++ % kTenants);
                p.intended = Clock::now();
                if (traffic.Submit(p)) {
                    burst.push_back(std::move(p));
                }
            }
            for (const Pending& p : burst) {
                traffic.Collect(p, closed);
            }
            const double wall = SecondsSince(t0);
            burst_per_s.push_back(static_cast<double>(burst.size()) / wall);
            closed_wall_s += wall;
            slice_done += static_cast<double>(burst.size());
        }
        const double saturation = slice_done / SecondsSince(closed_start);
        OpenLoop(traffic, kOpenLoad[0] * saturation, kOpenShare * slice,
                 low_rng, low, lag_ms);
        OpenLoop(traffic, kOpenLoad[1] * saturation, kOpenShare * slice,
                 high_rng, high, lag_ms);
    }
    e2e.Set("solve_ms_p50",
            GmeanOfPercentiles(closed.exec_solve_ms_by_tenant, 50.0), "ms");
    e2e.Set("solve_ms_p90",
            GmeanOfPercentiles(closed.exec_solve_ms_by_tenant, 90.0), "ms");
    e2e.Set("solves_per_s", Median(burst_per_s), "1/s");
    e2e.Set("sim_iters_per_s", closed.iterations / closed_wall_s, "1/s");
    SetLatencyMetrics(low.latency_ms, high.latency_ms, e2e, layers);
    traffic.CheckConservation();
    if (!tracer.enabled()) {
        return;
    }

    const double solves = static_cast<double>(
        closed.exec_solve_ms.size() + low.exec_solve_ms.size() +
        high.exec_solve_ms.size());
    layers.Set("solver.iters_per_solve",
               (closed.iterations + low.iterations + high.iterations) / solves,
               "count");
    layers.Set("service.queue_ms_p50", Percentile(high.queue_ms, 50.0), "ms");
    layers.Set("service.queue_ms_p99", Percentile(high.queue_ms, 99.0), "ms");
    layers.Set("service.exec_solve_ms_p50",
               Percentile(high.exec_solve_ms, 50.0), "ms");
    layers.Set("service.exec_update_ms_p50",
               Percentile(high.exec_update_ms, 50.0), "ms");
    const azul::FleetStats fs = traffic.fleet().stats();
    layers.Set("service.rejected", static_cast<double>(fs.service.rejected),
               "count");
    layers.Set("service.deadline_expired",
               static_cast<double>(fs.service.deadline_expired), "count");
    layers.Set("fleet.submit_us_p50", Percentile(traffic.submit_us(), 50.0),
               "us");
    std::vector<double> sessions_per_instance(2, 0.0);
    for (const int inst : traffic.instance_of_tenant()) {
        sessions_per_instance[static_cast<std::size_t>(inst % 2)] += 1.0;
    }
    layers.Set("fleet.sessions_max_over_mean",
               MaxOverMean(sessions_per_instance), "ratio");
    std::vector<double> busy(2, 0.0);
    for (const PhaseStats* st : {&closed, &low, &high}) {
        busy[0] += st->busy_s[0];
        busy[1] += st->busy_s[1];
    }
    layers.Set("fleet.busy_max_over_mean", MaxOverMean(busy), "ratio");
    layers.Set("gen.lag_ms_p99", Percentile(lag_ms, 99.0), "ms");

    // The tenants' layers from outside the fleet: the pipeline stages,
    // cache-warm Create, the UpdateValues write path, and the
    // functional engine's phase profile.
    std::vector<AzulSystem> systems =
        ProfilePipeline(matrices, cache_dir, tracer, outcome, layers);
    std::vector<double> update_ms;
    for (std::size_t t = 0; t < systems.size(); ++t) {
        for (int v = 1; v <= 2; ++v) {
            Span span(tracer, "core.update_values");
            const azul::Status st = systems[t].UpdateValues(traffic.version(t, v));
            update_ms.push_back(span.Stop() * 1e3);
            if (!st.ok()) {
                outcome.Fail("UpdateValues: " + st.ToString());
            }
        }
    }
    layers.Set("core.update_values_ms", Median(update_ms), "ms");
    std::vector<AzulSystem*> ptrs;
    for (AzulSystem& sys : systems) {
        ptrs.push_back(&sys);
    }
    ProfileFunctional(ptrs, args.seed, tracer, outcome, layers);
}

} // namespace perfbench
