/**
 * @file
 * The two workloads that go through the fleet's front door
 * (ShardedSolveService, 1 rack x 3 dies, tenants cfd:ckt = 3:1):
 *
 *  - serve_open: independent clients. Seeded Poisson arrivals at
 *    60 req/s of raw verified requests (tolerance 0) drawn 4:2:2:1
 *    from 2D Poisson n=9, 2D Poisson n=16, 1D Poisson n=8 and a 3x3
 *    RC grid parsed from SPICE deck text. Library-default dies, except
 *    two program-cache slots per die (fewer than the patterns).
 *
 *  - precise_closed: callers that need digital precision. Three
 *    clients in a closed loop cycle through four tolerance-1e-8 kinds
 *    (refinement on Poisson n=9 and the RC grid, FGMRES on a
 *    nonsymmetric convection-diffusion system, flexible CG on a
 *    kappa=20 SPD system) on SimMode::Ideal dies.
 *
 * Both submit each fleet's warm-up burst with the fleet paused, so the
 * burst dispatches as one deterministic round and each pattern's home
 * die depends only on the seed.
 */

#include <algorithm>
#include <functional>
#include <cmath>
#include <future>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "aa/compiler/program.hh"
#include "aa/la/generate.hh"
#include "aa/pde/convection.hh"
#include "aa/pde/poisson.hh"
#include "aa/service/shard.hh"
#include "aa/spice/generate.hh"
#include "aa/spice/mna.hh"
#include "workload.hh"

namespace pb {

namespace {

using namespace aa;

constexpr std::size_t kDies = 3;
/** Fleets per run, each serving an equal share of the timed window.
 *  The RC grid's cost per answer varies about 4x from die to die, so
 *  a run's spread across seeds falls with the number of die corners
 *  it samples: one fleet per second of a 40 s run left the error and
 *  latency quantiles of precise_closed spreading 0.1-0.3. */
constexpr std::size_t kSegments = 80;
/** Warm-up requests per kind in the paused burst. */
constexpr std::size_t kWarmupPerKind = 2;
/** Requests per kind in the serial fingerprint pass. */
constexpr std::size_t kFingerprintPerKind = 3;
/** Parse + MNA repetitions behind spice.assemble_ms. */
constexpr std::size_t kAssembleReps = 25;

constexpr double kOpenRate = 60.0;       ///< serve_open arrivals, req/s
constexpr std::size_t kClients = 3;      ///< precise_closed concurrency

/**
 * Completion stamps keyed by the service's global execution slot
 * (SolveResponse::exec_order), taken in the on_complete hook right
 * before each future becomes ready. Operations are timed to that
 * moment, so the order in which the harness later collects futures
 * never delays a measurement.
 */
class CompletionLog
{
  public:
    void
    record(std::size_t exec_order)
    {
        Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lk(mu_);
        at_[exec_order] = now;
        ++count_;
    }

    bool
    stampOf(std::size_t exec_order, Clock::time_point &t) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = at_.find(exec_order);
        if (it == at_.end())
            return false;
        t = it->second;
        return true;
    }

    std::size_t
    count() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return count_;
    }

  private:
    mutable std::mutex mu_;
    std::unordered_map<std::size_t, Clock::time_point> at_;
    std::size_t count_ = 0;
};

/** A fleet and the log its completion hook writes (declared first so
 *  it outlives the service threads that call the hook). */
struct Fleet {
    CompletionLog log;
    std::unique_ptr<service::ShardedSolveService> svc;
};

std::unique_ptr<Fleet>
buildFleet(const analog::AnalogSolverOptions &die_opts)
{
    // Workaround, not a tuning choice: with a die quarantined, a retry
    // whose remaining dies are all tried lands on the barriered round's
    // fallback task still carrying its last die, and
    // SolveService::executeRequest then drives that die while the
    // die's own task runs in the same round. The race crashes the
    // process (segfault, "execStart before cfgCommit", "algebraic
    // loop"), e.g. on precise_closed seed 109. No die is ever
    // quarantined here until the service is fixed.
    analog::DieHealthPolicy health;
    health.quarantine_after = std::numeric_limits<std::size_t>::max();
    auto f = std::make_unique<Fleet>();
    service::FleetOptions fo;
    fo.racks = 1;
    fo.dies_per_rack = kDies;
    fo.shard.tenants = {{"cfd", 3.0}, {"ckt", 1.0}};
    fo.shard.service.threads = kDies;
    CompletionLog *log = &f->log;
    fo.shard.service.on_complete =
        [log](const service::SolveRequest &,
              const service::SolveResponse &r) { log->record(r.exec_order); };
    f->svc = std::make_unique<service::ShardedSolveService>(die_opts, fo,
                                                            health);
    return f;
}

std::shared_ptr<const la::DenseMatrix>
shared(la::DenseMatrix m)
{
    return std::make_shared<const la::DenseMatrix>(std::move(m));
}

Kind
poissonKind(const std::string &name, std::size_t dim, std::size_t l)
{
    pde::PoissonProblem p = pde::assemblePoisson(
        dim, l, [](double x, double y, double) { return 1.0 + x + y; });
    Kind k;
    k.name = name;
    k.tenant = "cfd";
    k.a = shared(p.a.toDense());
    k.forcing = p.b;
    return k;
}

/** The 3x3 RC grid from SPICE deck text; `assemble_s` receives the
 *  median parse + MNA time. */
Kind
rcGridKind(const std::string &name, double &assemble_s)
{
    spice::GridSpec gs;
    gs.rows = 3;
    gs.cols = 3;
    std::string deck = spice::gridDeck(gs);
    std::vector<double> times;
    spice::AssembleResult res;
    for (std::size_t r = 0; r < kAssembleReps; ++r) {
        Clock::time_point t0 = Clock::now();
        res = spice::assembleDeck(deck);
        times.push_back(seconds(Clock::now() - t0));
    }
    if (!res.ok)
        throw std::runtime_error("RC grid deck did not assemble: " +
                                 res.summary());
    assemble_s = quantile(times, 0.5);
    Kind k;
    k.name = name;
    k.tenant = "ckt";
    k.a = shared(res.system.g.toDense());
    k.forcing = res.system.i;
    return k;
}

service::SolveRequest
requestOf(const Kind &k, const la::Vector &b)
{
    service::SolveRequest r;
    r.a = k.a;
    r.b = b;
    r.tolerance = k.tolerance;
    r.max_refine_passes = k.max_refine_passes;
    r.lane = k.lane;
    r.tenant = k.tenant;
    return r;
}

la::Vector
scaled(const la::Vector &forcing, double factor)
{
    la::Vector b = forcing;
    la::scale(factor, b, b);
    return b;
}

/** One segment's set-up: inputs, fleet, paused warm-up burst. */
struct Setup {
    std::vector<Kind> kinds;
    double assemble_s = 0.0;
    std::unique_ptr<Fleet> fleet;
    std::string placement;
};

void
warmUp(Setup &s, std::uint64_t seed, std::size_t segment)
{
    service::ShardedSolveService &svc = *s.fleet->svc;
    std::vector<std::size_t> order;
    for (std::size_t k = 0; k < s.kinds.size(); ++k)
        for (std::size_t w = 0; w < kWarmupPerKind; ++w)
            order.push_back(k);
    // Seeded Fisher-Yates: the burst order, hence the placement, is
    // a function of the seed alone.
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[mix(seed, 0x77a2 + segment, i) % i]);

    svc.pause();
    std::vector<std::future<service::SolveResponse>> futs;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const Kind &k = s.kinds[order[i]];
        futs.push_back(svc.submit(requestOf(
            k, scaled(k.forcing,
                      0.5 + unit(mix(seed, 0x77a3 + segment, i))))));
    }
    svc.resume();
    std::vector<std::size_t> home(s.kinds.size(), SIZE_MAX);
    for (std::size_t i = 0; i < futs.size(); ++i) {
        service::SolveResponse r = futs[i].get();
        if (r.status != service::RequestStatus::Ok)
            throw std::runtime_error("warm-up request failed: " +
                                     r.reason);
        home[order[i]] = r.die;
    }
    svc.drain(); // the round's placement hook has run too

    const analog::DiePool &pool = svc.shard(0).pool();
    std::ostringstream os;
    os << "segment " << segment << " placement:";
    for (std::size_t k = 0; k < s.kinds.size(); ++k) {
        std::uint64_t h = compiler::sparsityHash(*s.kinds[k].a);
        os << " " << s.kinds[k].name << "->" << home[k] << " [";
        const char *sep = "";
        for (std::size_t d : pool.diesWithPattern(h, s.kinds[k].a->rows())) {
            os << sep << d;
            sep = ",";
        }
        os << "]";
    }
    s.placement = os.str();
}

/**
 * After the warm-up, kFingerprintPerKind seeded requests per kind sent
 * one at a time: each dispatches as its own round against a fleet
 * state that follows from the seed alone, so their simulated counters
 * repeat exactly across runs of one seed. (The timed phase cannot
 * give that: which requests share a round, and in which order they
 * reach a die, depends on timing.)
 */
std::vector<FingerprintRow>
fingerprintPass(Setup &s, std::uint64_t seed)
{
    std::vector<Op> ops;
    for (std::size_t i = 0; i < kFingerprintPerKind; ++i)
        for (std::size_t k = 0; k < s.kinds.size(); ++k) {
            Op op;
            op.kind = k;
            op.a = s.kinds[k].a;
            op.b = scaled(s.kinds[k].forcing,
                          0.5 + unit(mix(seed, 0xf19, ops.size())));
            service::SolveResponse r =
                s.fleet->svc->submit(requestOf(s.kinds[k], op.b)).get();
            if (r.status != service::RequestStatus::Ok)
                throw std::runtime_error("fingerprint request failed: " +
                                         r.reason);
            fillFromResponse(op, std::move(r));
            ops.push_back(std::move(op));
        }
    return fingerprint(ops, ops.size(), s.kinds);
}

/** Fleet counters summed over the segments' timed windows. */
struct FleetTotals {
    double integrate_s = 0, die_wall_s = 0, completed = 0, rounds = 0,
           affinity_hits = 0, affinity_misses = 0, rhs_batched = 0,
           rejected = 0, reroutes = 0, fallbacks = 0, evictions = 0;

    void
    add(const service::FleetMetrics &before,
        const service::FleetMetrics &after)
    {
        const service::ServiceMetrics &b = before.shards.at(0).service;
        const service::ServiceMetrics &a = after.shards.at(0).service;
        auto d = [](std::size_t x, std::size_t y) {
            return static_cast<double>(x - y);
        };
        integrate_s += after.integrate_seconds - before.integrate_seconds;
        die_wall_s += after.die_wall_seconds - before.die_wall_seconds;
        completed += d(a.completed, b.completed);
        rounds += d(a.batches, b.batches);
        affinity_hits += d(a.affinity_hits, b.affinity_hits);
        affinity_misses += d(a.affinity_misses, b.affinity_misses);
        rhs_batched += d(a.rhs_batched_requests, b.rhs_batched_requests);
        rejected += d(a.rejected_full + a.rejected_quota +
                          a.rejected_shutdown + a.rejected_invalid,
                      b.rejected_full + b.rejected_quota +
                          b.rejected_shutdown + b.rejected_invalid);
        reroutes += d(a.reroutes, b.reroutes);
        fallbacks += d(a.fallbacks, b.fallbacks);
        evictions += d(a.cache_evictions, b.cache_evictions);
    }
};

void
addServiceMetrics(const FleetTotals &t, const std::vector<Op> &ops,
                  RunResult &out)
{
    std::vector<double> submit_us, queue_ms, exec_ms;
    for (const Op &op : ops) {
        submit_us.push_back((op.submit_end - op.submit_start) * 1e6);
        queue_ms.push_back(op.queue_s * 1e3);
        exec_ms.push_back((op.service_s - op.queue_s) * 1e3);
    }
    auto count = [](double x) { return static_cast<std::size_t>(x); };
    auto ratio = [](double x, double y) { return y > 0.0 ? x / y : 0.0; };
    MetricSet &l = out.per_layer;
    l.add("service.submit_us_p50", "us", quantile(submit_us, 0.5),
          submit_us.size());
    l.add("service.queue_ms_p50", "ms", quantile(queue_ms, 0.5),
          queue_ms.size());
    l.add("service.queue_ms_p99", "ms", quantile(queue_ms, 0.99),
          queue_ms.size());
    l.add("service.exec_ms_p50", "ms", quantile(exec_ms, 0.5),
          exec_ms.size());
    l.add("service.die_occupancy", "ratio",
          ratio(t.integrate_s, t.die_wall_s), kDies * kSegments);
    l.add("service.requests_per_round", "count",
          ratio(t.completed, t.rounds), count(t.rounds));
    double routed = t.affinity_hits + t.affinity_misses;
    l.add("service.affinity_hit_ratio", "ratio",
          ratio(t.affinity_hits, routed), count(routed));
    l.add("service.rhs_batched_share", "ratio",
          ratio(t.rhs_batched, t.completed), count(t.completed));
    l.add("service.rejected", "count", t.rejected, ops.size());
    l.add("service.reroutes", "count", t.reroutes, ops.size());
    l.add("service.fallbacks", "count", t.fallbacks, ops.size());
    l.add("compiler.evictions", "count", t.evictions, ops.size());
}

/** Settle one submitted operation from its response. */
void
settle(Op &op, service::SolveResponse &&r, const CompletionLog &log,
       const Trace &clock, Clock::time_point observed)
{
    Clock::time_point ready = observed;
    if (r.exec_order != SIZE_MAX)
        log.stampOf(r.exec_order, ready);
    fillFromResponse(op, std::move(r));
    op.ready = clock.at(ready);
}

/**
 * After the timed phase: re-solve one request of each kind directly
 * on the die that served the kind last, then replay that run (see
 * replayLastRun). The fleet must be stopped; `ops` are the requests
 * it served.
 */
std::vector<Replay>
replayKinds(Fleet &f, const std::vector<Kind> &kinds,
            const std::vector<Op> &ops, std::size_t first_op)
{
    std::vector<std::size_t> die(kinds.size(), SIZE_MAX);
    for (std::size_t i = first_op; i < ops.size(); ++i)
        if (ops[i].ok)
            die[ops[i].kind] = ops[i].die;
    analog::DiePool &pool = f.svc->shard(0).pool();
    std::vector<Replay> out(kinds.size());
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        if (die[k] >= pool.size())
            continue;
        analog::AnalogLinearSolver &d = pool.die(die[k]);
        try {
            d.solve(*kinds[k].a, kinds[k].forcing);
        } catch (const analog::SolveRangeError &) {
            // The last attempt's configuration is still a run of
            // this system; replay it all the same.
        }
        out[k] = replayLastRun(d);
    }
    return out;
}

/**
 * The timed traffic of one segment: appends its operations to `ops`
 * and returns the segment's measured window in seconds. Called with
 * the segment's fleet warmed up and its before-snapshot taken.
 */
using Traffic = std::function<double(Setup &, std::size_t segment,
                                     double seconds, std::vector<Op> &ops,
                                     Trace &trace, RunResult &out)>;

/**
 * The shared shape of a fleet workload. The timed window is split into
 * kSegments segments, each on a freshly built fleet whose die seeds
 * follow from (seed, segment): one run then averages over
 * 3 x kSegments die corners instead of being decided by the three a
 * single fleet would draw. Every segment's set-up is timed; setup_s
 * is their median (the first measured from process start).
 */
RunResult
runFleet(const RunConfig &cfg, const std::string &tail_label,
         double tail_q,
         const std::function<Setup(std::size_t segment)> &build,
         const Traffic &traffic,
         const std::function<void(const std::vector<Op> &, RunResult &)>
             &extra = {})
{
    RunResult out;
    SummaryInputs in;
    in.tail_q = tail_q;
    in.tail_label = tail_label;
    Trace trace(processStart());
    std::vector<Op> ops;
    std::vector<double> setup_times;
    FleetTotals totals;
    Setup s;
    std::size_t last_first_op = 0;
    for (std::size_t seg = 0; seg < kSegments; ++seg) {
        s = Setup{}; // tear the previous fleet down outside the timing
        Clock::time_point t0 = seg == 0 ? processStart() : Clock::now();
        s = build(seg);
        setup_times.push_back(seconds(Clock::now() - t0));
        out.notes.push_back(s.placement);
        if (seg == 0)
            out.fingerprint = fingerprintPass(s, cfg.seed);

        service::FleetMetrics before = s.fleet->svc->metrics();
        last_first_op = ops.size();
        double window = traffic(s, seg, cfg.seconds / kSegments, ops,
                                trace, out);
        in.window_s += window;
        out.notes.back() += " | " +
                            std::to_string(ops.size() - last_first_op) +
                            " ops in " + std::to_string(window) + " s";
        s.fleet->svc->drain();
        totals.add(before, s.fleet->svc->metrics());
    }
    s.fleet->svc->stop();
    in.setup_s = quantile(setup_times, 0.5);
    in.setup_samples = setup_times.size();
    if (cfg.trace)
        in.replays = replayKinds(*s.fleet, s.kinds, ops, last_first_op);

    summarize(ops, s.kinds, in, out);
    addServiceMetrics(totals, ops, out);
    out.per_layer.add("spice.assemble_ms", "ms", s.assemble_s * 1e3,
                      kAssembleReps);
    if (extra)
        extra(ops, out);
    if (cfg.trace) {
        buildSpans(ops, in.replays, true, "harness.op", trace);
        addSelfTimes(trace, ops.size(), out);
        trace.write(cfg.trace_path);
    }
    return out;
}

analog::AnalogSolverOptions
dieOptions(std::uint64_t seed, std::size_t segment)
{
    analog::AnalogSolverOptions die;
    die.die_seed = 1 + mix(seed, 0xd1e, segment) % 1000000;
    return die;
}

} // namespace

RunResult
runServeOpen(const RunConfig &cfg)
{
    const std::vector<double> weights = {4, 2, 2, 1};
    auto build = [&](std::size_t seg) {
        Setup st;
        st.kinds.push_back(poissonKind("poisson2d_n9", 2, 3));
        st.kinds.push_back(poissonKind("poisson2d_n16", 2, 4));
        st.kinds.push_back(poissonKind("poisson1d_n8", 1, 8));
        st.kinds.push_back(rcGridKind("rc_grid_n9", st.assemble_s));
        analog::AnalogSolverOptions die = dieOptions(cfg.seed, seg);
        die.program_cache_capacity = 2;
        st.fleet = buildFleet(die);
        warmUp(st, cfg.seed, seg);
        return st;
    };

    std::size_t offered = 0, completed_in_window = 0;
    auto traffic = [&](Setup &s, std::size_t seg, double secs,
                       std::vector<Op> &ops, Trace &trace,
                       RunResult &out) {
        // Seeded Poisson arrivals over the segment's window.
        double wsum = 0;
        for (double w : weights)
            wsum += w;
        std::vector<double> at;
        std::size_t first = ops.size();
        double t = 0.0;
        for (std::uint64_t i = 0;; ++i) {
            std::uint64_t key = (static_cast<std::uint64_t>(seg) << 32) | i;
            t += -std::log1p(-unit(mix(cfg.seed, 0xa11, key))) / kOpenRate;
            if (t >= secs)
                break;
            double pick = unit(mix(cfg.seed, 0xb12, key)) * wsum;
            std::size_t k = 0;
            while (k + 1 < weights.size() && pick >= weights[k]) {
                pick -= weights[k];
                ++k;
            }
            Op op;
            op.kind = k;
            op.id = key;
            op.a = s.kinds[k].a;
            op.b = scaled(s.kinds[k].forcing,
                          0.5 + unit(mix(cfg.seed, 0xc13, key)));
            ops.push_back(std::move(op));
            at.push_back(t);
        }
        std::size_t n = at.size();
        std::vector<service::SolveRequest> reqs;
        for (std::size_t i = 0; i < n; ++i)
            reqs.push_back(requestOf(s.kinds[ops[first + i].kind],
                                     ops[first + i].b));

        service::ShardedSolveService &svc = *s.fleet->svc;
        std::size_t base = s.fleet->log.count();
        std::vector<std::future<service::SolveResponse>> futs(n);
        std::vector<Clock::time_point> submit_end(n);
        Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
        auto offset = [&](double x) {
            return t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(x));
        };
        for (std::size_t i = 0; i < n; ++i) {
            Clock::time_point due = offset(at[i]);
            std::this_thread::sleep_until(due);
            Clock::time_point ts = Clock::now();
            futs[i] = svc.submit(std::move(reqs[i]));
            submit_end[i] = Clock::now();
            Op &op = ops[first + i];
            op.due = trace.at(due);
            op.submit_start = trace.at(ts);
            op.submit_end = trace.at(submit_end[i]);
        }
        std::this_thread::sleep_until(offset(secs));
        std::size_t done = s.fleet->log.count() - base;
        offered += n;
        completed_in_window += std::min(done, n);

        svc.drain();
        // A future the completion hook never stamped was answered at
        // admission (a rejection): it was ready when submit returned.
        for (std::size_t i = 0; i < n; ++i)
            settle(ops[first + i], futs[i].get(), s.fleet->log, trace,
                   submit_end[i]);

        // An open loop whose completions trail its offers at the end
        // of the window is building a backlog: the run does not
        // measure a steady state and is reported invalid.
        std::size_t backlog = n - std::min(n, done);
        if (backlog > std::max<std::size_t>(10, n / 50)) {
            out.valid = false;
            out.invalid_reason += "segment " + std::to_string(seg) +
                                  ": backlog of " +
                                  std::to_string(backlog) +
                                  " requests at the end of its window; ";
        }
        return secs;
    };

    auto loadgen = [&](const std::vector<Op> &ops, RunResult &out) {
        std::vector<double> late_ms;
        for (const Op &op : ops)
            late_ms.push_back((op.submit_start - op.due) * 1e3);
        MetricSet &l = out.per_layer;
        l.add("loadgen.late_ms_p99", "ms", quantile(late_ms, 0.99),
              late_ms.size());
        l.add("loadgen.offered", "count", static_cast<double>(offered),
              offered);
        l.add("loadgen.completed", "count",
              static_cast<double>(completed_in_window), offered);
    };
    return runFleet(cfg, "p99", 0.99, build, traffic, loadgen);
}

RunResult
runPreciseClosed(const RunConfig &cfg)
{
    auto build = [&](std::size_t seg) {
        Setup st;
        Kind poisson = poissonKind("refine_poisson2d_n9", 2, 3);
        poisson.tolerance = 1e-8;
        poisson.max_refine_passes = 8;
        st.kinds.push_back(poisson);

        // The RC grid's per-pass contraction depends on the die: it
        // takes 7-11 analog passes to reach 1e-8, and a cap of 8 (9
        // passes), enough for the stencil, left about 8 % of its
        // answers short of the target.
        Kind rc = rcGridKind("refine_rc_grid_n9", st.assemble_s);
        rc.tolerance = 1e-8;
        rc.max_refine_passes = 16;
        st.kinds.push_back(rc);

        pde::ConvectionDiffusionProblem cd =
            pde::convectionBenchmark(2, 4, 0.8, 7);
        Kind conv;
        conv.name = "fgmres_convection_n16";
        conv.tenant = "cfd";
        conv.a = shared(cd.a.toDense());
        conv.forcing = cd.b;
        conv.tolerance = 1e-8;
        st.kinds.push_back(conv);

        Kind spd;
        spd.name = "fcg_spd_kappa20_n9";
        spd.tenant = "cfd";
        // A fresh kappa=20 matrix per segment: how often the flexible-CG
        // lane breaks down depends on the matrix as much as on the die.
        spd.a = shared(la::spdLogSpectrum(9, 20.0, mix(cfg.seed, 0x5bd, seg)));
        spd.forcing = la::seededRhs(9, mix(cfg.seed, 0x5be, seg));
        spd.tolerance = 1e-8;
        spd.lane = service::LanePreference::PrecondKrylov;
        st.kinds.push_back(spd);

        analog::AnalogSolverOptions die = dieOptions(cfg.seed, seg);
        die.spec.mode = circuit::SimMode::Ideal;
        st.fleet = buildFleet(die);
        warmUp(st, cfg.seed, seg);
        return st;
    };

    // Each client sends its next request as soon as its previous
    // answer arrives; client c's i-th request of a segment is kind
    // (c + i) mod 4 with a factor keyed by (segment, c, i), so the
    // inputs follow from the seed.
    auto traffic = [&](Setup &s, std::size_t seg, double secs,
                       std::vector<Op> &ops, Trace &trace, RunResult &) {
        service::ShardedSolveService &svc = *s.fleet->svc;
        Clock::time_point t0 = Clock::now();
        Clock::time_point t_end =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(secs));
        std::vector<std::vector<Op>> per_client(kClients);
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                for (std::uint64_t i = 0; Clock::now() < t_end; ++i) {
                    Op op;
                    op.kind = (c + i) % s.kinds.size();
                    op.id = (static_cast<std::uint64_t>(seg) << 40) |
                            (static_cast<std::uint64_t>(c) << 32) | i;
                    const Kind &k = s.kinds[op.kind];
                    op.a = k.a;
                    op.b = scaled(k.forcing,
                                  0.5 + unit(mix(cfg.seed, 0xe14, op.id)));
                    service::SolveRequest req = requestOf(k, op.b);
                    Clock::time_point ts = Clock::now();
                    std::future<service::SolveResponse> fut =
                        svc.submit(std::move(req));
                    Clock::time_point te = Clock::now();
                    service::SolveResponse r = fut.get();
                    Clock::time_point seen = Clock::now();
                    op.due = op.submit_start = trace.at(ts);
                    op.submit_end = trace.at(te);
                    settle(op, std::move(r), s.fleet->log, trace, seen);
                    per_client[c].push_back(std::move(op));
                }
            });
        for (std::thread &t : clients)
            t.join();

        double last_ready = trace.at(t0);
        for (auto &v : per_client)
            for (Op &op : v) {
                last_ready = std::max(last_ready, op.ready);
                ops.push_back(std::move(op));
            }
        return last_ready - trace.at(t0);
    };
    return runFleet(cfg, "p90", 0.90, build, traffic);
}
} // namespace pb
