/**
 * @file
 * sweep_bandwidth: the research user reproducing the paper's design-
 * space sweep (Figs. 8-9, Table III). 2D Poisson l = 4..8 (n = 16..64)
 * x the Fig. 9 design points (20 kHz / 8-bit prototype; projected
 * 80 kHz, 320 kHz and 1.3 MHz at 12 bits), SimMode::Bandwidth pinned:
 * the only workload exercising bandwidth-limited physics, up to 1296
 * simulator states. Each grid point owns one die with a seeded
 * die_seed and solves K seeded right-hand sides through direct
 * AnalogLinearSolver::solve calls, fanned over 3 workers with
 * parallelMap. It bypasses the service, Krylov and refinement code.
 *
 * The timed phase runs whole passes over the grid, so every run
 * measures the same mix of sizes and design points. Each pass builds
 * fresh dies, seeded from (seed, pass, grid point), and fresh
 * right-hand sides: a run then averages over many die corners per
 * grid point instead of being decided by one draw each. A pass's
 * set-up (die construction, calibration and a warm-up solve that
 * compiles the structure) is timed outside the window; setup_s is the
 * median over passes.
 */

#include <memory>
#include <stdexcept>
#include <string>

#include "aa/circuit/spec.hh"
#include "aa/common/parallel.hh"
#include "aa/la/generate.hh"
#include "aa/pde/poisson.hh"
#include "workload.hh"

namespace pb {

namespace {

using namespace aa;

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kRhsPerPoint = 2; ///< K

struct Design {
    const char *name;
    circuit::AnalogSpec spec;
};

std::vector<Design>
designs()
{
    std::vector<Design> d = {
        {"20kHz_8b", circuit::prototypeSpec()},
        {"80kHz_12b", circuit::projectedSpec(80e3, 12)},
        {"320kHz_12b", circuit::projectedSpec(320e3, 12)},
        {"1.3MHz_12b", circuit::projectedSpec(1.3e6, 12)},
    };
    for (Design &x : d)
        x.spec.mode = circuit::SimMode::Bandwidth;
    return d;
}

struct GridPoint {
    Kind kind;
    std::vector<la::Vector> rhs;
    std::unique_ptr<analog::AnalogLinearSolver> die;
};

struct Setup {
    std::vector<GridPoint> points;
};

/** Inputs and dies of one pass for every grid point, each die
 *  calibrated and its structure compiled by one warm-up solve. */
Setup
buildSetup(std::uint64_t seed, std::size_t pass)
{
    Setup s;
    std::vector<Design> ds = designs();
    for (std::size_t l = 4; l <= 8; ++l) {
        pde::PoissonProblem p = pde::assemblePoisson(
            2, l, [](double x, double y, double) { return 1.0 + x + y; });
        auto a = std::make_shared<const la::DenseMatrix>(p.a.toDense());
        for (std::size_t d = 0; d < ds.size(); ++d) {
            std::uint64_t key = (static_cast<std::uint64_t>(pass) << 16) |
                                s.points.size();
            GridPoint g;
            g.kind.name = "l" + std::to_string(l) + "_" + ds[d].name;
            g.kind.a = a;
            g.kind.forcing = p.b; // the warm-up right-hand side
            for (std::size_t k = 0; k < kRhsPerPoint; ++k)
                g.rhs.push_back(la::seededRhs(a->rows(), mix(seed, key, k)));
            analog::AnalogSolverOptions opts;
            opts.spec = ds[d].spec;
            opts.die_seed = 1 + mix(seed, 0xd1e, key) % 1000000;
            g.die = std::make_unique<analog::AnalogLinearSolver>(opts);
            s.points.push_back(std::move(g));
        }
    }
    parallelFor(
        s.points.size(),
        [&](std::size_t j) {
            GridPoint &g = s.points[s.points.size() - 1 - j];
            g.die->solve(*g.kind.a, g.kind.forcing);
        },
        kWorkers);
    return s;
}

} // namespace

RunResult
runSweepBandwidth(const RunConfig &cfg)
{
    RunResult out;
    SummaryInputs in;
    in.tail_q = 0.90;
    in.tail_label = "p90";
    // Solve times climb from tens of milliseconds at l = 4 to over a
    // second at l = 8, and the middle of the grid falls in the gap
    // between the l = 5 and l = 6 points, where a few solves more or
    // less move the median by 10-20 %. The geometric mean is the
    // grid's typical solve time without that jump.
    in.typical_is_geomean = true;
    // A run has 400-640 answers: p97.5 keeps ten or more beyond it.
    in.error_tail_q = 0.975;
    in.error_tail_label = "p97.5";

    Trace trace(processStart());
    std::vector<Op> ops;
    std::vector<Kind> kinds;
    std::vector<double> setup_times;
    std::size_t evictions = 0;
    Setup s;
    std::size_t passes = 0;
    while (in.window_s < cfg.seconds) {
        s = Setup{}; // tear the previous dies down outside the timing
        Clock::time_point t0 = passes == 0 ? processStart() : Clock::now();
        s = buildSetup(cfg.seed, passes);
        setup_times.push_back(seconds(Clock::now() - t0));
        if (kinds.empty())
            for (const GridPoint &g : s.points)
                kinds.push_back(g.kind);
        std::size_t evictions_before = 0;
        for (const GridPoint &g : s.points)
            evictions_before += g.die->cacheStats().evictions;

        // Largest grid points first: a pass ends with its last solve,
        // and handing out the l = 8 points last left workers idle at
        // the end of every pass.
        Clock::time_point p0 = Clock::now();
        auto pass = parallelMap(
            s.points.size(),
            [&](std::size_t j) {
                std::size_t i = s.points.size() - 1 - j;
                GridPoint &g = s.points[i];
                std::vector<Op> rec(g.rhs.size());
                for (std::size_t k = 0; k < g.rhs.size(); ++k) {
                    Op &op = rec[k];
                    op.kind = i;
                    op.id = (passes * s.points.size() + i) * kRhsPerPoint + k;
                    op.a = g.kind.a;
                    op.b = g.rhs[k];
                    Clock::time_point ts = Clock::now();
                    try {
                        analog::AnalogSolveOutcome o =
                            g.die->solve(*g.kind.a, op.b);
                        op.ok = true;
                        op.attempts = o.attempts;
                        op.overflow_retries = o.overflow_retries;
                        op.underrange_retries = o.underrange_retries;
                        op.analog_s = o.analog_seconds;
                        op.phases = o.phases;
                        op.u = std::move(o.u);
                    } catch (const std::exception &e) {
                        op.reason = e.what();
                    }
                    Clock::time_point te = Clock::now();
                    op.due = op.submit_start = op.submit_end =
                        trace.at(ts);
                    op.ready = trace.at(te);
                }
                return rec;
            },
            kWorkers);
        in.window_s += seconds(Clock::now() - p0);
        for (auto &rec : pass)
            for (Op &op : rec)
                ops.push_back(std::move(op));
        for (const GridPoint &g : s.points)
            evictions += g.die->cacheStats().evictions;
        evictions -= evictions_before;
        // Each die runs its grid point's solves in order on one
        // worker, so the first pass depends on the seed alone.
        if (passes == 0)
            out.fingerprint = fingerprint(ops, ops.size(), kinds);
        ++passes;
    }
    in.setup_s = quantile(setup_times, 0.5);
    in.setup_samples = setup_times.size();

    if (cfg.trace)
        in.replays = parallelMap(
            s.points.size(),
            [&](std::size_t i) { return replayLastRun(*s.points[i].die); },
            kWorkers);
    summarize(ops, kinds, in, out);

    std::vector<double> solve_ms;
    double overflow = 0, underrange = 0;
    for (const Op &op : ops) {
        solve_ms.push_back(op.wall() * 1e3);
        overflow += static_cast<double>(op.overflow_retries);
        underrange += static_cast<double>(op.underrange_retries);
    }
    double per = ops.empty() ? 0.0 : 1.0 / static_cast<double>(ops.size());
    out.per_layer.add("analog.overflow_retries_per_solve", "count",
                      overflow * per, ops.size());
    out.per_layer.add("analog.underrange_retries_per_solve", "count",
                      underrange * per, ops.size());
    out.per_layer.add("analog.solve_ms_p50", "ms", quantile(solve_ms, 0.5),
                      solve_ms.size());
    out.per_layer.add("compiler.evictions", "count",
                      static_cast<double>(evictions), ops.size());
    out.notes.push_back("passes " + std::to_string(passes) + " x " +
                        std::to_string(s.points.size()) +
                        " grid points x K=" + std::to_string(kRhsPerPoint) +
                        ", fresh dies each pass");
    if (cfg.trace) {
        buildSpans(ops, in.replays, false, "analog.solve", trace);
        addSelfTimes(trace, ops.size(), out);
        trace.write(cfg.trace_path);
    }
    return out;
}

} // namespace pb
