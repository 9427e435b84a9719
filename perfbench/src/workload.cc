#include "workload.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "aa/chip/chip.hh"
#include "aa/circuit/simulator.hh"
#include "aa/isa/driver.hh"

namespace pb {

namespace {

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Replay timing repeats a run until this much host time is spent,
 *  so sub-millisecond Ideal-mode runs are timed over many calls. */
constexpr double kReplayMinSeconds = 0.05;
constexpr std::size_t kReplayMaxReps = 200;
/** Failed operations described in the report, at most. */
constexpr std::size_t kFailuresShown = 5;
/** Slowest operations described in the report. */
constexpr std::size_t kSlowestShown = 3;

/** The per-layer metrics every workload reports, in print order;
 *  a metric whose layer is off a workload's path reads n/a (0). */
const std::vector<std::pair<std::string, std::string>> &
perLayerCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> c = {
        {"service.submit_us_p50", "us"},
        {"service.queue_ms_p50", "ms"},
        {"service.queue_ms_p99", "ms"},
        {"service.exec_ms_p50", "ms"},
        {"service.die_occupancy", "ratio"},
        {"service.requests_per_round", "count"},
        {"service.affinity_hit_ratio", "ratio"},
        {"service.rhs_batched_share", "ratio"},
        {"service.rejected", "count"},
        {"service.reroutes", "count"},
        {"service.fallbacks", "count"},
        {"analog.attempts_per_solve", "count"},
        {"analog.overflow_retries_per_solve", "count"},
        {"analog.underrange_retries_per_solve", "count"},
        {"analog.refine_passes_per_req", "count"},
        {"analog.precond_applies_per_req", "count"},
        {"analog.solve_ms_p50", "ms"},
        {"solver.krylov_iters_per_req", "count"},
        {"solver.host_ms_per_req", "ms"},
        {"compiler.cache_hit_ratio", "ratio"},
        {"compiler.cache_misses", "count"},
        {"compiler.evictions", "count"},
        {"compiler.compile_ms_per_solve", "ms"},
        {"isa.config_bytes_per_solve", "B"},
        {"isa.configure_ms_per_solve", "ms"},
        {"chip.run_ms_per_solve", "ms"},
        {"chip.readout_ms_per_solve", "ms"},
        {"chip.analog_us_per_run", "us"},
        {"ode.steps_per_run", "count"},
        {"ode.host_us_per_step", "us"},
        {"ode.analog_s_per_host_s", "ratio"},
        {"circuit.states", "count"},
        {"circuit.rhs_evals_per_step", "count"},
        {"circuit.rhs_ns_per_eval", "ns"},
        {"spice.assemble_ms", "ms"},
        {"loadgen.late_ms_p99", "ms"},
        {"loadgen.offered", "count"},
        {"loadgen.completed", "count"},
    };
    return c;
}

/** Layers of the self-time table, in print order. */
const std::vector<std::string> &
selfLayers()
{
    static const std::vector<std::string> l = {
        "harness", "loadgen", "service", "analog", "solver",
        "compiler", "isa", "chip", "ode", "circuit"};
    return l;
}

} // namespace

std::uint64_t
mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    return splitmix(splitmix(splitmix(seed) ^ a) ^ (b * 0x632be59bd9b4e019ULL));
}

double
unit(std::uint64_t key)
{
    return static_cast<double>(key >> 11) * 0x1.0p-53;
}

void
fillFromResponse(Op &op, aa::service::SolveResponse &&r)
{
    op.ok = r.status == aa::service::RequestStatus::Ok;
    op.reason = r.reason;
    if (!r.failure_chain.empty())
        op.reason += (op.reason.empty() ? "" : "; ") + r.failure_chain;
    op.verified = r.verified;
    op.converged = r.converged;
    op.precond_lane = r.lane == aa::service::SolveLane::AnalogPrecond;
    op.die = r.die;
    op.queue_s = r.queue_seconds;
    op.service_s = r.service_seconds;
    op.attempts = r.attempts;
    op.reroutes = r.reroutes;
    op.refine_passes = r.refine_passes;
    op.precond_applies = r.precond_applies;
    op.krylov_iterations = r.krylov_iterations;
    op.analog_s = r.analog_seconds;
    op.phases = r.phases;
    op.u = std::move(r.u);
}

double
Replay::circuitShare() const
{
    if (!valid || host_s <= 0.0)
        return 0.0;
    double rhs_s = steps * rhs_evals_per_step * rhs_ns_per_eval * 1e-9;
    return std::clamp(rhs_s / host_s, 0.0, 1.0);
}

double
Replay::odeSelfUsPerStep() const
{
    if (!valid || steps <= 0.0)
        return 0.0;
    return host_s / steps * 1e6 * (1.0 - circuitShare());
}

Replay
replayLastRun(aa::analog::AnalogLinearSolver &die)
{
    Replay rp;
    aa::isa::AcceleratorDriver &drv = die.driverRef();
    aa::circuit::Simulator &sim = die.chipRef().simulator();

    // 1. The configured run itself, through the ISA, as the solve
    //    issued it.
    std::vector<double> host;
    aa::chip::ExecResult er;
    double spent = 0.0;
    while (spent < kReplayMinSeconds && host.size() < kReplayMaxReps) {
        Clock::time_point t0 = Clock::now();
        er = drv.execStart();
        double dt = seconds(Clock::now() - t0);
        host.push_back(dt);
        spent += dt;
    }
    if (er.sim_steps == 0)
        return rp;
    rp.host_s = quantile(host, 0.5);
    rp.steps = static_cast<double>(er.sim_steps);
    rp.analog_s = er.analog_time;
    rp.states = sim.stateCount();

    // 2. RHS evaluations per step over the same analog interval, and
    //    a representative state to time evaluations at.
    aa::la::Vector last;
    aa::circuit::RunOptions ro;
    ro.timeout = er.analog_time;
    ro.steady_rate_tol = -1.0;
    ro.observer = [&last](double, const aa::la::Vector &y) { last = y; };
    aa::circuit::RunResult rr = sim.run(ro);
    if (rr.steps == 0 || last.size() != rp.states)
        return rp;
    rp.rhs_evals_per_step = static_cast<double>(rr.rhs_evals) /
                            static_cast<double>(rr.steps);

    // 3. Cost of one production RHS evaluation at that state.
    aa::la::Vector dydt(last.size());
    std::vector<double> per_eval;
    for (int rep = 0; rep < 5; ++rep) {
        std::size_t evals = 0;
        Clock::time_point t0 = Clock::now();
        double dt = 0.0;
        do {
            for (int i = 0; i < 64; ++i)
                sim.evalRhs(er.analog_time, last, dydt);
            evals += 64;
            dt = seconds(Clock::now() - t0);
        } while (dt < kReplayMinSeconds / 5);
        per_eval.push_back(dt / static_cast<double>(evals) * 1e9);
    }
    rp.rhs_ns_per_eval = quantile(per_eval, 0.5);
    rp.valid = true;
    return rp;
}

void
summarize(std::vector<Op> &ops, const std::vector<Kind> &kinds,
          const SummaryInputs &in, RunResult &out)
{
    out.tail_label = in.tail_label;
    out.error_tail_label = in.error_tail_label;
    out.attempted = ops.size();

    std::vector<double> wall_ms, rel_err;
    std::vector<std::size_t> failed_by_kind(kinds.size(), 0);
    double analog_s = 0.0;
    std::size_t answered = 0;
    for (Op &op : ops) {
        const Kind &k = kinds[op.kind];
        op.check = checkAnswer(*op.a, op.b, op.u, op.ok, k.target(),
                               k.claimed(op.converged, op.verified));
        if (op.check.failed)
            ++failed_by_kind[op.kind];
        if (op.check.failed && ++out.failed <= kFailuresShown)
            out.notes.push_back(
                "failed op " + std::to_string(op.id) + " (" + k.name +
                "): " + (op.ok ? "rel residual " +
                                     jsonNumber(op.check.rel_residual) +
                                     " over target " +
                                     jsonNumber(k.target())
                               : "not answered: " + op.reason));
        if (op.check.silent_wrong)
            ++out.silent_wrong;
        analog_s += op.analog_s;
        // A failed operation counts against ok_share only: latency
        // and error quantiles describe the answers that met their
        // target.
        if (!op.check.failed) {
            ++answered;
            wall_ms.push_back(op.wall() * 1e3);
            rel_err.push_back(op.check.rel_error);
        }
    }
    // Per kind: how many operations, how many failed, and where the
    // answered ones sit in the latency distribution.
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        std::vector<double> ms;
        std::size_t n = 0, max_passes = 0;
        for (const Op &op : ops)
            if (op.kind == k) {
                ++n;
                max_passes = std::max(max_passes, op.refine_passes);
                if (!op.check.failed)
                    ms.push_back(op.wall() * 1e3);
            }
        out.notes.push_back(
            "kind " + kinds[k].name + ": " + std::to_string(n) +
            " ops, " + std::to_string(failed_by_kind[k]) +
            " failed, latency p50 " + std::to_string(quantile(ms, 0.5)) +
            " ms, " + in.tail_label + " " +
            std::to_string(quantile(ms, in.tail_q)) +
            " ms, most refinement passes " + std::to_string(max_passes));
    }
    out.notes.push_back("latency ms: geometric mean " +
                        std::to_string(geomean(wall_ms)) + ", p50 " +
                        std::to_string(quantile(wall_ms, 0.50)) + ", p90 " +
                        std::to_string(quantile(wall_ms, 0.90)) + ", p95 " +
                        std::to_string(quantile(wall_ms, 0.95)) + ", p98 " +
                        std::to_string(quantile(wall_ms, 0.98)) + ", p99 " +
                        std::to_string(quantile(wall_ms, 0.99)));
    // The slowest operations, with the die and retry ladder behind
    // them.
    std::vector<const Op *> slow;
    for (const Op &op : ops)
        if (op.ok)
            slow.push_back(&op);
    std::size_t shown = std::min<std::size_t>(kSlowestShown, slow.size());
    std::partial_sort(slow.begin(), slow.begin() + shown, slow.end(),
                      [](const Op *x, const Op *y) {
                          return x->wall() > y->wall();
                      });
    for (std::size_t i = 0; i < shown; ++i) {
        const Op &op = *slow[i];
        out.notes.push_back(
            "slow op " + std::to_string(op.id) + " (" +
            kinds[op.kind].name + ") wall " +
            std::to_string(op.wall() * 1e3) + " ms: queue " +
            std::to_string(op.queue_s * 1e3) + " ms, chip.run " +
            std::to_string(op.phases.run_seconds * 1e3) + " ms, die " +
            std::to_string(op.die) + ", attempts " +
            std::to_string(op.attempts) + ", reroutes " +
            std::to_string(op.reroutes) +
            (op.reason.empty() ? "" : ", " + op.reason));
    }

    auto checkTail = [&](const std::string &metric, double q,
                         const std::string &label) {
        std::size_t beyond = static_cast<std::size_t>(std::floor(
            static_cast<double>(wall_ms.size()) * (1.0 - q)));
        if (beyond < 10)
            out.notes.push_back("warning: only " + std::to_string(beyond) +
                                " answers beyond " + label + "; " +
                                metric + " needs at least 10");
    };
    checkTail("latency_tail_ms", in.tail_q, in.tail_label);
    checkTail("rel_error_tail", in.error_tail_q, in.error_tail_label);

    MetricSet &e = out.end_to_end;
    double per = answered ? 1.0 / static_cast<double>(answered) : 0.0;
    e.add("solves_per_s", "1/s",
          in.window_s > 0.0 ? static_cast<double>(answered) / in.window_s
                            : 0.0,
          answered);
    e.add("latency_p50_ms", "ms",
          in.typical_is_geomean ? geomean(wall_ms) : quantile(wall_ms, 0.5),
          wall_ms.size());
    e.add("latency_tail_ms", "ms", quantile(wall_ms, in.tail_q),
          wall_ms.size());
    e.add("ok_share", "ratio",
          ops.empty() ? 0.0
                      : static_cast<double>(ops.size() - out.failed) /
                            static_cast<double>(ops.size()),
          ops.size());
    e.add("rel_error_p50", "ratio", quantile(rel_err, 0.5), rel_err.size());
    e.add("rel_error_tail", "ratio", quantile(rel_err, in.error_tail_q),
          rel_err.size());
    e.add("analog_us_per_solve", "us", analog_s * 1e6 * per, answered);
    e.add("setup_s", "s", in.setup_s, in.setup_samples);
    e.add("peak_rss_mb", "MiB", peakRssMb(), 1);

    // Per-layer records every operation carries.
    MetricSet &l = out.per_layer;
    aa::analog::SolvePhaseReport ph;
    double attempts = 0, passes = 0, applies = 0;
    std::vector<double> krylov, solver_host_ms;
    for (const Op &op : ops) {
        ph.add(op.phases);
        attempts += static_cast<double>(op.attempts);
        passes += static_cast<double>(op.refine_passes);
        applies += static_cast<double>(op.precond_applies);
        if (op.precond_lane) {
            krylov.push_back(static_cast<double>(op.krylov_iterations));
            double exec = op.service_s - op.queue_s;
            solver_host_ms.push_back((exec - op.phaseSeconds()) * 1e3);
        }
    }
    l.add("analog.attempts_per_solve", "count", attempts * per, answered);
    l.add("analog.refine_passes_per_req", "count", passes * per, answered);
    l.add("analog.precond_applies_per_req", "count", applies * per,
          answered);
    if (!krylov.empty()) {
        l.add("solver.krylov_iters_per_req", "count", mean(krylov),
              krylov.size());
        l.add("solver.host_ms_per_req", "ms", mean(solver_host_ms),
              solver_host_ms.size());
    }
    std::size_t lookups = ph.cache_hits + ph.cache_misses;
    l.add("compiler.cache_hit_ratio", "ratio",
          lookups ? static_cast<double>(ph.cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0,
          lookups);
    l.add("compiler.cache_misses", "count",
          static_cast<double>(ph.cache_misses), ops.size());
    l.add("compiler.compile_ms_per_solve", "ms",
          ph.compile_seconds * 1e3 * per, answered);
    l.add("isa.config_bytes_per_solve", "B",
          static_cast<double>(ph.config_bytes) * per, answered);
    l.add("isa.configure_ms_per_solve", "ms",
          ph.configure_seconds * 1e3 * per, answered);
    l.add("chip.run_ms_per_solve", "ms", ph.run_seconds * 1e3 * per,
          answered);
    l.add("chip.readout_ms_per_solve", "ms",
          ph.readout_seconds * 1e3 * per, answered);

    // Replays, weighted by how many operations each kind served.
    if (!in.replays.empty()) {
        std::vector<double> w(kinds.size(), 0.0);
        for (const Op &op : ops)
            w[op.kind] += 1.0;
        double wsum = 0, states = 0, steps = 0, analog_run = 0,
               ode_us = 0, ratio = 0, evals = 0, ns = 0;
        std::size_t replays = 0;
        for (std::size_t k = 0; k < in.replays.size(); ++k) {
            const Replay &r = in.replays[k];
            if (!r.valid || w[k] == 0.0)
                continue;
            ++replays;
            wsum += w[k];
            states += w[k] * static_cast<double>(r.states);
            steps += w[k] * r.steps;
            analog_run += w[k] * r.analog_s * 1e6;
            ode_us += w[k] * r.odeSelfUsPerStep();
            ratio += w[k] * r.analog_s / r.host_s;
            evals += w[k] * r.rhs_evals_per_step;
            ns += w[k] * r.rhs_ns_per_eval;
        }
        if (wsum > 0.0) {
            l.add("chip.analog_us_per_run", "us", analog_run / wsum,
                  replays);
            l.add("ode.steps_per_run", "count", steps / wsum, replays);
            l.add("ode.host_us_per_step", "us", ode_us / wsum, replays);
            l.add("ode.analog_s_per_host_s", "ratio", ratio / wsum,
                  replays);
            l.add("circuit.states", "count", states / wsum, replays);
            l.add("circuit.rhs_evals_per_step", "count", evals / wsum,
                  replays);
            l.add("circuit.rhs_ns_per_eval", "ns", ns / wsum, replays);
        }
    }
}

std::vector<FingerprintRow>
fingerprint(const std::vector<Op> &ops, std::size_t count,
            const std::vector<Kind> &kinds)
{
    std::vector<FingerprintRow> rows(kinds.size());
    for (std::size_t k = 0; k < kinds.size(); ++k)
        rows[k].kind = kinds[k].name;
    for (std::size_t i = 0; i < ops.size() && i < count; ++i) {
        const Op &op = ops[i];
        FingerprintRow &f = rows[op.kind];
        ++f.ops;
        f.attempts += static_cast<double>(op.attempts);
        f.analog_us += op.analog_s * 1e6;
        f.config_bytes += static_cast<double>(op.phases.config_bytes);
        f.krylov_iterations += static_cast<double>(op.krylov_iterations);
        f.refine_passes += static_cast<double>(op.refine_passes);
    }
    for (FingerprintRow &f : rows) {
        if (f.ops == 0)
            continue;
        double n = static_cast<double>(f.ops);
        f.attempts /= n;
        f.analog_us /= n;
        f.config_bytes /= n;
        f.krylov_iterations /= n;
        f.refine_passes /= n;
    }
    return rows;
}

void
buildSpans(const std::vector<Op> &ops, const std::vector<Replay> &replays,
           bool service_path, const std::string &root, Trace &trace)
{
    for (const Op &op : ops) {
        long r = trace.add(root, op.due, op.ready, -1, op.id);
        double phase_start = op.submit_start;
        double exec_end = op.ready;
        long exec = r;
        if (service_path) {
            if (op.submit_start > op.due)
                trace.add("loadgen.late", op.due, op.submit_start, r,
                          op.id);
            trace.add("service.submit", op.submit_start, op.submit_end, r,
                      op.id);
            double q_end = op.submit_end + op.queue_s;
            exec_end = op.submit_end + op.service_s;
            trace.add("service.queue", op.submit_end, q_end, r, op.id);
            exec = trace.add("service.exec", q_end, exec_end, r, op.id);
            phase_start = q_end;
        }
        // Phase durations arrive without timestamps: lay them back
        // to back from the start of execution.
        double t = phase_start;
        auto phase = [&](const char *name, double d) {
            long s = trace.add(name, t, t + d, exec, op.id, true);
            t += d;
            return s;
        };
        phase("compiler.compile", op.phases.compile_seconds);
        phase("isa.configure", op.phases.configure_seconds);
        double run_start = t;
        long run = phase("chip.run", op.phases.run_seconds);
        double share = op.kind < replays.size()
                           ? replays[op.kind].circuitShare()
                           : 0.0;
        double rhs = op.phases.run_seconds * share;
        trace.add("circuit.rhs", run_start, run_start + rhs, run, op.id,
                  true);
        trace.add("ode.step", run_start + rhs,
                  run_start + op.phases.run_seconds, run, op.id, true);
        phase("chip.readout", op.phases.readout_seconds);
        if (service_path && op.precond_lane && exec_end > t)
            trace.add("solver.krylov", t, exec_end, exec, op.id, true);
    }
}

void
addSelfTimes(const Trace &trace, std::size_t ops, RunResult &out)
{
    out.budget = trace.selfTimes();
    double per = ops ? 1e3 / static_cast<double>(ops) : 0.0;
    for (const std::string &layer : selfLayers()) {
        auto it = out.budget.self_seconds.find(layer);
        double s = it == out.budget.self_seconds.end() ? 0.0 : it->second;
        out.per_layer.add("self." + layer + "_ms_per_op", "ms", s * per,
                          ops);
    }
}

/** Fill every catalogued per-layer metric the workload did not
 *  report with an explicit n/a entry, in catalogue order. */
void
completePerLayer(RunResult &out)
{
    MetricSet full;
    for (const auto &[name, unit] : perLayerCatalog()) {
        if (const Metric *m = out.per_layer.find(name)) {
            if (m->unit != unit)
                throw std::logic_error("unit mismatch for " + name);
            full.add(m->name, m->unit, m->value, m->samples);
        } else {
            full.notApplicable(name, unit);
        }
    }
    for (const Metric &m : out.per_layer.all())
        if (!full.find(m.name))
            full.add(m.name, m.unit, m.value, m.samples);
    out.per_layer = std::move(full);
}

} // namespace pb
