/**
 * @file
 * What the three workloads share: the run configuration, the request
 * kinds, the per-operation record the timed phase fills in, the
 * replay that splits chip run time into ODE-stepper and circuit-RHS
 * time, and the summary that turns records into the end-to-end and
 * per-layer metrics.
 *
 * An operation is one request (serve_open, precise_closed) or one
 * AnalogLinearSolver::solve call (sweep_bandwidth).
 */

#ifndef PB_WORKLOAD_HH
#define PB_WORKLOAD_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aa/analog/solver.hh"
#include "aa/la/dense_matrix.hh"
#include "aa/la/vector.hh"
#include "aa/service/service.hh"
#include "harness.hh"

namespace pb {

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_path; ///< where the traced run writes its spans
};

/** Deterministic 64-bit stream derived from (seed, tags...). */
std::uint64_t mix(std::uint64_t seed, std::uint64_t a,
                  std::uint64_t b = 0);
/** Uniform double in [0, 1) from a mixed key. */
double unit(std::uint64_t key);

/** One request kind: a system, its forcing and how it is served. */
struct Kind {
    std::string name;
    std::string tenant;
    std::shared_ptr<const aa::la::DenseMatrix> a;
    aa::la::Vector forcing; ///< b before the seeded factor
    double tolerance = 0.0;
    std::size_t max_refine_passes = 4;
    aa::service::LanePreference lane = aa::service::LanePreference::Auto;

    /** Residual target an answer must meet (see checkAnswer). */
    double target() const
    {
        return tolerance > 0.0 ? tolerance : kVerifyBar;
    }

    /** The residual bound a response vouches for: the tolerance when
     *  it reports convergence to one, else the verify bar when it is
     *  verified, else none (0). */
    double claimed(bool converged, bool verified) const
    {
        if (converged && tolerance > 0.0)
            return tolerance;
        return verified ? kVerifyBar : 0.0;
    }
};

/** What one operation did, filled in by the timed phase. */
struct Op {
    std::size_t kind = 0;
    std::uint64_t id = 0;
    std::shared_ptr<const aa::la::DenseMatrix> a; ///< may vary by segment
    aa::la::Vector b;

    // Harness timestamps (seconds from the run's trace origin). `due`
    // is the open-loop schedule time, else equal to submit_start.
    double due = 0.0;
    double submit_start = 0.0;
    double submit_end = 0.0;
    double ready = 0.0;

    bool ok = false;       ///< status Ok and no exception
    std::string reason;    ///< why not ok, and any failure chain
    bool verified = false;  ///< passed the service's verify bar
    bool converged = false; ///< the service says the tolerance was met
    bool precond_lane = false;
    aa::la::Vector u;
    std::size_t die = 0;

    // Program-reported records.
    double queue_s = 0.0;
    double service_s = 0.0;
    std::size_t attempts = 0;
    std::size_t reroutes = 0;
    std::size_t overflow_retries = 0;
    std::size_t underrange_retries = 0;
    std::size_t refine_passes = 0;
    std::size_t precond_applies = 0;
    std::size_t krylov_iterations = 0;
    double analog_s = 0.0;
    aa::analog::SolvePhaseReport phases;

    Check check; ///< filled in after the timed phase

    double wall() const { return ready - due; }
    double phaseSeconds() const
    {
        return phases.compile_seconds + phases.configure_seconds +
               phases.run_seconds + phases.readout_seconds;
    }
};

/** Copy a service response's records into an operation. */
void fillFromResponse(Op &op, aa::service::SolveResponse &&r);

/**
 * Host-side cost of one configured analog run, measured on a die by
 * replaying its last configuration after the timed phase:
 * AcceleratorDriver::execStart gives steps and host time, a direct
 * Simulator::run over the same analog interval counts RHS
 * evaluations, and a timed loop of Simulator::evalRhs gives the cost
 * of one evaluation.
 */
struct Replay {
    bool valid = false;
    std::size_t states = 0;
    double steps = 0.0;    ///< ExecResult::sim_steps of the run
    double host_s = 0.0;   ///< host seconds of one execStart
    double analog_s = 0.0; ///< analog seconds of the run
    double rhs_evals_per_step = 0.0;
    double rhs_ns_per_eval = 0.0;

    /** Share of the run's host time spent inside RHS evaluations. */
    double circuitShare() const;
    /** Stepper self time per step, RHS evaluations excluded. */
    double odeSelfUsPerStep() const;
};

/** Replay the die's current configuration (see Replay). */
Replay replayLastRun(aa::analog::AnalogLinearSolver &die);

/** Simulated counters of one request kind, averaged per operation. */
struct FingerprintRow {
    std::string kind;
    std::size_t ops = 0;
    double attempts = 0.0;
    double analog_us = 0.0;
    double config_bytes = 0.0;
    double krylov_iterations = 0.0;
    double refine_passes = 0.0;
};

/** Everything one run reports. */
struct RunResult {
    MetricSet end_to_end;
    MetricSet per_layer;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t silent_wrong = 0;
    bool valid = true;
    std::string invalid_reason;
    std::string tail_label;       ///< which percentile latency_tail_ms is
    std::string error_tail_label; ///< which percentile rel_error_tail is
    std::vector<FingerprintRow> fingerprint;
    std::vector<std::string> notes; ///< placement and other context
    Trace::Budget budget;
};

/** Workload-specific inputs to the shared summary. */
struct SummaryInputs {
    double window_s = 0.0; ///< wall seconds of the timed phase
    double setup_s = 0.0;
    std::size_t setup_samples = 0;
    double tail_q = 0.99;
    std::string tail_label = "p99";
    /** Percentile of rel_error_tail: p99 once a run has 1000 answers,
     *  else the highest with at least ten answers beyond it. */
    double error_tail_q = 0.99;
    std::string error_tail_label = "p99";
    /** Report latency_p50_ms as the geometric mean of the latencies
     *  instead of their median (see sweep.cc for why). */
    bool typical_is_geomean = false;
    /** Replay per kind (empty when not traced). */
    std::vector<Replay> replays;
};

/**
 * Simulated counters per kind over ops[0, count). Each workload takes
 * it over a sequence of operations whose inputs and execution order
 * follow from the seed alone, so it repeats exactly across runs of
 * the same seed unless a simulated statistic changed.
 */
std::vector<FingerprintRow> fingerprint(const std::vector<Op> &ops,
                                        std::size_t count,
                                        const std::vector<Kind> &kinds);

/**
 * Check every answer, then fill the end-to-end metrics and the
 * per-layer metrics every workload computes the same way (analog,
 * solver, compiler, isa, chip, ode, circuit). Workload-specific
 * per-layer metrics are added by the caller.
 */
void summarize(std::vector<Op> &ops, const std::vector<Kind> &kinds,
               const SummaryInputs &in, RunResult &out);

/**
 * Build the traced run's spans from the operation records: a root per
 * operation and children at each layer boundary, chip run time split
 * into ode and circuit by the kind's replay. `root` names the root
 * span (its layer owns the root's self time).
 */
void buildSpans(const std::vector<Op> &ops,
                const std::vector<Replay> &replays, bool service_path,
                const std::string &root, Trace &trace);

/** Add the self.<layer>_ms_per_op metrics and keep the budget. */
void addSelfTimes(const Trace &trace, std::size_t ops,
                  RunResult &out);

/** Reorder the per-layer metrics into the catalogue every workload
 *  shares, adding an n/a entry for each one off this workload's
 *  path. */
void completePerLayer(RunResult &out);

RunResult runServeOpen(const RunConfig &cfg);
RunResult runPreciseClosed(const RunConfig &cfg);
RunResult runSweepBandwidth(const RunConfig &cfg);

} // namespace pb

#endif // PB_WORKLOAD_HH
