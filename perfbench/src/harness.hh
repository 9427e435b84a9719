/**
 * @file
 * Measurement plumbing shared by the benchmark's workloads: the
 * steady_clock timebase, order statistics, the named-metric report,
 * the in-memory span trace with its per-layer self-time table, answer
 * checking against a dense digital solve, and build provenance.
 *
 * Everything here times with std::chrono::steady_clock directly; the
 * system google-benchmark library is a debug build, so the harness
 * does not use it.
 */

#ifndef PB_HARNESS_HH
#define PB_HARNESS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "aa/la/dense_matrix.hh"
#include "aa/la/vector.hh"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** Process start as seen by main(); setup_s of the first set-up
 *  pass is measured from here. */
Clock::time_point processStart();

/** Nearest-rank quantile (q in [0, 1]) of a sample; 0 when empty. */
double quantile(std::vector<double> xs, double q);
double mean(const std::vector<double> &xs);
/** Geometric mean of a positive sample; 0 when empty. */
double geomean(const std::vector<double> &xs);

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

/** One named result with its unit and the sample count behind it.
 *  `applies` is false for a per-layer metric whose layer is not on
 *  the workload's path; it is reported as 0 and printed as n/a. */
struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0;
    bool applies = true;
};

/** Ordered set of metrics, unique by name. */
class MetricSet
{
  public:
    void add(const std::string &name, const std::string &unit,
             double value, std::size_t samples);
    void notApplicable(const std::string &name,
                       const std::string &unit);
    const std::vector<Metric> &all() const { return metrics_; }
    const Metric *find(const std::string &name) const;

    /** Aligned name / value / unit / samples table. */
    void print(std::ostream &os, const std::string &title) const;
    /** {"name": {"value": v, "unit": u, "samples": n,
     *  "applies": b}, ...} */
    void writeJson(std::ostream &os) const;

  private:
    std::vector<Metric> metrics_;
};

/**
 * Spans of the traced run, kept in memory and written out at exit.
 * A span's layer is its name up to the first '.'. Times are seconds
 * from the trace origin. Spans whose start is synthetic (phase
 * durations the program reports without timestamps, laid back to back
 * inside their parent) are marked so in the written file.
 */
class Trace
{
  public:
    struct Span {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        long parent = -1;
        std::uint64_t op = 0;
        bool synthetic = false;
    };

    explicit Trace(Clock::time_point origin) : origin_(origin) {}

    double at(Clock::time_point t) const
    {
        return seconds(t - origin_);
    }

    /** Append a span; returns its index (the parent handle for
     *  children). Thread-safe. */
    long add(const std::string &name, double start, double end,
             long parent, std::uint64_t op, bool synthetic = false);

    /**
     * Per-layer self time: each span's duration minus the durations
     * of its children, summed by layer. Negative self time (children
     * covering more than their parent, from clock skew between the
     * harness's and the program's stamps) is clamped to zero, so the
     * layers then sum to more than the roots.
     */
    struct Budget {
        std::map<std::string, double> self_seconds;
        double root_seconds = 0.0; ///< summed root-span durations
        std::size_t roots = 0;
    };
    Budget selfTimes() const;

    /** One JSON object per span, one per line. */
    void write(const std::string &path) const;

  private:
    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Recomputed ||b - A u||_2 / ||b||_2. */
double relResidual(const aa::la::DenseMatrix &a, const aa::la::Vector &u,
                   const aa::la::Vector &b);
/** ||u - u_ref||_2 / ||u_ref||_2 with u_ref = la::solveDense(a, b). */
double relError(const aa::la::DenseMatrix &a, const aa::la::Vector &u,
                const aa::la::Vector &b);

/** The service's verify bar, used as the target of tolerance-0
 *  operations (ServiceOptions::verify_rel_residual's default). */
constexpr double kVerifyBar = 0.2;

/** Outcome of checking one operation's answer. */
struct Check {
    bool failed = false;       ///< not Ok, threw, or over its target
    bool silent_wrong = false; ///< over the bound the program claimed
    double rel_error = 0.0;
    double rel_residual = 0.0;
};

/**
 * Check one answer. `target` is the request tolerance, or kVerifyBar
 * for tolerance 0; an answer over it failed. `claimed` is the residual
 * bound the program vouched for (0 = none); an answer over it, beyond
 * round-off in the recomputation, is a silent wrong answer.
 */
Check checkAnswer(const aa::la::DenseMatrix &a, const aa::la::Vector &b,
                  const aa::la::Vector &u, bool ok, double target,
                  double claimed);

/** Build-type, compiler and flag provenance of this binary. */
struct Provenance {
    std::string build_type;
    std::string compiler;
    std::string cxx_flags;
    unsigned nproc = 0;
};
Provenance provenance();

/** JSON string literal with escapes. */
std::string jsonString(const std::string &s);
/** Shortest round-trip decimal of a double (all digits kept). */
std::string jsonNumber(double x);

} // namespace pb

#endif // PB_HARNESS_HH
