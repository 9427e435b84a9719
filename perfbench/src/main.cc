/**
 * @file
 * aasim_perfbench: one workload, one run.
 *
 *   aasim_perfbench --workload <serve_open|precise_closed|sweep_bandwidth>
 *                   --seed <n> --seconds <s>
 *                   [--trace 0|1 --trace-out <spans.jsonl>]
 *
 * Prints the run's provenance, the pattern placement, the simulated-
 * statistics fingerprint and every end-to-end metric with its unit and
 * sample count; a traced run adds the per-layer metrics and the
 * per-layer self-time table. The last line of standard output is one
 * JSON object holding all of it, which perfbench/run.py reads.
 *
 * Exit codes: 0 ok; 2 bad arguments; 3 a silent wrong answer (the
 * program vouched for an answer whose recomputed residual misses its
 * bar); 4 the run is invalid (an open-loop backlog grew).
 */

#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include <malloc.h>

#include "aa/common/logging.hh"
#include "harness.hh"
#include "workload.hh"

namespace {

using namespace pb;

/** The self-time table's columns must sum to operation wall time
 *  within this share. */
constexpr double kSelfTimeTolerance = 0.05;

int
usage(const char *why)
{
    std::cerr << "aasim_perfbench: " << why << "\n"
              << "usage: aasim_perfbench --workload <name> --seed <n> "
                 "--seconds <s> [--trace 0|1 --trace-out <path>]\n";
    return 2;
}

bool
parse(int argc, char **argv, RunConfig &cfg)
{
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            return false;
        std::string a = argv[i];
        std::string v = argv[i + 1];
        try {
            if (a == "--workload")
                cfg.workload = v;
            else if (a == "--seed")
                cfg.seed = std::stoull(v);
            else if (a == "--seconds")
                cfg.seconds = std::stod(v);
            else if (a == "--trace")
                cfg.trace = v == "1";
            else if (a == "--trace-out")
                cfg.trace_path = v;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return !cfg.workload.empty() && cfg.seconds > 0.0;
}

void
printFingerprint(std::ostream &os, const RunResult &r)
{
    os << "fingerprint (simulated counters per operation, by kind)\n"
       << "  " << std::left << std::setw(24) << "kind" << std::right
       << std::setw(6) << "ops" << std::setw(22) << "attempts"
       << std::setw(22) << "analog_us" << std::setw(22) << "config_B"
       << std::setw(22) << "krylov_iters" << std::setw(22)
       << "refine_passes" << "\n";
    for (const FingerprintRow &f : r.fingerprint)
        os << "  " << std::left << std::setw(24) << f.kind << std::right
           << std::setw(6) << f.ops << std::setw(22)
           << jsonNumber(f.attempts) << std::setw(22)
           << jsonNumber(f.analog_us) << std::setw(22)
           << jsonNumber(f.config_bytes) << std::setw(22)
           << jsonNumber(f.krylov_iterations) << std::setw(22)
           << jsonNumber(f.refine_passes) << "\n";
}

/** Where the time goes: per-layer self time per operation. Returns
 *  the mismatch between the columns' sum and operation wall time. */
double
printBudget(std::ostream &os, const RunResult &r, const std::string &wl)
{
    const Trace::Budget &b = r.budget;
    double sum = 0.0;
    for (const auto &[layer, s] : b.self_seconds)
        sum += s;
    double per = b.roots ? 1e3 / static_cast<double>(b.roots) : 0.0;
    double mismatch =
        b.root_seconds > 0.0 ? std::abs(sum - b.root_seconds) / b.root_seconds
                             : 0.0;
    os << "self time per operation (ms) on " << wl << ", " << b.roots
       << " operations\n  ";
    for (const auto &[layer, s] : b.self_seconds)
        os << std::setw(11) << layer;
    os << std::setw(11) << "sum" << std::setw(11) << "wall" << "\n  ";
    os << std::fixed << std::setprecision(4);
    for (const auto &[layer, s] : b.self_seconds)
        os << std::setw(11) << s * per;
    os << std::setw(11) << sum * per << std::setw(11)
       << b.root_seconds * per << "\n";
    os.unsetf(std::ios::floatfield);
    os << std::setprecision(6) << "  columns sum to wall within "
       << mismatch * 100.0 << "% (tolerance "
       << kSelfTimeTolerance * 100.0 << "%): "
       << (mismatch <= kSelfTimeTolerance ? "ok" : "EXCEEDED") << "\n";
    return mismatch;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    if (!parse(argc, argv, cfg) || (cfg.trace && cfg.trace_path.empty()))
        return usage("bad arguments");
    aa::setLogLevel(aa::LogLevel::Quiet);
    // The fleet workloads start fresh service threads for every
    // segment; glibc would hand those short-lived threads ever more
    // malloc arenas, and peak_rss_mb would measure that churn rather
    // than the program. One arena keeps it a measure of the program.
    mallopt(M_ARENA_MAX, 1);

    RunResult r;
    if (cfg.workload == "serve_open")
        r = runServeOpen(cfg);
    else if (cfg.workload == "precise_closed")
        r = runPreciseClosed(cfg);
    else if (cfg.workload == "sweep_bandwidth")
        r = runSweepBandwidth(cfg);
    else
        return usage(("unknown workload " + cfg.workload).c_str());
    completePerLayer(r);

    Provenance p = provenance();
    std::ostream &os = std::cout;
    os << "workload " << cfg.workload << " seed " << cfg.seed
       << " seconds " << cfg.seconds << " trace " << cfg.trace << "\n"
       << "nproc " << p.nproc << " build " << p.build_type << " compiler "
       << p.compiler << " flags \"" << p.cxx_flags << "\"\n";
    for (const std::string &n : r.notes)
        os << n << "\n";
    printFingerprint(os, r);
    os << "operations attempted " << r.attempted << " failed " << r.failed
       << " silent_wrong " << r.silent_wrong << "\n";
    r.end_to_end.print(os, "end-to-end metrics (latency_tail_ms = " +
                               r.tail_label + ", rel_error_tail = " +
                               r.error_tail_label + ")");
    double mismatch = 0.0;
    if (cfg.trace) {
        r.per_layer.print(os, "per-layer metrics (traced run)");
        mismatch = printBudget(os, r, cfg.workload);
        os << "spans written to " << cfg.trace_path << "\n";
    }
    if (!r.valid)
        os << "INVALID RUN: " << r.invalid_reason << "\n";

    std::ostringstream js;
    js << "{\"workload\": " << jsonString(cfg.workload)
       << ", \"seed\": " << cfg.seed << ", \"seconds\": "
       << jsonNumber(cfg.seconds)
       << ", \"trace\": " << (cfg.trace ? "true" : "false")
       << ", \"provenance\": {\"nproc\": " << p.nproc
       << ", \"build_type\": " << jsonString(p.build_type)
       << ", \"compiler\": " << jsonString(p.compiler)
       << ", \"cxx_flags\": " << jsonString(p.cxx_flags) << "}"
       << ", \"valid\": " << (r.valid ? "true" : "false")
       << ", \"invalid_reason\": " << jsonString(r.invalid_reason)
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"silent_wrong\": " << r.silent_wrong
       << ", \"tail\": " << jsonString(r.tail_label)
       << ", \"error_tail\": " << jsonString(r.error_tail_label)
       << ", \"end_to_end\": ";
    r.end_to_end.writeJson(js);
    js << ", \"per_layer\": ";
    if (cfg.trace)
        r.per_layer.writeJson(js);
    else
        js << "{}";
    js << ", \"self_time_mismatch\": " << jsonNumber(mismatch)
       << ", \"fingerprint\": [";
    for (std::size_t i = 0; i < r.fingerprint.size(); ++i) {
        const FingerprintRow &f = r.fingerprint[i];
        js << (i ? ", " : "") << "{\"kind\": " << jsonString(f.kind)
           << ", \"ops\": " << f.ops
           << ", \"attempts\": " << jsonNumber(f.attempts)
           << ", \"analog_us\": " << jsonNumber(f.analog_us)
           << ", \"config_bytes\": " << jsonNumber(f.config_bytes)
           << ", \"krylov_iterations\": " << jsonNumber(f.krylov_iterations)
           << ", \"refine_passes\": " << jsonNumber(f.refine_passes) << "}";
    }
    js << "]}";
    os << js.str() << std::endl;

    if (r.silent_wrong > 0)
        return 3;
    if (!r.valid)
        return 4;
    return 0;
}
