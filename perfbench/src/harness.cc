#include "harness.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "aa/la/direct.hh"

namespace pb {

namespace {

// Captured during static initialization, before main() runs.
const Clock::time_point g_process_start = Clock::now();

std::string
layerOf(const std::string &span_name)
{
    return span_name.substr(0, span_name.find('.'));
}

} // namespace

Clock::time_point
processStart()
{
    return g_process_start;
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    // Nearest rank: the smallest value with at least q of the sample
    // at or below it.
    double rank = std::ceil(q * static_cast<double>(xs.size()));
    std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return xs[std::min(k, xs.size() - 1)];
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += std::log(x);
    return std::exp(s / static_cast<double>(xs.size()));
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
MetricSet::add(const std::string &name, const std::string &unit,
               double value, std::size_t samples)
{
    if (find(name))
        throw std::logic_error("metric reported twice: " + name);
    metrics_.push_back({name, unit, value, samples, true});
}

void
MetricSet::notApplicable(const std::string &name,
                         const std::string &unit)
{
    if (find(name))
        throw std::logic_error("metric reported twice: " + name);
    metrics_.push_back({name, unit, 0.0, 0, false});
}

const Metric *
MetricSet::find(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return &m;
    return nullptr;
}

void
MetricSet::print(std::ostream &os, const std::string &title) const
{
    os << title << "\n";
    os << "  " << std::left << std::setw(36) << "metric" << std::right
       << std::setw(16) << "value" << "  " << std::left << std::setw(8)
       << "unit" << std::right << std::setw(8) << "samples" << "\n";
    for (const Metric &m : metrics_) {
        os << "  " << std::left << std::setw(36) << m.name << std::right
           << std::setw(16);
        if (m.applies)
            os << jsonNumber(m.value);
        else
            os << "n/a";
        os << "  " << std::left << std::setw(8) << m.unit << std::right
           << std::setw(8) << m.samples << "\n";
    }
}

void
MetricSet::writeJson(std::ostream &os) const
{
    os << "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        os << (i ? ", " : "") << jsonString(m.name)
           << ": {\"value\": " << jsonNumber(m.value)
           << ", \"unit\": " << jsonString(m.unit)
           << ", \"samples\": " << m.samples
           << ", \"applies\": " << (m.applies ? "true" : "false") << "}";
    }
    os << "}";
}

long
Trace::add(const std::string &name, double start, double end,
           long parent, std::uint64_t op, bool synthetic)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, start, end, parent, op, synthetic});
    return static_cast<long>(spans_.size()) - 1;
}

Trace::Budget
Trace::selfTimes() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> child_sum(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child_sum[static_cast<std::size_t>(s.parent)] +=
                s.end - s.start;
    Budget b;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        double self = std::max(0.0, (s.end - s.start) - child_sum[i]);
        b.self_seconds[layerOf(s.name)] += self;
        if (s.parent < 0) {
            b.root_seconds += s.end - s.start;
            ++b.roots;
        }
    }
    return b;
}

void
Trace::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace file " + path);
    for (const Span &s : spans_)
        out << "{\"name\": " << jsonString(s.name)
            << ", \"start_s\": " << jsonNumber(s.start)
            << ", \"end_s\": " << jsonNumber(s.end)
            << ", \"parent\": " << s.parent << ", \"op\": " << s.op
            << ", \"synthetic_start\": "
            << (s.synthetic ? "true" : "false") << "}\n";
}

double
relResidual(const aa::la::DenseMatrix &a, const aa::la::Vector &u,
            const aa::la::Vector &b)
{
    double bn = aa::la::norm2(b);
    return aa::la::norm2(b - a.apply(u)) / (bn > 0.0 ? bn : 1.0);
}

double
relError(const aa::la::DenseMatrix &a, const aa::la::Vector &u,
         const aa::la::Vector &b)
{
    aa::la::Vector ref = aa::la::solveDense(a, b);
    double rn = aa::la::norm2(ref);
    return aa::la::norm2(u - ref) / (rn > 0.0 ? rn : 1.0);
}

Check
checkAnswer(const aa::la::DenseMatrix &a, const aa::la::Vector &b,
            const aa::la::Vector &u, bool ok, double target,
            double claimed)
{
    // Relative slack for recomputing a residual the program measured
    // itself: cancellation in b - A u is far below this at 1e-8.
    constexpr double kRecomputeSlack = 1e-3;
    Check c;
    if (!ok || u.size() != b.size()) {
        c.failed = true;
        return c;
    }
    c.rel_residual = relResidual(a, u, b);
    c.rel_error = relError(a, u, b);
    c.failed = !(c.rel_residual <= target); // NaN counts as over
    c.silent_wrong =
        claimed > 0.0 &&
        !(c.rel_residual <= claimed * (1.0 + kRecomputeSlack));
    return c;
}

Provenance
provenance()
{
    Provenance p;
#ifdef PB_BUILD_TYPE
    p.build_type = PB_BUILD_TYPE;
#else
    p.build_type = "unknown";
#endif
#ifdef PB_CXX_FLAGS
    p.cxx_flags = PB_CXX_FLAGS;
#else
    p.cxx_flags = "unknown";
#endif
#if defined(__clang__)
    p.compiler = "clang " + std::to_string(__clang_major__) + "." +
                 std::to_string(__clang_minor__) + "." +
                 std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
    p.compiler = "gcc " + std::to_string(__GNUC__) + "." +
                 std::to_string(__GNUC_MINOR__) + "." +
                 std::to_string(__GNUC_PATCHLEVEL__);
#else
    p.compiler = "unknown";
#endif
    p.nproc = std::thread::hardware_concurrency();
    return p;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        switch (ch) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double x)
{
    if (!std::isfinite(x))
        return "null";
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, x);
    return std::string(buf, res.ptr);
}

} // namespace pb
