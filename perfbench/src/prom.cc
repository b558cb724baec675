/**
 * @file
 * Implementation of the Prometheus text reader.
 */

#include "prom.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "report.hh"

namespace perfbench {

Scrape
Scrape::parse(const std::string &text)
{
    Scrape scrape;
    scrape.bytes_ = text.size();
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const size_t space = line.rfind(' ');
        if (space == std::string::npos)
            continue;
        const std::string value = line.substr(space + 1);
        double parsed = 0.0;
        if (value == "+Inf")
            parsed = std::numeric_limits<double>::infinity();
        else if (value == "-Inf")
            parsed = -std::numeric_limits<double>::infinity();
        else
            parsed = std::strtod(value.c_str(), nullptr);
        scrape.samples_[line.substr(0, space)] = parsed;
    }
    return scrape;
}

bool
Scrape::has(const std::string &series) const
{
    return samples_.count(series) != 0;
}

double
Scrape::value(const std::string &series) const
{
    const auto it = samples_.find(series);
    return it == samples_.end() ? 0.0 : it->second;
}

std::vector<std::pair<double, double>>
Scrape::buckets(const std::string &name) const
{
    const std::string prefix = name + "_bucket{le=\"";
    std::vector<std::pair<double, double>> out;
    for (auto it = samples_.lower_bound(prefix);
         it != samples_.end() && it->first.rfind(prefix, 0) == 0; ++it) {
        const std::string le = it->first.substr(prefix.size());
        const double bound = le.rfind("+Inf", 0) == 0
                                 ? std::numeric_limits<double>::infinity()
                                 : std::strtod(le.c_str(), nullptr);
        out.push_back({bound, it->second});
    }
    std::sort(out.begin(), out.end());
    return out;
}

double
HistogramDelta::quantile(double q) const
{
    if (count <= 0 || buckets.empty())
        return 0.0;
    const double rank = q * count;
    double lower = 0.0;
    double below = 0.0;
    for (const auto &[le, cumulative] : buckets) {
        if (cumulative >= rank && cumulative > below) {
            if (!std::isfinite(le))
                return lower;  // Past the last finite bound.
            return lower + (le - lower) * (rank - below) / (cumulative - below);
        }
        lower = std::isfinite(le) ? le : lower;
        below = cumulative;
    }
    return lower;
}

MetricsDelta::MetricsDelta(Scrape before, Scrape after, Report &report)
    : before_(std::move(before)), after_(std::move(after)), report_(report)
{
}

bool
MetricsDelta::require(const std::string &series)
{
    return report_.check(before_.has(series) && after_.has(series),
                         "/metrics is missing " + series);
}

double
MetricsDelta::counter(const std::string &name)
{
    if (!require(name))
        return 0.0;
    return after_.value(name) - before_.value(name);
}

double
MetricsDelta::gauge(const std::string &name)
{
    return require(name) ? after_.value(name) : 0.0;
}

HistogramDelta
MetricsDelta::histogram(const std::string &name)
{
    HistogramDelta delta;
    if (!require(name + "_count") || !require(name + "_sum"))
        return delta;
    const auto before = before_.buckets(name);
    const auto after = after_.buckets(name);
    if (!report_.check(!after.empty() && before.size() == after.size(),
                       "/metrics histogram " + name + " has no buckets"))
        return delta;
    for (size_t i = 0; i < after.size(); ++i)
        delta.buckets.push_back(
            {after[i].first, after[i].second - before[i].second});
    delta.count =
        after_.value(name + "_count") - before_.value(name + "_count");
    delta.sum = after_.value(name + "_sum") - before_.value(name + "_sum");
    return delta;
}

} // namespace perfbench
