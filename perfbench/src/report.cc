/**
 * @file
 * Implementation of the result bookkeeping.
 */

#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

double
quantile(std::vector<double> &values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(values, 0.5);
}

void
Windowed::add(double value, int64_t sinceStartNs)
{
    values_.push_back(value);
    window_.push_back(
        static_cast<uint32_t>(std::max<int64_t>(0, sinceStartNs) / kWindowNs));
}

double
Windowed::windowedQuantile(double q) const
{
    std::map<uint32_t, std::vector<double>> byWindow;
    for (size_t i = 0; i < values_.size(); ++i)
        byWindow[window_[i]].push_back(values_[i]);
    std::vector<double> perWindow;
    for (auto &[w, samples] : byWindow) {
        if (samples.size() >= kMinSamples)
            perWindow.push_back(quantile(samples, q));
    }
    return perWindow.empty() ? overall(q) : median(perWindow);
}

double
Windowed::windowedRate(int64_t durationNs) const
{
    const auto full = static_cast<uint32_t>(durationNs / kWindowNs);
    std::vector<double> counts(full, 0.0);
    for (uint32_t w : window_) {
        if (w < full)
            counts[w] += 1.0;
    }
    for (double &c : counts)
        c *= 1e9 / static_cast<double>(kWindowNs);
    return counts.empty() ? 0.0 : median(counts);
}

double
Windowed::overall(double q) const
{
    std::vector<double> all = values_;
    return quantile(all, q);
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, {value, unit}});
}

bool
Report::hasMetric(const std::string &name) const
{
    for (const auto &[have, v] : metrics_) {
        if (have == name)
            return true;
    }
    return false;
}

std::vector<std::string>
Report::metricNames() const
{
    std::vector<std::string> names;
    for (const auto &[name, v] : metrics_)
        names.push_back(name);
    return names;
}

void
Report::note(const std::string &name, double value, const std::string &unit)
{
    notes_.push_back({name, {value, unit}});
}

void
Report::operations(uint64_t n, uint64_t failed)
{
    attempted_ += n;
    failed_ += failed;
}

bool
Report::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        ++checksFailed_;
        lines_.push_back("CHECK FAILED: " + what);
    }
    return ok;
}

void
Report::line(const std::string &text)
{
    lines_.push_back(text);
}

double
Report::errorRate() const
{
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
}

namespace {

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace

void
Report::print() const
{
    for (const auto &text : lines_)
        std::cout << text << "\n";
    auto row = [](const std::string &name, const Value &v) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "  %-34s %16.6g %s\n", name.c_str(),
                      v.value, v.unit.c_str());
        std::cout << buf;
    };
    std::cout << "figures:\n";
    for (const auto &[name, v] : notes_)
        row(name, v);
    std::cout << "result metrics:\n";
    for (const auto &[name, v] : metrics_)
        row(name, v);
    std::cout << "  attempted=" << attempted_ << " failed=" << failed_
              << " error_rate=" << formatNumber(errorRate()) << "\n";

    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        if (i > 0)
            json += ", ";
        json += "\"" + metrics_[i].first + "\": {\"value\": " +
                formatNumber(metrics_[i].second.value) + ", \"unit\": \"" +
                metrics_[i].second.unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
}

double
peakRssMb(int pid)
{
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
    return 0.0;
}

void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
processCpuSeconds(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the line, 12 and 13 after the name.
    std::istringstream rest(text.substr(text.rfind(')') + 2));
    std::string field;
    for (int i = 0; i < 11; ++i)
        rest >> field;
    double utime = 0;
    double stime = 0;
    rest >> utime >> stime;
    return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
selfCpuSeconds()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

} // namespace perfbench
