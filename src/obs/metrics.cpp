#include "obs/metrics.h"

#include <algorithm>

#include "obs/fanout.h"
#include "util/assert.h"

namespace tpf::obs {

namespace {
thread_local FanoutStats* tFanout = nullptr;
} // namespace

FanoutStats* threadFanoutStats() { return tFanout; }
void setThreadFanoutStats(FanoutStats* s) { tFanout = s; }

void Histogram::observe(double v) {
    min_ = count_ > 0 ? std::min(min_, v) : v;
    max_ = count_ > 0 ? std::max(max_, v) : v;
    sum_ += v;
    count_ += 1.0;
}

MetricsRegistry::Metric& MetricsRegistry::instrument(const std::string& name,
                                                     Metric::Kind kind) {
    for (auto& m : metrics_)
        if (m->name == name) {
            TPF_ASSERT(m->kind == kind, "metric re-registered with a different kind");
            return *m;
        }
    metrics_.push_back(std::make_unique<Metric>());
    metrics_.back()->name = name;
    metrics_.back()->kind = kind;
    return *metrics_.back();
}

Counter& MetricsRegistry::counter(const std::string& name) {
    return instrument(name, Metric::Kind::Counter).c;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
    return instrument(name, Metric::Kind::Gauge).g;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
    return instrument(name, Metric::Kind::Histogram).h;
}

std::vector<std::string> MetricsRegistry::columns() const {
    std::vector<std::string> cols;
    for (const auto& m : metrics_) {
        if (m->kind == Metric::Kind::Histogram) {
            cols.push_back(m->name + "_count");
            cols.push_back(m->name + "_min");
            cols.push_back(m->name + "_max");
            cols.push_back(m->name + "_sum");
        } else {
            cols.push_back(m->name);
        }
    }
    return cols;
}

std::vector<double> MetricsRegistry::row() const {
    std::vector<double> out;
    for (const auto& m : metrics_) {
        switch (m->kind) {
            case Metric::Kind::Counter: out.push_back(m->c.value()); break;
            case Metric::Kind::Gauge: out.push_back(m->g.value()); break;
            case Metric::Kind::Histogram:
                out.push_back(m->h.count());
                out.push_back(m->h.minValue());
                out.push_back(m->h.maxValue());
                out.push_back(m->h.sum());
                break;
        }
    }
    return out;
}

void MetricsRegistry::createCsv(const std::string& path) {
    csv_.create(path, kCsvTag, kCsvVersion, columns());
}

void MetricsRegistry::resumeCsv(const std::string& path, long long lastStep) {
    csv_.resume(path, kCsvTag, kCsvVersion, columns(), lastStep, kCsvFlags);
}

void MetricsRegistry::writeCsvRow(long long step) {
    TPF_ASSERT(csv_.isOpen(), "writeCsvRow on a closed metrics CSV");
    csv_.writeRow(step, row());
}

} // namespace tpf::obs
