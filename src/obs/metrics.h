#pragma once
/// \file metrics.h
/// A small metrics registry: named counters, gauges and histograms that
/// snapshot into one row of a versioned CSV time series.
///
///     # tpf-metrics v1
///     step,time,mlups,step_wall_s,...
///     0,0,...
///
/// The CSV reuses io::CsvWriter, so it inherits the analysis pipeline's
/// guarantees: %.17g exact round-trip of doubles and restart-resume
/// semantics (rows newer than the checkpoint are dropped, the series
/// continues without duplicated or skipped steps). Unlike the analysis CSV
/// the *values* here are wall-clock telemetry and differ run to run; only
/// the schema, the columns and the sampled step keys are deterministic.
///
/// Instruments register on first use and columns appear in registration
/// order, so all ranks registering the same instruments in the same order
/// (they do — registration happens in RunObs::RunObs) agree on the schema.

#include <memory>
#include <string>
#include <vector>

#include "io/csv_writer.h"

namespace tpf::obs {

/// Monotonic cumulative sum.
class Counter {
public:
    void add(double v) { v_ += v; }
    void inc() { v_ += 1.0; }
    double value() const { return v_; }

private:
    double v_ = 0.0;
};

/// Last-set value.
class Gauge {
public:
    void set(double v) { v_ = v; }
    double value() const { return v_; }

private:
    double v_ = 0.0;
};

/// Running count/min/max/sum of observed samples; expands to four CSV
/// columns (<name>_count, _min, _max, _sum).
class Histogram {
public:
    void observe(double v);
    double count() const { return count_; }
    double minValue() const { return count_ > 0 ? min_ : 0.0; }
    double maxValue() const { return max_; }
    double sum() const { return sum_; }

private:
    double count_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

class MetricsRegistry {
public:
    static constexpr const char* kCsvTag = "tpf-metrics";
    static constexpr int kCsvVersion = 1;
    static constexpr io::SeriesFlags kCsvFlags{"--metrics"};

    /// Look up or register an instrument. Registration order defines the
    /// CSV column order; re-registering a name with a different kind is a
    /// hard assert.
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /// Column names in registration order (histograms expand to 4).
    std::vector<std::string> columns() const;
    /// Current instrument values, aligned with columns().
    std::vector<double> row() const;

    // CSV streaming — call on the writing (root) rank only.
    void createCsv(const std::string& path);
    /// Resume after a restart from a checkpoint at \p lastStep (see
    /// io::CsvWriter::resume). Throws io::CsvError on schema mismatch.
    void resumeCsv(const std::string& path, long long lastStep);
    bool csvOpen() const { return csv_.isOpen(); }
    /// Append the current row() keyed by \p step and flush.
    void writeCsvRow(long long step);
    void closeCsv() { csv_.close(); }

private:
    struct Metric {
        enum class Kind { Counter, Gauge, Histogram };
        std::string name;
        Kind kind;
        Counter c;
        Gauge g;
        Histogram h;
    };

    Metric& instrument(const std::string& name, Metric::Kind kind);

    std::vector<std::unique_ptr<Metric>> metrics_; ///< stable addresses
    io::CsvWriter csv_;
};

} // namespace tpf::obs
