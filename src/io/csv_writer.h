#pragma once
/// \file csv_writer.h
/// Versioned CSV time-series output for the in-situ analysis pipeline.
///
/// A series file carries a schema line, a column header, and one row per
/// sample keyed by the global step count:
///
///     # tpf-analysis v1
///     step,time,window_offset,frac_s0,...
///     0,0,0,0.1875,...
///     4,0.040000000000000001,...
///
/// Values are printed with %.17g, which round-trips IEEE-754 doubles exactly:
/// two runs that compute bitwise-identical doubles write byte-identical
/// files, so the rank-invariance and golden time-series suites can compare
/// the artifacts directly.
///
/// Restart continuity: `resume()` re-opens an existing series, validates that
/// the schema and columns still match, keeps the rows with step <= the
/// checkpoint's step, drops any later rows (the original run may have
/// outlived its last checkpoint), and appends from there — so a restarted
/// run extends the series without duplicated or skipped rows and the final
/// file equals the one an uninterrupted run would have written.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace tpf::io {

/// Raised on CSV I/O or schema-validation failure.
class CsvError : public std::runtime_error {
public:
    explicit CsvError(const std::string& what) : std::runtime_error(what) {}
};

/// The flags a user changes when an existing series cannot be continued:
/// \p location points the series elsewhere; \p columns (nullptr when the
/// build fixes the column set) is the one that configured the columns.
struct SeriesFlags {
    const char* location;
    const char* columns = nullptr;
};

/// Throw CsvError unless the series at \p path can be continued by a writer
/// of this schema and column set: a missing file is fine (resume() starts
/// one); an existing file must carry "# <tag> v<version>" and the header
/// "step,<columns...>". The message names \p flags.
void checkSeriesContinuable(const std::string& path, const std::string& tag,
                            int version,
                            const std::vector<std::string>& columns,
                            const SeriesFlags& flags);

class CsvWriter {
public:
    CsvWriter() = default;
    ~CsvWriter();
    CsvWriter(const CsvWriter&) = delete;
    CsvWriter& operator=(const CsvWriter&) = delete;
    CsvWriter(CsvWriter&& o) noexcept { *this = std::move(o); }
    CsvWriter& operator=(CsvWriter&& o) noexcept {
        if (this != &o) {
            close();
            f_ = o.f_;
            o.f_ = nullptr;
            columnCount_ = o.columnCount_;
            lastWrittenStep_ = o.lastWrittenStep_;
        }
        return *this;
    }

    /// Start a fresh series: truncate \p path (parent directories created)
    /// and write the schema line "# <tag> v<version>" plus the header
    /// "step,<columns...>".
    void create(const std::string& path, const std::string& tag, int version,
                const std::vector<std::string>& columns);

    /// Resume an existing series after a restart from a checkpoint taken at
    /// step \p lastStep (see file comment). A missing file degrades to
    /// create(); a schema/column mismatch throws the checkSeriesContinuable
    /// error naming \p flags.
    void resume(const std::string& path, const std::string& tag, int version,
                const std::vector<std::string>& columns, long long lastStep,
                const SeriesFlags& flags);

    bool isOpen() const { return f_ != nullptr; }

    /// Append one row (flushed immediately; steps must be increasing).
    void writeRow(long long step, const std::vector<double>& values);

    void close();

private:
    std::FILE* f_ = nullptr;
    std::size_t columnCount_ = 0; ///< excluding the leading step column
    long long lastWrittenStep_ = -1;
};

/// A parsed series: the schema line, the header columns and the raw row
/// cells (kept as strings so comparisons are bitwise, not value-based).
struct CsvSeries {
    std::string schema; ///< the "# <tag> v<N>" line, without the newline
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows; ///< cells incl. leading step
    /// Step key of row \p i (the first cell parsed as an integer).
    long long stepOf(std::size_t i) const;
};

/// Parse a series file. Throws CsvError on missing file or malformed layout
/// (no schema line, no header, ragged rows).
CsvSeries readCsvSeries(const std::string& path);

/// First point of divergence between two series files, cell by cell.
struct CsvDiff {
    bool identical = false;
    /// Human-readable report: "identical", a structural mismatch (schema,
    /// columns, row count), or the first divergent step/column with both
    /// values plus the total differing-cell count.
    std::string message;
};

CsvDiff compareCsvSeries(const std::string& pathA, const std::string& pathB);

} // namespace tpf::io
