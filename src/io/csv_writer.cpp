#include "io/csv_writer.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/assert.h"

namespace tpf::io {

namespace {

std::string schemaLine(const std::string& tag, int version) {
    return "# " + tag + " v" + std::to_string(version);
}

std::string joinHeader(const std::vector<std::string>& columns) {
    std::string h = "step";
    for (const auto& c : columns) {
        h += ',';
        h += c;
    }
    return h;
}

std::vector<std::string> splitCells(const std::string& line) {
    std::vector<std::string> cells;
    std::size_t begin = 0;
    for (;;) {
        const std::size_t comma = line.find(',', begin);
        if (comma == std::string::npos) {
            cells.push_back(line.substr(begin));
            return cells;
        }
        cells.push_back(line.substr(begin, comma - begin));
        begin = comma + 1;
    }
}

long long parseStep(const std::string& cell, const std::string& path,
                    std::size_t lineNo) {
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(cell.c_str(), &end, 10);
    if (errno != 0 || end == cell.c_str() || *end != '\0')
        throw CsvError(path + ": line " + std::to_string(lineNo) +
                       ": step key '" + cell + "' is not an integer");
    return v;
}

/// The compatibility rule of checkSeriesContinuable on a parsed series.
void checkContinuable(const CsvSeries& series, const std::string& path,
                      const std::string& tag, int version,
                      const std::vector<std::string>& columns,
                      const SeriesFlags& flags) {
    const std::string elsewhere =
        std::string("point ") + flags.location + " elsewhere";
    if (series.schema != schemaLine(tag, version))
        throw CsvError(path + ": schema line is '" + series.schema +
                       "' but this build writes '" + schemaLine(tag, version) +
                       "' — the series cannot be continued; move it aside or " +
                       elsewhere);
    const std::string header = joinHeader(columns);
    std::string existing = "step";
    for (std::size_t i = 1; i < series.columns.size(); ++i)
        existing += "," + series.columns[i];
    if (existing != header)
        throw CsvError(
            path + ": column set '" + existing +
            "' does not match this run's columns ('" + header + "') — " +
            (flags.columns != nullptr
                 ? std::string("pass the same ") + flags.columns +
                       " as the original run, or " + elsewhere
                 : "move it aside or " + elsewhere));
}

} // namespace

void checkSeriesContinuable(const std::string& path, const std::string& tag,
                            int version,
                            const std::vector<std::string>& columns,
                            const SeriesFlags& flags) {
    if (!std::filesystem::exists(path)) return;
    checkContinuable(readCsvSeries(path), path, tag, version, columns, flags);
}

CsvWriter::~CsvWriter() { close(); }

void CsvWriter::close() {
    if (f_ != nullptr) {
        std::fclose(f_);
        f_ = nullptr;
    }
}

void CsvWriter::create(const std::string& path, const std::string& tag,
                       int version,
                       const std::vector<std::string>& columns) {
    close();
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    f_ = std::fopen(path.c_str(), "w");
    if (f_ == nullptr)
        throw CsvError("cannot create CSV series " + path + ": " +
                       std::strerror(errno));
    columnCount_ = columns.size();
    lastWrittenStep_ = -1;
    std::fprintf(f_, "%s\n%s\n", schemaLine(tag, version).c_str(),
                 joinHeader(columns).c_str());
    std::fflush(f_);
}

void CsvWriter::resume(const std::string& path, const std::string& tag,
                       int version, const std::vector<std::string>& columns,
                       long long lastStep, const SeriesFlags& flags) {
    close();
    if (!std::filesystem::exists(path)) {
        // No series to continue (e.g. a fresh output directory): start one.
        // Rows before the restart step are then genuinely absent — the
        // original run's file is where they live.
        create(path, tag, version, columns);
        lastWrittenStep_ = lastStep;
        return;
    }

    const CsvSeries series = readCsvSeries(path);
    checkContinuable(series, path, tag, version, columns, flags);
    const std::string header = joinHeader(columns);

    // Keep rows up to the checkpoint step, drop anything newer: the run
    // being resumed may have sampled past its last checkpoint.
    std::string kept;
    long long newest = -1;
    for (std::size_t i = 0; i < series.rows.size(); ++i) {
        const long long s = series.stepOf(i);
        if (s > lastStep) continue;
        if (s <= newest)
            throw CsvError(path + ": step keys are not increasing (" +
                           std::to_string(s) + " after " +
                           std::to_string(newest) + ")");
        newest = s;
        for (std::size_t c = 0; c < series.rows[i].size(); ++c) {
            if (c > 0) kept += ',';
            kept += series.rows[i][c];
        }
        kept += '\n';
    }

    // Rewrite via a staging file + rename so a crash mid-resume can never
    // destroy the prior series (same publication pattern as io/checkpoint).
    const std::string tmp = path + ".tmp";
    std::FILE* staged = std::fopen(tmp.c_str(), "w");
    if (staged == nullptr)
        throw CsvError("cannot stage CSV series " + tmp + ": " +
                       std::strerror(errno));
    std::fprintf(staged, "%s\n%s\n%s", series.schema.c_str(), header.c_str(),
                 kept.c_str());
    const bool stagedOk = std::fflush(staged) == 0;
    std::fclose(staged);
    if (!stagedOk) throw CsvError("cannot write staged CSV series " + tmp);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        throw CsvError("cannot publish resumed CSV series " + path + ": " +
                       ec.message());

    f_ = std::fopen(path.c_str(), "a");
    if (f_ == nullptr)
        throw CsvError("cannot reopen CSV series " + path + ": " +
                       std::strerror(errno));
    columnCount_ = columns.size();
    lastWrittenStep_ = lastStep;
}

void CsvWriter::writeRow(long long step, const std::vector<double>& values) {
    TPF_ASSERT(f_ != nullptr, "CsvWriter::writeRow before create/resume");
    TPF_ASSERT(values.size() == columnCount_,
               "CSV row length does not match the header");
    TPF_ASSERT(step > lastWrittenStep_, "CSV steps must be increasing");
    lastWrittenStep_ = step;
    std::fprintf(f_, "%lld", step);
    for (const double v : values) std::fprintf(f_, ",%.17g", v);
    std::fputc('\n', f_);
    std::fflush(f_);
}

long long CsvSeries::stepOf(std::size_t i) const {
    TPF_ASSERT(i < rows.size() && !rows[i].empty(), "row index out of range");
    return parseStep(rows[i][0], "<series>", i + 3);
}

CsvSeries readCsvSeries(const std::string& path) {
    std::ifstream in(path);
    if (!in.good()) throw CsvError("cannot open CSV series " + path);

    CsvSeries s;
    std::string line;
    if (!std::getline(in, line) || line.rfind("# ", 0) != 0)
        throw CsvError(path + ": missing '# <tag> v<version>' schema line");
    s.schema = line;
    if (!std::getline(in, line) || line.rfind("step", 0) != 0)
        throw CsvError(path + ": missing 'step,...' header line");
    s.columns = splitCells(line);

    std::size_t lineNo = 2;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty()) continue;
        std::vector<std::string> cells = splitCells(line);
        if (cells.size() != s.columns.size())
            throw CsvError(path + ": line " + std::to_string(lineNo) + " has " +
                           std::to_string(cells.size()) + " cells, header has " +
                           std::to_string(s.columns.size()));
        parseStep(cells[0], path, lineNo); // validate the key
        s.rows.push_back(std::move(cells));
    }
    return s;
}

CsvDiff compareCsvSeries(const std::string& pathA, const std::string& pathB) {
    CsvDiff d;
    CsvSeries a, b;
    try {
        a = readCsvSeries(pathA);
        b = readCsvSeries(pathB);
    } catch (const CsvError& e) {
        d.message = e.what();
        return d;
    }

    if (a.schema != b.schema) {
        d.message = "schema mismatch: '" + a.schema + "' vs '" + b.schema + "'";
        return d;
    }
    if (a.columns != b.columns) {
        std::size_t i = 0;
        while (i < a.columns.size() && i < b.columns.size() &&
               a.columns[i] == b.columns[i])
            ++i;
        d.message =
            "column mismatch at index " + std::to_string(i) + ": '" +
            (i < a.columns.size() ? a.columns[i] : std::string("<none>")) +
            "' vs '" +
            (i < b.columns.size() ? b.columns[i] : std::string("<none>")) + "'";
        return d;
    }
    if (a.rows.size() != b.rows.size()) {
        d.message = "row count mismatch: " + std::to_string(a.rows.size()) +
                    " vs " + std::to_string(b.rows.size());
        if (!a.rows.empty() && !b.rows.empty()) {
            const std::size_t n = std::min(a.rows.size(), b.rows.size());
            d.message += " (last common step " +
                         std::to_string(a.stepOf(n - 1)) + ")";
        }
        return d;
    }

    long long differing = 0;
    std::string first;
    for (std::size_t r = 0; r < a.rows.size(); ++r) {
        for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
            if (a.rows[r][c] == b.rows[r][c]) continue;
            ++differing;
            if (first.empty()) {
                std::ostringstream os;
                os << "first divergence at step " << a.stepOf(r)
                   << ", column '" << a.columns[c] << "': " << a.rows[r][c]
                   << " vs " << b.rows[r][c];
                first = os.str();
            }
        }
    }
    if (differing == 0) {
        d.identical = true;
        d.message = "identical";
        return d;
    }
    d.message = first + " (" + std::to_string(differing) +
                " differing cell(s) in total)";
    return d;
}

} // namespace tpf::io
