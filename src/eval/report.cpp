#include "eval/report.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>

#include "attacks/classifier.hpp"

namespace autocat {

namespace {

/** Deterministic double rendering. std::to_chars is locale-independent
 *  by specification, unlike snprintf("%g"), whose decimal point follows
 *  LC_NUMERIC — a host program calling setlocale() must not be able to
 *  break the byte-determinism contract (or JSON validity). */
std::string
jsonNumber(double v)
{
    char buf[40];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::general, 9);
    return std::string(buf, res.ptr);
}

/** JSON string escaping (control chars, quotes, backslash). */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

/** CSV field quoting (always quoted; doubled inner quotes). */
std::string
csvField(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += '"';
    return out;
}

std::string
sequenceString(const SweepCellResult &cell)
{
    if (!cell.completed)
        return "";
    return attackString(cell.result.sequence, cell.result.finalGuess);
}

} // namespace

void
writeSweepReportJson(std::ostream &os, const SweepReport &report,
                     const ReportOptions &options)
{
    os << "{\n"
       << "  \"name\": " << jsonString(report.name) << ",\n"
       << "  \"schema_version\": 2,\n"
       << "  \"cells\": [";
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        const SweepCellResult &c = report.cells[i];
        const ExplorationResult &r = c.result;
        os << (i ? ",\n" : "\n") << "    {\n"
           << "      \"index\": " << c.cell.index << ",\n"
           << "      \"label\": " << jsonString(c.cell.label) << ",\n"
           << "      \"scenario\": " << jsonString(c.cell.scenario)
           << ",\n"
           << "      \"hierarchy\": " << jsonString(c.cell.hierarchy)
           << ",\n"
           << "      \"policy\": " << jsonString(c.cell.policy) << ",\n"
           << "      \"agent\": " << jsonString(c.cell.agent) << ",\n"
           << "      \"seed\": " << c.cell.seed << ",\n"
           << "      \"completed\": " << (c.completed ? "true" : "false")
           << ",\n"
           << "      \"error\": " << jsonString(c.error) << ",\n"
           << "      \"converged\": "
           << (c.completed && r.converged ? "true" : "false") << ",\n"
           << "      \"epochs_to_converge\": " << r.epochsToConverge
           << ",\n"
           << "      \"env_steps\": " << r.envSteps << ",\n"
           << "      \"steps_to_discovery\": " << r.stepsToDiscovery
           << ",\n"
           << "      \"accuracy\": " << jsonNumber(r.finalAccuracy)
           << ",\n"
           << "      \"episode_length\": "
           << jsonNumber(r.finalEpisodeLength) << ",\n"
           << "      \"bit_rate\": " << jsonNumber(r.bitRate) << ",\n"
           << "      \"detection_rate\": " << jsonNumber(r.detectionRate)
           << ",\n"
           << "      \"sequence\": " << jsonString(sequenceString(c))
           << ",\n"
           << "      \"category\": "
           << jsonString(c.completed ? categoryLabel(r.category) : "");
        if (options.includeTiming) {
            // attempts travels with the timing block: like wall time it
            // depends on how the run went (worker deaths, retries), not
            // on what the cells computed, and must stay out of the
            // byte-deterministic default report.
            os << ",\n      \"wall_s\": " << jsonNumber(c.wallSeconds)
               << ",\n      \"attempts\": " << c.attempts;
        }
        os << "\n    }";
    }
    os << "\n  ]";
    if (options.includeTiming)
        os << ",\n  \"total_wall_s\": " << jsonNumber(report.wallSeconds);
    os << "\n}\n";
}

std::string
sweepReportJson(const SweepReport &report, const ReportOptions &options)
{
    std::ostringstream oss;
    writeSweepReportJson(oss, report, options);
    return oss.str();
}

void
writeSweepReportCsv(std::ostream &os, const SweepReport &report,
                    const ReportOptions &options)
{
    os << "index,label,scenario,hierarchy,policy,agent,seed,completed,"
          "error,converged,epochs_to_converge,env_steps,"
          "steps_to_discovery,accuracy,episode_length,bit_rate,"
          "detection_rate,sequence,category";
    if (options.includeTiming)
        os << ",wall_s,attempts";
    os << "\n";
    for (const SweepCellResult &c : report.cells) {
        const ExplorationResult &r = c.result;
        os << c.cell.index << ',' << csvField(c.cell.label) << ','
           << csvField(c.cell.scenario) << ','
           << csvField(c.cell.hierarchy) << ',' << csvField(c.cell.policy)
           << ',' << csvField(c.cell.agent) << ',' << c.cell.seed << ','
           << (c.completed ? 1 : 0) << ',' << csvField(c.error) << ','
           << (c.completed && r.converged ? 1 : 0) << ','
           << r.epochsToConverge << ',' << r.envSteps << ','
           << r.stepsToDiscovery << ','
           << jsonNumber(r.finalAccuracy) << ','
           << jsonNumber(r.finalEpisodeLength) << ','
           << jsonNumber(r.bitRate) << ','
           << jsonNumber(r.detectionRate) << ','
           << csvField(sequenceString(c)) << ','
           << csvField(c.completed ? categoryLabel(r.category) : "");
        if (options.includeTiming)
            os << ',' << jsonNumber(c.wallSeconds) << ',' << c.attempts;
        os << "\n";
    }
}

TextTable
sweepSummaryTable(const SweepReport &report)
{
    TextTable table(report.name,
                    {"No.", "Cell", "Policy", "Seed", "Conv", "Epochs",
                     "Steps", "Acc", "Len", "Wall(s)", "Attack found"});
    for (const SweepCellResult &c : report.cells) {
        const ExplorationResult &r = c.result;
        std::string status;
        if (!c.completed)
            status = "FAILED: " + c.error;
        else if (r.converged)
            status = categoryLabel(r.category);
        else
            status = "(timeout) " + sequenceString(c);
        std::string cell_name =
            c.cell.scenario +
            (c.cell.hierarchy == "-" ? "" : " [" + c.cell.hierarchy + "]");
        if (c.cell.agent != "ppo")
            cell_name += " (" + c.cell.agent + ")";
        table.addRow(
            {TextTable::fmt(static_cast<long>(c.cell.index)), cell_name,
             c.cell.policy, std::to_string(c.cell.seed),
             c.completed && r.converged ? "yes" : "no",
             c.completed && r.converged && r.epochsToConverge >= 0
                 ? TextTable::fmt(static_cast<long>(r.epochsToConverge))
                 : "-",
             c.completed && r.stepsToDiscovery >= 0
                 ? TextTable::fmt(static_cast<long>(r.stepsToDiscovery))
                 : "-",
             c.completed ? TextTable::fmt(r.finalAccuracy, 2) : "-",
             c.completed ? TextTable::fmt(r.finalEpisodeLength, 1) : "-",
             TextTable::fmt(c.wallSeconds, 1),
             c.completed && r.converged ? sequenceString(c) : status});
    }
    return table;
}

} // namespace autocat
