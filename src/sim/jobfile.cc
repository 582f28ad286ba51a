#include "sim/jobfile.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "mem/config.hh"
#include "target/registry.hh"
#include "workloads/workloads.hh"

namespace risc1::sim {

namespace {

/** One `key = value` line of a [job] section. */
struct RawEntry
{
    std::string key, value;
    int line = 0;
};

/** Raw key/value lines of one [job] section, pre-materialization. */
struct RawJob
{
    int line = 0; ///< line of the [job] header, for section-level messages
    std::vector<RawEntry> entries;
};

std::string
trim(const std::string &s)
{
    const auto first = s.find_first_not_of(" \t");
    if (first == std::string::npos)
        return "";
    const auto last = s.find_last_not_of(" \t");
    return s.substr(first, last - first + 1);
}

std::uint64_t
parseUint(const std::string &value, int line, const std::string &key)
{
    try {
        std::size_t pos = 0;
        const unsigned long long v = std::stoull(value, &pos, 0);
        if (pos != value.size())
            throw std::invalid_argument("trailing characters");
        return v;
    } catch (const std::exception &) {
        fatal(cat("job file line ", line, ": bad number '", value,
                  "' for key '", key, "'"));
    }
}

bool
parseBool(const std::string &value, int line, const std::string &key)
{
    if (value == "true" || value == "1" || value == "yes")
        return true;
    if (value == "false" || value == "0" || value == "no")
        return false;
    fatal(cat("job file line ", line, ": bad boolean '", value,
              "' for key '", key, "'"));
}

/** One cache-level spec, via the parser riscsim's flags share
 *  (mem/config.hh), with the job-file line in the error message. */
mem::LevelConfig
parseCache(const std::string &value, int line, const std::string &key)
{
    return mem::parseLevelSpec(
        value, cat("job file line ", line, ": '", key, "'"));
}

SimJob
materialize(const RawJob &raw, std::size_t jobIndex,
            const std::string &baseDir)
{
    SimJob job;
    job.id = cat("job", jobIndex);

    // The backend decides which source a workload contributes, so
    // resolve it first regardless of key order.  Remember the line of
    // the 'workload'/'file' entry itself: resolution errors (unknown
    // workload, unopenable path) must point at the offending key, not
    // at the [job] header.
    std::string workload, file;
    int workloadLine = raw.line, fileLine = raw.line;
    for (const auto &[key, value, line] : raw.entries) {
        if (key == "machine") {
            try {
                job.backend = target::canonicalBackend(value);
            } catch (const std::exception &) {
                fatal(cat("job file line ", line, ": unknown machine '",
                          value, "' (valid: ",
                          target::backendNameList(), ")"));
            }
        }
    }

    for (const auto &[key, value, line] : raw.entries) {
        if (key == "machine") {
            // handled above
        } else if (key == "id") {
            job.id = value;
        } else if (key == "workload") {
            workload = value;
            workloadLine = line;
        } else if (key == "file") {
            file = value;
            fileLine = line;
        } else if (key == "windows") {
            job.config.risc.windows.numWindows = static_cast<unsigned>(
                parseUint(value, line, key));
        } else if (key == "windowed") {
            job.config.risc.windowedCalls = parseBool(value, line, key);
        } else if (key == "l1i" || key == "l1d" || key == "l2") {
            // Hierarchy levels apply to whichever backend runs the
            // job: both configs carry the same mem::HierarchyConfig.
            const mem::LevelConfig level = parseCache(value, line, key);
            auto &risc = job.config.risc.caches;
            auto &vax = job.config.vax.caches;
            if (key == "l1i")
                risc.l1i = vax.l1i = level;
            else if (key == "l1d")
                risc.l1d = vax.l1d = level;
            else
                risc.l2 = vax.l2 = level;
        } else if (key == "maxsteps") {
            job.maxSteps = parseUint(value, line, key);
        } else if (key == "fast") {
            job.fast = parseBool(value, line, key);
        } else if (key == "expect") {
            job.expected = static_cast<std::uint32_t>(
                parseUint(value, line, key));
        } else {
            fatal(cat("job file line ", line, ": unknown key '", key,
                      "' (valid: machine, id, workload, file, windows, "
                      "windowed, l1i, l1d, l2, "
                      "maxsteps, fast, expect)"));
        }
    }

    if (workload.empty() == file.empty())
        fatal(cat("job file line ", raw.line,
                  ": each [job] needs exactly one of 'workload' or "
                  "'file'"));

    if (!workload.empty()) {
        try {
            const Workload &w = findWorkload(workload);
            job.source = target::workloadSource(job.backend, w);
            if (!job.expected)
                job.expected = w.expected;
        } catch (const FatalError &e) {
            fatal(cat("job file line ", workloadLine, ": ", e.what()));
        }
    } else {
        std::filesystem::path p(file);
        if (p.is_relative() && !baseDir.empty())
            p = std::filesystem::path(baseDir) / p;
        std::ifstream in(p);
        if (!in)
            fatal(cat("job file line ", fileLine,
                      ": cannot open assembly file ", p.string()));
        std::ostringstream text;
        text << in.rdbuf();
        job.source = text.str();
    }
    return job;
}

} // namespace

std::vector<SimJob>
parseJobText(const std::string &text, const std::string &baseDir)
{
    std::vector<RawJob> raws;
    std::istringstream in(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (const auto hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);
        line = trim(line);
        if (line.empty())
            continue;
        if (line == "[job]") {
            raws.push_back(RawJob{lineNo, {}});
            continue;
        }
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal(cat("job file line ", lineNo,
                      ": expected '[job]' or 'key = value', got '", line,
                      "'"));
        if (raws.empty())
            fatal(cat("job file line ", lineNo,
                      ": key/value before the first [job] section"));
        raws.back().entries.push_back(RawEntry{trim(line.substr(0, eq)),
                                               trim(line.substr(eq + 1)),
                                               lineNo});
    }

    if (raws.empty())
        fatal("job file contains no [job] sections");

    std::vector<SimJob> jobs;
    jobs.reserve(raws.size());
    for (std::size_t i = 0; i < raws.size(); ++i)
        jobs.push_back(materialize(raws[i], i, baseDir));
    return jobs;
}

std::vector<SimJob>
loadJobFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal(cat("cannot open job file ", path));
    std::ostringstream text;
    text << in.rdbuf();
    const std::string dir =
        std::filesystem::path(path).parent_path().string();
    return parseJobText(text.str(), dir);
}

} // namespace risc1::sim
