#include "target/registry.hh"

#include "common/logging.hh"
#include "target/machine_target.hh"
#include "workloads/workloads.hh"

namespace risc1::target {

namespace {

/** One registered backend. */
struct BackendInfo
{
    std::string_view name;  ///< canonical name
    std::initializer_list<std::string_view> aliases;
    std::unique_ptr<Target> (*make)(const TargetOptions &);
    std::shared_ptr<const TargetStats> (*makeEmptyStats)();
    const std::string &(*workloadSource)(const Workload &);
};

const BackendInfo kBackends[] = {
    {
        "risc",
        {},
        [](const TargetOptions &options) -> std::unique_ptr<Target> {
            return std::make_unique<RiscTarget>(options);
        },
        []() -> std::shared_ptr<const TargetStats> {
            return std::make_shared<RiscTargetStats>();
        },
        [](const Workload &w) -> const std::string & {
            return w.riscSource;
        },
    },
    {
        "vax",
        {"cisc"},  // legacy name kept readable in job files/artifacts
        [](const TargetOptions &options) -> std::unique_ptr<Target> {
            return std::make_unique<VaxTarget>(options);
        },
        []() -> std::shared_ptr<const TargetStats> {
            return std::make_shared<VaxTargetStats>();
        },
        [](const Workload &w) -> const std::string & {
            return w.vaxSource;
        },
    },
};

const BackendInfo *
find(std::string_view name)
{
    for (const BackendInfo &b : kBackends) {
        if (b.name == name)
            return &b;
        for (const std::string_view alias : b.aliases)
            if (alias == name)
                return &b;
    }
    return nullptr;
}

const BackendInfo &
findOrFatal(std::string_view name)
{
    if (const BackendInfo *b = find(name))
        return *b;
    fatal(cat("unknown backend '", name, "' (valid: ",
              backendNameList(), ")"));
}

} // namespace

std::string_view
canonicalBackend(std::string_view name)
{
    return findOrFatal(name).name;
}

std::vector<std::string_view>
backendNames()
{
    std::vector<std::string_view> names;
    for (const BackendInfo &b : kBackends)
        names.push_back(b.name);
    return names;
}

std::string
backendNameList()
{
    std::string list;
    for (const BackendInfo &b : kBackends) {
        if (!list.empty())
            list += ", ";
        list += b.name;
        for (const std::string_view alias : b.aliases) {
            list += "/";
            list += alias;
        }
    }
    return list;
}

std::unique_ptr<Target>
makeTarget(std::string_view name, const TargetOptions &options)
{
    return findOrFatal(name).make(options);
}

std::shared_ptr<const TargetStats>
emptyStats(std::string_view name)
{
    const BackendInfo *b = find(name);
    return b ? b->makeEmptyStats() : nullptr;
}

const std::string &
workloadSource(std::string_view name, const Workload &workload)
{
    return findOrFatal(name).workloadSource(workload);
}

} // namespace risc1::target
