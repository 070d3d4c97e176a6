#include "lint/diag.h"

#include <iterator>
#include <sstream>

namespace haac {

namespace {

struct CodeInfo
{
    const char *name;
    /** Noun for the " (noun #site)" suffix; null = never printed. */
    const char *noun;
};

/** Indexed by LintCode, in enumerator order. */
constexpr CodeInfo kCodes[] = {
    {"sentinel-operand", "instruction"},
    {"use-before-def", "instruction"},
    {"nop-output-read", "instruction"},
    {"tweak-reuse", "instruction"},
    {"input-split", "instruction"},
    {"const-one", "instruction"},
    {"undefined-output", "instruction"},
    {"output-not-live", "instruction"},
    {"dropped-live-bit", "instruction"},
    {"stream-coverage", "instruction"},
    {"stream-oor-mismatch", "instruction"},
    {"stream-table-count", "instruction"},
    {"shard-manifest", "instruction"},
    {"shard-import-missing", "instruction"},
    {"shard-export-missing", "instruction"},
    {"shard-export-dead", "instruction"},
    {"liveness-waste", "instruction"},
    {"noncanonical-operand", "instruction"},
    {"stray-tweak", "instruction"},
    {"shard-import-unused", "instruction"},
    {"shard-export-unused", "instruction"},
    {"use-before-def", "gate"},
    {"wire-out-of-range", "gate"},
    {"multiply-driven", "gate"},
    {"dangling-output", "output"},
    {"input-shape", nullptr},
    {"plan-shape", "node"},
    {"port-width-mismatch", "node"},
    {"plan-input-range", "node"},
    {"link-order", "node"},
    {"port-range", "node"},
    {"link-tweak-reuse", "link"},
    {"link-tweak-domain", "link"},
    {"dead-gate", "gate"},
    {"unused-input", "input"},
    {"constant-cone", "gate"},
    {"duplicate-gate", "gate"},
    {"inert-output", "output"},
    {"dead-node", "node"},
    {"unused-plan-input", "input"},
};
static_assert(std::size(kCodes) == size_t(LintCode::UnusedPlanInput) + 1,
              "one kCodes row per LintCode");

} // namespace

const char *
lintCodeName(LintCode code)
{
    return kCodes[size_t(code)].name;
}

const char *
severityName(Severity sev)
{
    switch (sev) {
      case Severity::Error:
        return "error";
      case Severity::Warning:
        return "warning";
      case Severity::Note:
        return "note";
    }
    return "?";
}

void
LintReport::add(Diag diag)
{
    switch (diag.severity) {
      case Severity::Error:
        ++errors;
        break;
      case Severity::Warning:
        ++warnings;
        break;
      case Severity::Note:
        ++notes;
        break;
    }
    diags.push_back(std::move(diag));
}

bool
LintReport::has(LintCode code) const
{
    for (const Diag &d : diags)
        if (d.code == code)
            return true;
    return false;
}

std::string
LintReport::summary() const
{
    std::ostringstream os;
    os << errors << (errors == 1 ? " error, " : " errors, ") << warnings
       << (warnings == 1 ? " warning" : " warnings");
    if (notes > 0)
        os << ", " << notes << (notes == 1 ? " note" : " notes");
    return os.str();
}

std::string
LintReport::firstError() const
{
    for (const Diag &d : diags)
        if (d.severity == Severity::Error)
            return d.message;
    return "";
}

uint32_t
LintReport::filter(const std::function<bool(const Diag &)> &keep)
{
    LintReport kept;
    for (Diag &d : diags)
        if (keep(d))
            kept.add(std::move(d));
    const uint32_t dropped = uint32_t(diags.size() - kept.diags.size());
    *this = std::move(kept);
    return dropped;
}

std::string
formatDiag(const Diag &diag, const std::string &file)
{
    std::ostringstream os;
    if (!file.empty()) {
        os << file << ':';
        if (diag.line > 0)
            os << diag.line << ':';
        os << ' ';
    } else if (diag.line > 0) {
        os << "line " << diag.line << ": ";
    }
    os << severityName(diag.severity) << '['
       << lintCodeName(diag.code) << "]: " << diag.message;
    const char *noun = kCodes[size_t(diag.code)].noun;
    if (noun != nullptr && diag.site != kNoSite && diag.line == 0)
        os << " (" << noun << " #" << diag.site << ')';
    return os.str();
}

} // namespace haac
