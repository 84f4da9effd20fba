#include "analysis/diagnostics.h"

#include <cstdio>
#include <sstream>

#include "util/logging.h"

namespace scnn {

const char *
diagSeverityName(DiagSeverity severity)
{
    switch (severity) {
      case DiagSeverity::Note: return "note";
      case DiagSeverity::Warning: return "warning";
      case DiagSeverity::Error: return "error";
    }
    return "?";
}

std::string
DiagLocation::toString() const
{
    std::ostringstream os;
    bool first = true;
    auto field = [&](const char *name, int64_t value) {
        if (value < 0)
            return;
        if (!first)
            os << ' ';
        os << name << ' ' << value;
        first = false;
    };
    field("step", step);
    field("node", node);
    field("tensor", tensor);
    field("tso", tso);
    return os.str();
}

std::string
Diagnostic::toString() const
{
    std::ostringstream os;
    os << diagSeverityName(severity) << '[' << code << ']';
    const std::string where = loc.toString();
    if (!where.empty())
        os << ' ' << where;
    os << ": " << message;
    return os.str();
}

const std::vector<DiagCodeInfo> &
diagnosticCodes()
{
    static const std::vector<DiagCodeInfo> table = {
        // --- SA1xx: graph well-formedness --------------------------------
        {"SA101", DiagSeverity::Error,
         "dangling or out-of-range tensor/node/param reference"},
        {"SA102", DiagSeverity::Error,
         "tensor shape inconsistent with the producing op's geometry"},
        {"SA103", DiagSeverity::Error,
         "topological order violation (use before definition)"},
        {"SA104", DiagSeverity::Error,
         "producer/consumer cross-links disagree with node inputs"},
        {"SA105", DiagSeverity::Error,
         "graph input/output malformed (not exactly one of each)"},
        // --- SA2xx: TSO storage assignment -------------------------------
        {"SA201", DiagSeverity::Error,
         "TSO reference count mismatch or underflow"},
        {"SA202", DiagSeverity::Error,
         "illegal value-TSO sharing (not in-place ReLU or flatten "
         "view per Sec. 4.2)"},
        {"SA203", DiagSeverity::Error,
         "illegal gradient-TSO sharing (not summation-error sharing "
         "per Sec. 4.2)"},
        {"SA204", DiagSeverity::Error,
         "TSO smaller than a tensor mapped to it"},
        {"SA205", DiagSeverity::Error, "tensor without a TSO"},
        {"SA206", DiagSeverity::Error,
         "one TSO holds both a forward value and a gradient"},
        // --- SA3xx: offload/prefetch schedule ----------------------------
        {"SA301", DiagSeverity::Error,
         "offloaded TSO missing or duplicating one of the four "
         "critical moments (Sec. 4.3)"},
        {"SA302", DiagSeverity::Error,
         "offload ordering violation (before last write, after the "
         "forward pass, or sync before start)"},
        {"SA303", DiagSeverity::Error,
         "prefetch ordering violation (before the device copy is "
         "freed, in the forward pass, or sync before start)"},
        {"SA304", DiagSeverity::Error,
         "planned use of a non-resident TSO (freed before a forward "
         "reader or used before the prefetch sync)"},
        {"SA305", DiagSeverity::Error,
         "transferred TSO has no memory stream assigned"},
        {"SA306", DiagSeverity::Error,
         "cross-stream event synchronization cycle"},
        {"SA307", DiagSeverity::Error,
         "malformed plan tables (sizes disagree with the graph or "
         "storage assignment)"},
        {"SA308", DiagSeverity::Error,
         "transfer action on an out-of-range or non-offloaded TSO"},
        // --- SA4xx: static layout / first-fit pool -----------------------
        {"SA401", DiagSeverity::Error,
         "planned access outside every live interval of the TSO"},
        {"SA402", DiagSeverity::Error,
         "simultaneously-live intervals overlap in the pool"},
        {"SA403", DiagSeverity::Error,
         "planned access to a tensor without a TSO"},
        {"SA404", DiagSeverity::Error,
         "interval unplaced or outside the pool high-water mark"},
        {"SA405", DiagSeverity::Error,
         "interval byte size disagrees with its TSO"},
        // --- SA5xx: split-scheme geometry --------------------------------
        {"SA501", DiagSeverity::Error,
         "split pieces do not tile the output partition exactly"},
        {"SA502", DiagSeverity::Error,
         "split input range outside the legal [lb, ub] interval of "
         "Eqs. 1-2"},
        {"SA503", DiagSeverity::Error,
         "split padding or patch extent disagrees with the Eq. 5 "
         "halo formulas"},
        {"SA504", DiagSeverity::Error,
         "slice/concat geometry invalid (out of bounds or not a "
         "tiling)"},
        // --- SA6xx: parallel execution safety -----------------------------
        {"SA601", DiagSeverity::Error,
         "write sets of two work items in the same wave overlap"},
        {"SA602", DiagSeverity::Error,
         "work-item access outside the bounds of its region"},
        {"SA603", DiagSeverity::Error,
         "write to a read-only shared region (weight panels, inputs)"},
        {"SA604", DiagSeverity::Error,
         "access to a scratch-arena region owned by another work "
         "item"},
        {"SA605", DiagSeverity::Error,
         "executor wave reads a tensor not produced by an earlier "
         "wave (happens-before violation)"},
        {"SA606", DiagSeverity::Error,
         "deferred BN running-stat update concurrent or out of "
         "topological order (determinism contract violation)"},
        {"SA607", DiagSeverity::Error,
         "shadow-recorded access escapes the statically predicted "
         "footprint (analyzer bug)"},
        {"SA608", DiagSeverity::Error,
         "work-item write sets do not cover an exact-cover region "
         "(gap in the output tiling)"},
        {"SA609", DiagSeverity::Error,
         "halo-accumulation writes concurrent or out of serial order "
         "(backward scatter-add determinism contract violation)"},
    };
    return table;
}

const DiagCodeInfo *
findDiagnosticCode(const std::string &code)
{
    for (const auto &info : diagnosticCodes())
        if (code == info.code)
            return &info;
    return nullptr;
}

void
DiagnosticSink::add(const std::string &code, DiagLocation loc,
                    std::string message)
{
    const DiagCodeInfo *info = findDiagnosticCode(code);
    SCNN_CHECK(info != nullptr,
               "unregistered diagnostic code " << code);
    add(code, info->default_severity, loc, std::move(message));
}

void
DiagnosticSink::add(const std::string &code, DiagSeverity severity,
                    DiagLocation loc, std::string message)
{
    SCNN_CHECK(findDiagnosticCode(code) != nullptr,
               "unregistered diagnostic code " << code);
    items_.push_back({code, severity, loc, std::move(message)});
}

bool
DiagnosticSink::hasErrors() const
{
    return scnn::hasErrors(items_);
}

int
countBySeverity(const std::vector<Diagnostic> &diags,
                DiagSeverity severity)
{
    int n = 0;
    for (const auto &d : diags)
        n += d.severity == severity ? 1 : 0;
    return n;
}

bool
hasErrors(const std::vector<Diagnostic> &diags)
{
    for (const auto &d : diags)
        if (d.severity == DiagSeverity::Error)
            return true;
    return false;
}

std::string
renderDiagnosticsText(const std::vector<Diagnostic> &diags)
{
    std::ostringstream os;
    for (const auto &d : diags)
        os << d.toString() << '\n';
    const int errors = countBySeverity(diags, DiagSeverity::Error);
    const int warnings = countBySeverity(diags, DiagSeverity::Warning);
    if (diags.empty())
        os << "no findings\n";
    else
        os << errors << (errors == 1 ? " error, " : " errors, ")
           << warnings << (warnings == 1 ? " warning" : " warnings")
           << '\n';
    return os.str();
}

namespace {

/** Minimal JSON string escaping (quotes, backslash, control chars). */
std::string
jsonEscape(const std::string &s)
{
    std::ostringstream os;
    for (const char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    return os.str();
}

} // namespace

std::string
renderDiagnosticsJson(const std::vector<Diagnostic> &diags,
                      const std::string &context)
{
    std::ostringstream os;
    os << "{\n";
    if (!context.empty())
        os << "  \"context\": \"" << jsonEscape(context) << "\",\n";
    os << "  \"errors\": "
       << countBySeverity(diags, DiagSeverity::Error) << ",\n"
       << "  \"warnings\": "
       << countBySeverity(diags, DiagSeverity::Warning) << ",\n"
       << "  \"notes\": "
       << countBySeverity(diags, DiagSeverity::Note) << ",\n"
       << "  \"findings\": [";
    for (size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &d = diags[i];
        os << (i ? ",\n    {" : "\n    {");
        os << "\"code\": \"" << jsonEscape(d.code) << "\", "
           << "\"severity\": \"" << diagSeverityName(d.severity)
           << "\", ";
        if (d.loc.step >= 0)
            os << "\"step\": " << d.loc.step << ", ";
        if (d.loc.node >= 0)
            os << "\"node\": " << d.loc.node << ", ";
        if (d.loc.tensor >= 0)
            os << "\"tensor\": " << d.loc.tensor << ", ";
        if (d.loc.tso >= 0)
            os << "\"tso\": " << d.loc.tso << ", ";
        os << "\"message\": \"" << jsonEscape(d.message) << "\"}";
    }
    os << (diags.empty() ? "]\n" : "\n  ]\n") << "}\n";
    return os.str();
}

} // namespace scnn
