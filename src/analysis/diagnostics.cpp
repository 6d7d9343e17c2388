#include "analysis/diagnostics.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace sanmap::analysis {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, Severity severity) {
  return os << to_string(severity);
}

const std::vector<CodeInfo>& code_registry() {
  // Append-only, and a retired code's number is never reused. Codes group
  // by hundreds: SL1xx UP*/DOWN* route legality, SL2xx deadlock freedom,
  // SL3xx the fabric's shape, SL4xx route quality, SL5xx serving staleness
  // (enforced at the catalog publish gate). SL0xx are analyzer-level notes.
  // SL301..SL306 (dangling, out-of-range, asymmetric, shared and
  // multi-wired host ports, host label clashes) are retired: the Topology
  // and its parsers refuse every such fabric before a lint could see it.
  static const std::vector<CodeInfo> registry = {
      {"SL001", Severity::kInfo, "route analysis skipped"},
      {"SL002", Severity::kInfo, "diagnostics suppressed past per-code cap"},
      {"SL101", Severity::kError, "route takes a down-to-up turn"},
      {"SL102", Severity::kError, "route endpoint is not a live host"},
      {"SL103", Severity::kError, "route path is broken"},
      {"SL104", Severity::kError, "route traverses a self-loop cable"},
      {"SL105", Severity::kError, "route turn word disagrees with its path"},
      {"SL106", Severity::kError, "routing root is not a live switch"},
      {"SL201", Severity::kError, "channel-dependency cycle"},
      {"SL202", Severity::kError, "deadlock certificate failed its recheck"},
      {"SL307", Severity::kWarning, "isolated node"},
      {"SL308", Severity::kInfo, "fabric is not connected"},
      {"SL401", Severity::kInfo, "non-minimal routes"},
      {"SL402", Severity::kError, "missing route for a live host pair"},
      {"SL403", Severity::kWarning, "per-link load imbalance"},
      {"SL404", Severity::kWarning, "route exceeds the hop limit"},
      {"SL501", Severity::kError,
       "quarantined region still in served route set"},
      {"SL502", Severity::kError,
       "snapshot epoch older than catalog head by more than the history "
       "bound"},
  };
  return registry;
}

const CodeInfo* find_code(std::string_view code) {
  for (const CodeInfo& info : code_registry()) {
    if (code == info.code) {
      return &info;
    }
  }
  return nullptr;
}

void DiagnosticReport::add(std::string_view code, std::string location,
                           std::string message, std::string hint) {
  const CodeInfo* info = find_code(code);
  SANMAP_CHECK_MSG(info != nullptr, "unregistered diagnostic code " << code);
  add_with_severity(code, info->default_severity, std::move(location),
                    std::move(message), std::move(hint));
}

void DiagnosticReport::add_with_severity(std::string_view code,
                                         Severity severity,
                                         std::string location,
                                         std::string message,
                                         std::string hint) {
  SANMAP_CHECK_MSG(find_code(code) != nullptr,
                   "unregistered diagnostic code " << code);
  switch (severity) {
    case Severity::kInfo:
      ++infos_;
      break;
    case Severity::kWarning:
      ++warnings_;
      break;
    case Severity::kError:
      ++errors_;
      break;
  }
  max_severity_ = std::max(max_severity_, severity);

  CodeTally& tally = tally_for(code);
  const std::size_t seen = ++tally.total;
  if (seen > cap_) {
    switch (severity) {
      case Severity::kInfo:
        ++tally.suppressed_infos;
        break;
      case Severity::kWarning:
        ++tally.suppressed_warnings;
        break;
      case Severity::kError:
        ++tally.suppressed_errors;
        break;
    }
    refresh_marker(tally);
    return;
  }
  diagnostics_.push_back(Diagnostic{std::string(code), severity,
                                    std::move(location), std::move(message),
                                    std::move(hint)});
}

DiagnosticReport::CodeTally& DiagnosticReport::tally_for(
    std::string_view code) {
  auto it = std::find_if(
      counts_.begin(), counts_.end(),
      [&](const CodeTally& entry) { return entry.code == code; });
  if (it == counts_.end()) {
    counts_.push_back(CodeTally{std::string(code), 0, 0, 0, 0, -1});
    it = counts_.end() - 1;
  }
  return *it;
}

void DiagnosticReport::refresh_marker(CodeTally& tally) {
  const std::string message =
      "further " + tally.code + " findings suppressed (" +
      std::to_string(tally.suppressed()) + " hidden; count() tracks all " +
      std::to_string(tally.total) + ")";
  if (tally.marker_index < 0) {
    tally.marker_index = static_cast<std::ptrdiff_t>(diagnostics_.size());
    diagnostics_.push_back(
        Diagnostic{"SL002", Severity::kInfo, tally.code, message, ""});
    return;
  }
  diagnostics_[static_cast<std::size_t>(tally.marker_index)].message =
      message;
}

void DiagnosticReport::absorb_suppressed(std::string_view code,
                                         Severity severity, std::size_t n) {
  if (n == 0) {
    return;
  }
  switch (severity) {
    case Severity::kInfo:
      infos_ += n;
      break;
    case Severity::kWarning:
      warnings_ += n;
      break;
    case Severity::kError:
      errors_ += n;
      break;
  }
  max_severity_ = std::max(max_severity_, severity);
  CodeTally& tally = tally_for(code);
  tally.total += n;
  switch (severity) {
    case Severity::kInfo:
      tally.suppressed_infos += n;
      break;
    case Severity::kWarning:
      tally.suppressed_warnings += n;
      break;
    case Severity::kError:
      tally.suppressed_errors += n;
      break;
  }
  refresh_marker(tally);
}

std::size_t DiagnosticReport::count(std::string_view code) const {
  for (const CodeTally& tally : counts_) {
    if (tally.code == code) {
      return tally.total;
    }
  }
  return 0;
}

std::size_t DiagnosticReport::suppressed(std::string_view code) const {
  for (const CodeTally& tally : counts_) {
    if (tally.code == code) {
      return tally.suppressed();
    }
  }
  return 0;
}

void DiagnosticReport::merge(const DiagnosticReport& other) {
  // Stored findings replay through the normal path (this report's own cap
  // re-applies); findings the source suppressed exist only in its tallies,
  // so transfer those per code and per severity — without this second step
  // a merge silently shrank counts and severity totals (the old bug).
  for (const Diagnostic& d : other.diagnostics_) {
    if (d.code == "SL002") {
      continue;  // markers are re-derived from this report's own tallies
    }
    add_with_severity(d.code, d.severity, d.location, d.message, d.hint);
  }
  for (const CodeTally& tally : other.counts_) {
    absorb_suppressed(tally.code, Severity::kError, tally.suppressed_errors);
    absorb_suppressed(tally.code, Severity::kWarning,
                      tally.suppressed_warnings);
    absorb_suppressed(tally.code, Severity::kInfo, tally.suppressed_infos);
  }
}

int DiagnosticReport::exit_code() const {
  if (errors_ > 0) {
    return 2;
  }
  return warnings_ > 0 ? 1 : 0;
}

std::string DiagnosticReport::text() const {
  std::ostringstream oss;
  for (const Diagnostic& d : diagnostics_) {
    oss << d.code << ' ' << d.severity;
    if (!d.location.empty()) {
      oss << " [" << d.location << ']';
    }
    oss << ": " << d.message;
    if (!d.hint.empty()) {
      oss << " (hint: " << d.hint << ')';
    }
    oss << '\n';
  }
  oss << total() << " diagnostic(s): " << errors_ << " error(s), "
      << warnings_ << " warning(s), " << infos_ << " info\n";
  return oss.str();
}

std::string DiagnosticReport::json() const {
  std::ostringstream oss;
  oss << "{\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : diagnostics_) {
    if (!first) {
      oss << ',';
    }
    first = false;
    oss << "{\"code\":\"" << json_escape(d.code) << "\",\"severity\":\""
        << to_string(d.severity) << "\",\"location\":\""
        << json_escape(d.location) << "\",\"message\":\""
        << json_escape(d.message) << "\",\"hint\":\"" << json_escape(d.hint)
        << "\"}";
  }
  oss << "],\"summary\":{\"errors\":" << errors_
      << ",\"warnings\":" << warnings_ << ",\"infos\":" << infos_
      << ",\"exit_code\":" << exit_code() << "}}";
  return oss.str();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream esc;
          esc << "\\u" << std::hex << static_cast<int>(c);
          std::string digits = esc.str().substr(2);
          out += "\\u";
          out.append(4 - digits.size(), '0');
          out += digits;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace sanmap::analysis
