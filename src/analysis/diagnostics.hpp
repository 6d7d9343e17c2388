// Structured diagnostics for the static analyzer (sanlint).
//
// Every finding carries a stable code from the registry below (SL1xx route
// legality, SL2xx deadlock, SL3xx the fabric's shape, SL4xx route
// quality), a severity, a human-readable location, and a fix hint. Codes are
// append-only: tools, CI filters, and suppression tests key on them, so a
// code's meaning never changes once shipped (DESIGN.md §9 is the registry of
// record).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace sanmap::analysis {

enum class Severity : std::uint8_t { kInfo = 0, kWarning = 1, kError = 2 };

const char* to_string(Severity severity);
std::ostream& operator<<(std::ostream& os, Severity severity);

struct Diagnostic {
  /// Stable registry code, e.g. "SL101".
  std::string code;
  Severity severity = Severity::kError;
  /// Where: "route h3->h9 hop 2 (s4 -> s1)", "wire 7", "node h3", or empty
  /// for whole-fabric findings.
  std::string location;
  /// What is wrong, in one sentence.
  std::string message;
  /// How to fix it (may be empty).
  std::string hint;
};

/// One entry of the diagnostic code registry.
struct CodeInfo {
  const char* code;
  Severity default_severity;
  const char* title;
};

/// All registered codes, ordered by code. The registry is the contract
/// between the analyzer, the CLI, CI filters, and DESIGN.md §9.
const std::vector<CodeInfo>& code_registry();

/// Registry lookup; nullptr for an unknown code.
const CodeInfo* find_code(std::string_view code);

/// The collected findings of one analysis run.
class DiagnosticReport {
 public:
  /// Adds a finding under a registered code at its default severity.
  /// Emission per code is capped (see set_cap): past the cap the finding is
  /// counted but not stored, and one summary note marks the suppression.
  void add(std::string_view code, std::string location, std::string message,
           std::string hint = "");

  /// Adds a finding overriding the registry severity (used to downgrade a
  /// proven false positive to info while keeping the code visible).
  void add_with_severity(std::string_view code, Severity severity,
                         std::string location, std::string message,
                         std::string hint = "");

  /// Per-code storage cap (default 20). Counting is never capped.
  void set_cap(std::size_t cap) { cap_ = cap; }

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
    return diagnostics_;
  }

  [[nodiscard]] std::size_t errors() const { return errors_; }
  [[nodiscard]] std::size_t warnings() const { return warnings_; }
  [[nodiscard]] std::size_t infos() const { return infos_; }
  [[nodiscard]] std::size_t total() const {
    return errors_ + warnings_ + infos_;
  }

  /// Highest severity seen; kInfo when the report is empty.
  [[nodiscard]] Severity max_severity() const { return max_severity_; }
  [[nodiscard]] bool clean() const { return errors_ == 0; }

  /// Occurrences of `code` (including suppressed ones).
  [[nodiscard]] std::size_t count(std::string_view code) const;

  /// Findings under `code` that were counted but not stored (cap overflow).
  [[nodiscard]] std::size_t suppressed(std::string_view code) const;

  /// Merges another report into this one (caps re-applied per code).
  /// Findings the source report suppressed past its own cap are carried
  /// over into this report's per-code and per-severity tallies, so totals
  /// never shrink across a merge.
  void merge(const DiagnosticReport& other);

  /// The CLI exit code contract: 0 clean/info, 1 warnings, 2 errors.
  [[nodiscard]] int exit_code() const;

  /// Human-readable rendering, one line per diagnostic plus a summary.
  [[nodiscard]] std::string text() const;

  /// Machine-readable rendering: {"diagnostics": [...], "summary": {...}}.
  [[nodiscard]] std::string json() const;

 private:
  /// Per-code bookkeeping. The cap and its SL002 marker are strictly
  /// per-code: each code owns its tally, its own suppressed-by-severity
  /// counts, and (once its cap trips) its own marker diagnostic, whose
  /// message is kept in sync with the exact suppressed count.
  struct CodeTally {
    std::string code;
    std::size_t total = 0;
    std::size_t suppressed_errors = 0;
    std::size_t suppressed_warnings = 0;
    std::size_t suppressed_infos = 0;
    /// Index of this code's SL002 marker in diagnostics_; -1 before the cap
    /// trips. diagnostics_ is append-only, so the index stays valid.
    std::ptrdiff_t marker_index = -1;

    [[nodiscard]] std::size_t suppressed() const {
      return suppressed_errors + suppressed_warnings + suppressed_infos;
    }
  };

  CodeTally& tally_for(std::string_view code);
  /// Counts `n` findings of (code, severity) without storing them, as if
  /// they had been added and suppressed by the cap.
  void absorb_suppressed(std::string_view code, Severity severity,
                         std::size_t n);
  void refresh_marker(CodeTally& tally);

  std::vector<Diagnostic> diagnostics_;
  std::vector<CodeTally> counts_;
  std::size_t cap_ = 20;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
  std::size_t infos_ = 0;
  Severity max_severity_ = Severity::kInfo;
};

/// Escapes a string for embedding in a JSON string literal.
std::string json_escape(std::string_view s);

}  // namespace sanmap::analysis
