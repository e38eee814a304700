#pragma once

/// \file runlog.hpp
/// Read/query side of the run ledger (obs/ledger.hpp writes it): tolerant
/// scanning of `results/ledger.jsonl`, plus the logic behind the
/// `xres log`, `xres show <run-id>` and `xres compare <a> <b>` verbs.
///
/// The loader mirrors ResumeIndex's corruption tolerance: a line whose
/// frame or CRC fails to verify (a torn tail from a SIGKILL'd run, or two
/// appenders racing before O_APPEND — which cannot actually interleave, but
/// belt and braces) is counted and skipped, never fatal.

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/ledger.hpp"

namespace xres::study {

/// What the tolerant ledger scan observed.
struct LedgerScanStats {
  std::size_t valid_records{0};
  std::size_t corrupt_records{0};  ///< bad frame/CRC/JSON, skipped
  bool found{false};               ///< the ledger file existed
};

/// Load every valid record from \p path, in file (append) order.
[[nodiscard]] std::vector<obs::RunRecord> load_ledger(const std::string& path,
                                                      LedgerScanStats* stats = nullptr);

/// Parse one unframed ledger record JSON; throws recovery::JsonParseError
/// on malformed or non-ledger records.
[[nodiscard]] obs::RunRecord parse_run_record(const std::string& record_json);

/// `git describe --always --dirty` of the source tree this binary was
/// built from, taken at build time ("unknown" when it was not a git
/// checkout); independent of the run's working directory. Shared by ledger
/// records and suite manifests.
[[nodiscard]] const std::string& build_describe();

/// How two ledger records compare on their *deterministic* identity.
struct RunComparison {
  std::vector<std::string> drift;     ///< deterministic mismatches (fail)
  std::vector<std::string> warnings;  ///< wall-clock regressions (informational)
  [[nodiscard]] bool identical() const { return drift.empty(); }
};

/// Compare deterministic fields (study, params digest, seed, counters,
/// metrics/manifest CRCs) and flag wall-clock slowdowns beyond
/// \p slowdown_threshold (fractional: 0.25 = 25% slower).
[[nodiscard]] RunComparison compare_runs(const obs::RunRecord& a,
                                         const obs::RunRecord& b,
                                         double slowdown_threshold);

/// `xres log [--ledger PATH] [--study NAME] [--limit N]`: newest-last table
/// of recent runs. Returns an exit code.
int cmd_log(int argc, const char* const* argv);

/// `xres show <run-id> [--ledger PATH]`: the full record (exact id or
/// unique prefix). Returns an exit code.
int cmd_show(int argc, const char* const* argv);

/// `xres compare <run-a> <run-b> [--ledger PATH] [--threshold F]`: exit 0
/// when the deterministic fields match (wall-clock regressions are
/// warnings), 1 on drift.
int cmd_compare(int argc, const char* const* argv);

}  // namespace xres::study
