#pragma once

/// \file study_main.hpp
/// The one generic study driver: `xres run <study>` forwards here, and
/// `xres run --from spec.toml` uses the definition overload with a
/// runtime-materialized study.

#include <string>

#include "study/context.hpp"
#include "study/registry.hpp"

namespace xres::study {

/// Parse \p argv against the study's declared option surface, then run it.
/// Returns the process exit code (0; CliParser::kExitUsage paths exit
/// directly; recovery::kExitInterrupted after a drained shutdown). Unknown
/// \p name prints the catalog hint to stderr and returns 1.
int study_main(const std::string& name, int argc, const char* const* argv);

/// Same, for a definition the caller owns (a spec-file study materialized
/// at runtime — see spec.hpp).
int study_main(const StudyDefinition& def, int argc, const char* const* argv);

/// Programmatic entry (suite runner, sweep cells, tests): run \p def with
/// explicit parameter bindings and harness options, no CLI involved.
int run_study(const StudyDefinition& def, ParamSet params, HarnessOptions options);

}  // namespace xres::study
