#pragma once

/// \file xres.hpp
/// Umbrella header: the full public API of the xres exascale-resilience
/// simulation library. Fine-grained headers remain available for faster
/// incremental builds; this is for quickstarts and downstream consumers
/// who prefer a single include.

// Utilities
#include "util/barchart.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

// Discrete-event engine
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"

// Platform model
#include "platform/allocator.hpp"
#include "platform/machine.hpp"
#include "platform/spec.hpp"
#include "platform/transfer.hpp"

// Failure model
#include "failure/distribution.hpp"
#include "failure/process.hpp"
#include "failure/replay.hpp"
#include "failure/severity.hpp"
#include "failure/trace.hpp"

// Applications & workloads
#include "apps/app_type.hpp"
#include "apps/application.hpp"
#include "apps/swf.hpp"
#include "apps/workload.hpp"

// Resilience techniques
#include "resilience/analytic.hpp"
#include "resilience/config.hpp"
#include "resilience/interval.hpp"
#include "resilience/multilevel.hpp"
#include "resilience/plan.hpp"
#include "resilience/planner.hpp"
#include "resilience/renewal.hpp"
#include "resilience/selector.hpp"
#include "resilience/technique.hpp"

// Execution runtime
#include "runtime/app_runtime.hpp"
#include "runtime/power.hpp"
#include "runtime/result.hpp"
#include "runtime/timeline.hpp"
#include "runtime/transfer_service.hpp"

// Resource management
#include "rm/scheduler.hpp"

// Observability
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "obs/trial_obs.hpp"

// Crash safety (docs/ROBUSTNESS.md)
#include "recovery/journal.hpp"
#include "recovery/json_parse.hpp"
#include "recovery/options.hpp"
#include "recovery/shutdown.hpp"
#include "recovery/trial_record.hpp"
#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/deadline.hpp"

// Study drivers
#include "core/occupancy.hpp"
#include "core/policy.hpp"
#include "core/single_app_study.hpp"
#include "core/workload_engine.hpp"
#include "core/workload_record.hpp"
#include "core/workload_study.hpp"

// Study registry, shared harness, generic main and paper suite
#include "study/study.hpp"

namespace xres {

/// Library version (major.minor.patch).
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr int kVersionPatch = 0;
inline constexpr const char* kVersionString = "1.0.0";

}  // namespace xres
