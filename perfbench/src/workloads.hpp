#pragma once

/// \file workloads.hpp
/// The benchmark's workloads. Each one is built (its inputs generated from
/// the benchmark seed) by make_workload — that is the measured set-up — and
/// then runs *rounds*: one round is what a user waits for one figure, ending
/// in checked, rendered results. The xres library only ever sees the
/// generated inputs.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "recovery/journal.hpp"
#include "resilience/selector.hpp"
#include "rm/scheduler.hpp"
#include "spans.hpp"

namespace perfbench {

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Timed repetitions behind each layer-call reading (the median is kept).
inline constexpr int kLayerReps = 5;

/// Named per-layer readings (metric name, value).
using LayerValues = std::vector<std::pair<std::string, double>>;

struct RoundOptions {
  unsigned threads{1};
  /// Collect the library's MetricSet, per-unit timings and spans.
  bool traced{false};
  /// After the timed part of the round, collect the records a journal of
  /// the round holds (RoundStats::journal_records).
  bool inspect_journal{false};
  SpanLog* spans{nullptr};
};

/// What one round did.
struct RoundStats {
  std::size_t units{0};   ///< units attempted (trials or pattern-runs)
  std::size_t failed{0};  ///< units that threw
  double seconds{0.0};    ///< dispatch of the first unit to checked, rendered results
  double cpu_seconds{0.0};
  std::uint64_t digest{0};  ///< over every result, bit for bit
  std::string error;        ///< first failed output check; empty when all passed
  xres::obs::PerfCounters perf;  ///< perf_delta over the round
  double render_ms{0.0};         ///< Table::to_text of the round's figure table(s)
  /// Workload-specific per-layer counts (thread-invariant).
  LayerValues layer_counts;

  // Traced rounds only.
  std::vector<double> unit_ms;   ///< per cell (single-app) or per pattern-run
  xres::obs::MetricSet metrics;  ///< merged over the round, in unit order

  /// Σ unit wall time (trials: read back from the round's journal).
  double unit_seconds_sum{0.0};

  // inspect_journal rounds only.
  /// The round's journal records (what `--journal` writes for it).
  std::vector<xres::recovery::JournalRecord> journal_records;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Digest of every generated input (same seed, same digest).
  [[nodiscard]] virtual std::uint64_t input_digest() const = 0;

  /// Run round \p index. Never throws for a failing unit or check: those
  /// land in RoundStats::failed / RoundStats::error.
  [[nodiscard]] virtual RoundStats run_round(std::uint64_t index,
                                             const RoundOptions& options) = 0;

  /// Time calls into the layers' public functions on this workload's
  /// inputs (traced run only), each call under a span. Values are in the
  /// unit their names end with (`_us`, `_ms`).
  [[nodiscard]] virtual LayerValues time_layers(SpanLog& spans) = 0;
};

/// Set up workload \p name for benchmark seed \p seed: generate its inputs
/// and open whatever the first round needs. \p work_dir holds the run's
/// journals. Throws CheckError for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      const std::string& work_dir);

/// Median µs of TrialJournal::append and median ms of TrialJournal::flush
/// while \p records are replayed into a fresh journal at \p path (flushed
/// every 32 records, the journal's default batch). The file is removed
/// afterwards.
[[nodiscard]] LayerValues time_journal_replay(
    const std::vector<xres::recovery::JournalRecord>& records, const std::string& path);

/// One (application, technique) case for the planner, selector and
/// failure-draw timings.
struct PlanCase {
  xres::AppSpec app;
  xres::TechniqueKind kind{};
  const xres::ResilienceConfig* resilience{nullptr};
  const xres::ResilienceSelector* selector{nullptr};
  /// Failure-trace horizon: the application's baseline run time.
  xres::Duration horizon{};
};

/// µs per call of make_plan, ResilienceSelector::select and
/// FailureTrace::generate (exponential, at the case's planned failure rate
/// over its horizon) across \p cases, each layer under its own span.
[[nodiscard]] LayerValues time_planning_layers(const std::vector<PlanCase>& cases,
                                               const xres::MachineSpec& machine,
                                               std::uint64_t seed, SpanLog& spans);

/// Median µs of Scheduler::map over each pattern's initial pending set (the
/// jobs arriving at t = 0), for each scheduler kind, against a
/// benchmark-supplied SchedulerContext: an empty machine of \p nodes nodes
/// at t = 0 whose try_start admits any job that fits the idle nodes.
[[nodiscard]] LayerValues time_scheduler_map(const std::vector<xres::ArrivalPattern>& patterns,
                                             const std::vector<xres::SchedulerKind>& kinds,
                                             std::uint32_t nodes, std::uint64_t seed);

// Implementations (single_app.cpp, patterns.cpp).
[[nodiscard]] std::unique_ptr<Workload> make_single_app_journaled(
    std::uint64_t seed, const std::string& work_dir);
[[nodiscard]] std::unique_ptr<Workload> make_pattern_workload(const std::string& name,
                                                              std::uint64_t seed);

}  // namespace perfbench
