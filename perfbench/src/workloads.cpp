#include "workloads.hpp"

#include <filesystem>

#include "failure/trace.hpp"
#include "resilience/planner.hpp"
#include "util/check.hpp"

namespace perfbench {

namespace {

class BenchContext final : public xres::SchedulerContext {
 public:
  explicit BenchContext(std::uint32_t nodes) : free_{nodes} {}

  [[nodiscard]] xres::TimePoint now() const override { return xres::TimePoint::origin(); }
  [[nodiscard]] std::uint32_t free_nodes() const override { return free_; }
  bool try_start(const xres::Job& job) override {
    if (job.spec.nodes > free_) return false;
    free_ -= job.spec.nodes;
    return true;
  }
  void drop(const xres::Job&) override {}

 private:
  std::uint32_t free_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"single_app_journaled", "workload_selection",
                                              "workload_fattree_storm"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const std::string& work_dir) {
  if (name == "single_app_journaled") return make_single_app_journaled(seed, work_dir);
  if (name == "workload_selection" || name == "workload_fattree_storm") {
    return make_pattern_workload(name, seed);
  }
  XRES_CHECK(false, "unknown workload: " + name);
  return nullptr;
}

LayerValues time_planning_layers(const std::vector<PlanCase>& cases,
                                 const xres::MachineSpec& machine, std::uint64_t seed,
                                 SpanLog& spans) {
  using namespace xres;
  std::vector<ExecutionPlan> plans;
  std::vector<SeverityModel> severities;
  for (const PlanCase& c : cases) {
    plans.push_back(make_plan(c.kind, c.app, machine, *c.resilience));
    severities.emplace_back(c.resilience->severity_weights);
  }
  LayerValues out;
  {
    const ScopedSpan span{&spans, "layers.resilience"};
    out.emplace_back("resilience.make_plan_us", per_op_us(kLayerReps, cases.size(), [&] {
                       for (const PlanCase& c : cases) {
                         keep(make_plan(c.kind, c.app, machine, *c.resilience)
                                  .failure_rate.per_second_value());
                       }
                     }));
    out.emplace_back("resilience.select_us", per_op_us(kLayerReps, cases.size(), [&] {
                       for (const PlanCase& c : cases) {
                         keep(c.selector->select(c.app).predicted_efficiency);
                       }
                     }));
  }
  {
    const ScopedSpan span{&spans, "layers.failure"};
    Pcg32 rng{derive_seed(seed, 0x7472616365ULL)};
    out.emplace_back("failure.trace_generate_us", per_op_us(kLayerReps, cases.size(), [&] {
                       for (std::size_t i = 0; i < cases.size(); ++i) {
                         keep(static_cast<double>(
                             FailureTrace::generate(plans[i].failure_rate, cases[i].horizon,
                                                    severities[i],
                                                    FailureDistribution::exponential(), rng)
                                 .size()));
                       }
                     }));
  }
  return out;
}

LayerValues time_scheduler_map(const std::vector<xres::ArrivalPattern>& patterns,
                               const std::vector<xres::SchedulerKind>& kinds,
                               std::uint32_t nodes, std::uint64_t seed) {
  std::vector<std::vector<const xres::Job*>> pending(patterns.size());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    for (const xres::Job& job : patterns[p].jobs) {
      if (job.arrival.since_origin() <= xres::Duration::zero()) pending[p].push_back(&job);
    }
  }
  std::vector<double> us;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    // Fresh schedulers, contexts and streams per repetition, built before
    // the clock starts.
    std::vector<std::unique_ptr<xres::Scheduler>> schedulers;
    std::vector<BenchContext> contexts;
    std::vector<xres::Pcg32> rngs;
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      for (const xres::SchedulerKind kind : kinds) {
        schedulers.push_back(xres::make_scheduler(kind));
        contexts.emplace_back(nodes);
        rngs.emplace_back(xres::derive_seed(seed, static_cast<std::uint64_t>(kind), p));
      }
    }
    const auto start = Clock::now();
    for (std::size_t i = 0; i < schedulers.size(); ++i) {
      schedulers[i]->map(pending[i / kinds.size()], contexts[i], rngs[i]);
    }
    us.push_back(seconds_between(start, Clock::now()) * 1e6 /
                 static_cast<double>(schedulers.size()));
  }
  return {{"rm.map_us", median(std::move(us))}};
}

LayerValues time_journal_replay(const std::vector<xres::recovery::JournalRecord>& records,
                                const std::string& path) {
  constexpr std::size_t kBatch = 32;  // TrialJournal's default fsync batch
  std::filesystem::remove(path);
  std::vector<double> append_us;
  std::vector<double> flush_ms;
  append_us.reserve(records.size());
  {
    // flush_every past the record count: every fsync below is an explicit,
    // separately timed flush() rather than one hidden inside an append.
    xres::recovery::TrialJournal journal{path, {"perfbench_replay", 0, 1},
                                         records.size() + 1};
    for (std::size_t i = 0; i < records.size(); ++i) {
      auto start = Clock::now();
      journal.append(records[i]);
      append_us.push_back(seconds_between(start, Clock::now()) * 1e6);
      if ((i + 1) % kBatch == 0 || i + 1 == records.size()) {
        start = Clock::now();
        journal.flush();
        flush_ms.push_back(seconds_between(start, Clock::now()) * 1e3);
      }
    }
  }
  std::filesystem::remove(path);
  return {{"recovery.append_us", median(std::move(append_us))},
          {"recovery.flush_ms", median(std::move(flush_ms))}};
}

}  // namespace perfbench
