// Ablation: machine-wide PFS bandwidth contention in the workload study.
// The paper's Eq. 3 models per-application PFS contention (N_a / N_S) but
// treats concurrent applications' checkpoints as independent; this
// extension routes all PFS traffic through one shared PFS device
// (sim/pfs_device.hpp) with a configurable gateway count and measures the
// impact on dropped applications.

#include <cstdio>
#include <vector>

#include "core/workload_study.hpp"
#include "study/context.hpp"
#include "study/platform_params.hpp"
#include "study/registry.hpp"
#include "util/check.hpp"

namespace {
using namespace xres;

int run(study::StudyContext& ctx) {
  const auto patterns = ctx.params().u32("patterns");
  const std::uint64_t seed = ctx.seed();
  const study::ObsOptions& obs_options = ctx.options().obs;
  study::RecoveryCoordinator& coordinator = ctx.recovery();
  const TrialExecutor executor{1};  // pattern runs are serial in this sweep
  obs::MetricSet merged;

  WorkloadStudyConfig study_config;
  study_config.patterns = patterns;
  study_config.seed = seed;
  study::apply_platform_params(study_config.machine, ctx.params());
  // The contended variants model a shared PFS on the flat machine; a
  // non-flat platform routes PFS traffic through its own queued device
  // (see ablation_pfs_contention_topology).
  if (study_config.machine.platform.model != PlatformModelKind::kFlat) {
    study::usage_error_from(CheckError{
        "platform.model must be flat for ablation_pfs_contention; use "
        "ablation_pfs_contention_topology for non-flat platforms"});
  }

  std::printf("Ablation: PFS contention in the oversubscribed workload study\n");
  std::printf("scheduler Slack, %u patterns per cell\n\n", patterns);

  Table table{{"PFS model", "checkpoint-restart dropped %", "multilevel dropped %",
               "parallel-recovery dropped %"}};

  struct Variant {
    const char* name;
    std::uint32_t gateways;  // 0: the paper's independent transfers
  };
  for (const Variant variant : {Variant{"independent (paper)", 0},
                                Variant{"shared, 8 gateways", 8},
                                Variant{"shared, 4 gateways", 4},
                                Variant{"shared, 1 gateway", 1}}) {
    std::vector<std::string> row{variant.name};
    for (TechniqueKind kind : workload_techniques()) {
      // Run the combos manually so the gateway count can be set; the
      // crash-safe pattern loop journals each run under a per-cell batch
      // label.
      RunningStats dropped;
      study::run_patterns_controlled(
          coordinator, executor,
          std::string{variant.name} + "/" + to_string(kind), patterns, seed,
          [&](std::uint32_t p) {
            const ArrivalPattern pattern =
                generate_pattern(study_config.workload, study_config.seed, p);
            WorkloadEngineConfig engine;
            engine.machine = study_config.machine;
            engine.resilience = study_config.resilience;
            engine.policy = TechniquePolicy::fixed_technique(kind);
            engine.scheduler = SchedulerKind::kSlack;
            engine.seed = derive_seed(study_config.seed, 0x656e67696eULL, p);
            engine.pfs_gateways = variant.gateways;
            obs::TrialObs run_obs;
            if (obs_options.metrics()) {
              run_obs.enable_metrics();
              engine.obs = &run_obs;
            }
            WorkloadOutcome outcome;
            outcome.result = run_workload(engine, pattern);
            if (obs_options.metrics()) outcome.metrics = *run_obs.metrics();
            return outcome;
          },
          [&](std::uint32_t, const WorkloadOutcome& outcome) {
            dropped.add(outcome.result.dropped_fraction);
            if (obs_options.metrics() && outcome.metrics.has_value()) {
              merged.merge(*outcome.metrics);
            }
          });
      if (coordinator.interrupted()) return coordinator.finish();
      row.push_back(fmt_double(dropped.mean() * 100.0, 2) + " ± " +
                    fmt_double(dropped.stddev() * 100.0, 2));
    }
    table.add_row(std::move(row));
    std::fprintf(stderr, "finished: %s\n", variant.name);
  }
  std::printf("%s", table.to_text().c_str());
  if (obs_options.metrics()) {
    std::printf("\nInstrumented breakdown (whole sweep):\n%s",
                merged.to_table().to_text().c_str());
    merged.write_json(obs_options.metrics_path);
    study::statusf("metrics written to %s\n", obs_options.metrics_path.c_str());
  }
  std::printf("(parallel recovery never touches the PFS, so its column is the "
              "control: contention leaves it unchanged)\n");
  return coordinator.finish();
}

study::StudyDefinition make() {
  study::StudyDefinition def;
  def.name = "ablation_pfs_contention";
  def.group = study::StudyGroup::kAblation;
  def.description =
      "dropped applications with and without machine-wide PFS bandwidth contention "
      "(flat platform)";
  def.summary = "ablation_pfs_contention — dropped %% with/without machine-wide "
                "PFS contention";
  def.options.default_seed = 20170530;
  def.options.threads = false;  // pattern runs are serial in this sweep
  def.options.obs = study::StudyOptionsSpec::Obs::kNoTrace;
  def.params.integer("patterns", "arrival patterns per cell", 15).min(1);
  def.run = run;
  return def;
}

const study::Registration registered{make()};

}  // namespace
