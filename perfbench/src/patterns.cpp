// The two pattern-run workloads. One unit is one run_workload call: one
// arrival pattern under one (scheduler x technique policy) combo.
//
// workload_selection: the Figure-5 mix — 4 workload biases x {FCFS,
// Random, Slack} x {Parallel Recovery, Resilience Selection} on the flat
// platform. Chosen because Figures 4 and 5 dominate `xres suite paper`:
// here the event heap and the runtime's phase dispatch dominate, selector
// planning comes next, and the journal and the direct engine are idle.
//
// workload_fattree_storm: the fat-tree platform with the PFS device
// narrowed to 4 channels, {Slack, TopoPack} x {CR, ML, PR}, unbiased
// patterns. Chosen because shared-device checkpoint transfers break the
// phase chains the flat platform runs uninterrupted, so a gain on
// workload_selection that costs contended runs shows here; it is also the
// only workload that runs sim/pfs_device, platform/fattree and TopoPack.
//
// Round r runs a fresh pattern set generated from (seed, r), so the
// median round averages over many patterns rather than one draw. Round 0's
// inputs are generated during set-up; later rounds' inputs are generated
// between rounds, outside the timed part.

#include <algorithm>
#include <map>

#include "core/executor.hpp"
#include "core/workload_record.hpp"
#include "core/workload_study.hpp"
#include "util/check.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace xres;


struct PatternSpec {
  std::vector<WorkloadBias> biases;
  std::vector<WorkloadCombo> combos;
  MachineSpec machine;
  std::uint32_t patterns{0};  ///< per bias
};

PatternSpec selection_spec() {
  PatternSpec spec;
  spec.biases = {WorkloadBias::kUnbiased, WorkloadBias::kHighMemory,
                 WorkloadBias::kHighCommunication, WorkloadBias::kLargeApps};
  spec.combos = figure5_combos();
  spec.machine = MachineSpec::exascale();
  spec.patterns = 10;
  return spec;
}

PatternSpec fattree_spec() {
  PatternSpec spec;
  spec.biases = {WorkloadBias::kUnbiased};
  for (SchedulerKind scheduler : {SchedulerKind::kSlack, SchedulerKind::kTopoPack}) {
    for (TechniqueKind kind : workload_techniques()) {
      spec.combos.push_back(WorkloadCombo{scheduler, TechniquePolicy::fixed_technique(kind)});
    }
  }
  spec.machine = MachineSpec::exascale();
  spec.machine.platform.model = PlatformModelKind::kFattree;
  spec.machine.platform.fattree.pfs_channels = 4;
  spec.patterns = 30;
  return spec;
}

void digest_run(const WorkloadRunResult& r, Digest& d) {
  for (std::uint64_t v :
       {std::uint64_t{r.total_jobs}, std::uint64_t{r.completed}, std::uint64_t{r.dropped},
        std::uint64_t{r.dropped_before_start}, std::uint64_t{r.dropped_while_running},
        r.failures_injected, r.pfs_transfers}) {
    d.add(v);
  }
  for (double v : {r.dropped_fraction, r.mean_utilization, r.makespan.to_seconds(),
                   r.completed_slowdown.mean, r.queue_wait_hours.mean, r.pfs_measured_s,
                   r.pfs_nominal_s}) {
    d.add(v);
  }
  for (const auto& [kind, count] : r.selection_counts) {
    d.add(static_cast<std::uint64_t>(kind));
    d.add(static_cast<std::uint64_t>(count));
  }
}

class PatternWorkload final : public Workload {
 public:
  PatternWorkload(PatternSpec spec, std::uint64_t seed) : spec_{std::move(spec)}, seed_{seed} {
    prepare(0);
  }

  [[nodiscard]] std::uint64_t input_digest() const override {
    // The first rounds' inputs stand for the whole sequence.
    Digest d;
    for (std::uint64_t r = 0; r < 4; ++r) {
      const RoundInputs inputs = make_inputs(r);
      for (const auto& patterns : inputs.patterns) {
        for (const ArrivalPattern& pattern : patterns) {
          for (const Job& job : pattern.jobs) {
            d.add(static_cast<std::uint64_t>(job.id));
            d.add(job.spec.type.name);
            d.add(static_cast<std::uint64_t>(job.spec.nodes));
            d.add(job.spec.time_steps);
            d.add(job.arrival.since_origin().to_seconds());
            d.add(job.deadline.since_origin().to_seconds());
          }
        }
      }
      for (std::uint64_t s : inputs.engine_seeds) d.add(s);
    }
    return d.value();
  }

  [[nodiscard]] RoundStats run_round(std::uint64_t index,
                                     const RoundOptions& options) override {
    prepare(index);  // before the clock starts: inputs are set-up, not round work
    const RoundInputs& in = inputs_;
    RoundStats st;
    Digest digest;
    const std::size_t per_bias = spec_.combos.size() * spec_.patterns;
    std::vector<WorkloadRunResult> all_runs;
    std::vector<WorkloadComboResult> table_rows;
    std::vector<double> unit_s;
    std::vector<std::string> batches;

    const obs::PerfCounters perf0 = obs::perf_snapshot();
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    double render_s = 0.0;
    {
      const ScopedSpan round_span{options.spans, "round " + std::to_string(index)};
      const TrialExecutor executor{options.threads};
      for (std::size_t b = 0; b < spec_.biases.size(); ++b) {
        std::vector<WorkloadRunResult> runs(per_bias);
        std::vector<std::string> threw(per_bias);  // what a failing run threw
        std::vector<double> seconds(per_bias, 0.0);
        std::vector<obs::TrialObs> observers(options.traced ? per_bias : 0);
        const std::string bias_name = to_string(spec_.biases[b]);
        const ScopedSpan bias_span{options.spans, "TrialExecutor::for_each " + bias_name,
                                   round_span.id()};
        executor.for_each(per_bias, [&](std::size_t idx) {
          const WorkloadCombo& combo = spec_.combos[idx / spec_.patterns];
          const std::size_t p = idx % spec_.patterns;
          WorkloadEngineConfig engine;
          engine.machine = spec_.machine;
          engine.policy = combo.policy;
          engine.scheduler = combo.scheduler;
          engine.seed = in.engine_seeds[p];
          if (options.traced) {
            observers[idx].enable_metrics();
            engine.obs = &observers[idx];
          }
          const ScopedSpan span{options.spans, "run_workload", bias_span.id()};
          const auto start = Clock::now();
          try {
            runs[idx] = run_workload(engine, in.patterns[b][p]);
          } catch (const std::exception& e) {
            threw[idx] = std::string{"threw: "} + e.what();
          }
          seconds[idx] = seconds_between(start, Clock::now());
        });

        for (std::size_t idx = 0; idx < per_bias; ++idx) {
          const std::size_t p = idx % spec_.patterns;
          if (!threw[idx].empty()) {
            ++st.failed;
            fail(st, bias_name + " run " + std::to_string(idx) + " " + threw[idx]);
            continue;
          }
          check_run(runs[idx], in.patterns[b][p].size(), bias_name, idx, st);
          digest_run(runs[idx], digest);
          if (options.traced) {
            st.metrics.merge(*observers[idx].metrics());
            unit_s.push_back(seconds[idx]);
          }
        }
        // Per-combo summaries, reduced in pattern order as
        // run_workload_study reduces them.
        for (std::size_t c = 0; c < spec_.combos.size(); ++c) {
          WorkloadComboResult row;
          row.combo = spec_.combos[c];
          RunningStats dropped;
          RunningStats utilization;
          RunningStats failures;
          for (std::uint32_t p = 0; p < spec_.patterns; ++p) {
            const WorkloadRunResult& r = runs[c * spec_.patterns + p];
            dropped.add(r.dropped_fraction);
            utilization.add(r.mean_utilization);
            failures.add(static_cast<double>(r.failures_injected));
            for (const auto& [kind, count] : r.selection_counts) {
              row.selection_counts[kind] += count;
            }
          }
          row.dropped_fraction = dropped.summary();
          row.mean_utilization = utilization.summary();
          row.mean_failures = failures.mean();
          table_rows.push_back(std::move(row));
        }
        for (std::size_t idx = 0; idx < per_bias; ++idx) batches.push_back(bias_name);
        all_runs.insert(all_runs.end(), runs.begin(), runs.end());
      }
      const ScopedSpan span{options.spans, "Table::to_text", round_span.id()};
      const auto render0 = Clock::now();
      const std::string text = workload_results_table(table_rows).to_text();
      render_s = seconds_between(render0, Clock::now());
      if (text.empty()) fail(st, "empty figure table");
    }
    st.seconds = seconds_between(t0, Clock::now());
    st.cpu_seconds = process_cpu_seconds() - cpu0;
    st.perf = obs::perf_delta(perf0);
    st.units = all_runs.size();
    st.digest = digest.value();
    st.render_ms = render_s * 1e3;
    for (double s : unit_s) {
      st.unit_ms.push_back(s * 1e3);
      st.unit_seconds_sum += s;
    }

    std::uint64_t failures = 0;
    std::uint64_t before_start = 0;
    std::uint64_t while_running = 0;
    std::uint64_t transfers = 0;
    double measured = 0.0;
    double nominal = 0.0;
    std::vector<double> queue_wait;
    for (const WorkloadRunResult& r : all_runs) {
      failures += r.failures_injected;
      before_start += r.dropped_before_start;
      while_running += r.dropped_while_running;
      transfers += r.pfs_transfers;
      measured += r.pfs_measured_s;
      nominal += r.pfs_nominal_s;
      if (r.queue_wait_hours.count > 0) queue_wait.push_back(r.queue_wait_hours.mean);
    }
    const double units = static_cast<double>(st.units);
    st.layer_counts = {
        {"failure.draws_per_trial", static_cast<double>(failures) / units},
        {"rm.dropped_before_start", static_cast<double>(before_start)},
        {"rm.dropped_while_running", static_cast<double>(while_running)},
        {"rm.queue_wait_h.p50", median(queue_wait)},
        {"platform.pfs_transfers_per_unit", static_cast<double>(transfers) / units},
        {"platform.pfs_measured_over_nominal", nominal > 0.0 ? measured / nominal : 0.0},
        {"recovery.journal_records", 0.0},
        {"recovery.journal_bytes", 0.0},
        {"recovery.journal_fsyncs", 0.0},
    };

    if (options.inspect_journal) {
      // What `--journal` would hold for this round: one record per run.
      for (std::size_t i = 0; i < all_runs.size(); ++i) {
        WorkloadOutcome outcome;
        outcome.result = all_runs[i];
        recovery::JournalRecord record;
        record.batch = "bias:" + batches[i];
        record.index = i % per_bias;
        record.seed = in.engine_seeds[i % spec_.patterns];
        record.payload = serialize_workload_outcome(outcome);
        st.journal_records.push_back(std::move(record));
      }
    }
    return st;
  }

  [[nodiscard]] LayerValues time_layers(SpanLog& spans) override {
    const ResilienceConfig resilience{};
    const ResilienceSelector selector{spec_.machine, resilience};
    // Every job of each bias's first pattern, under each workload technique.
    std::vector<PlanCase> cases;
    for (const auto& patterns : inputs_.patterns) {
      for (const Job& job : patterns.front().jobs) {
        for (TechniqueKind kind : workload_techniques()) {
          cases.push_back(PlanCase{job.spec, kind, &resilience, &selector,
                                   job.spec.baseline_time()});
        }
      }
    }
    LayerValues out = time_planning_layers(cases, spec_.machine, seed_, spans);
    {
      const ScopedSpan span{&spans, "layers.apps"};
      const std::size_t count = spec_.biases.size() * spec_.patterns;
      out.emplace_back("apps.generate_pattern_ms", per_op_us(kLayerReps, count, [&] {
                         for (WorkloadBias bias : spec_.biases) {
                           const WorkloadConfig config = pattern_config(bias);
                           for (std::uint32_t p = 0; p < spec_.patterns; ++p) {
                             keep(static_cast<double>(
                                 generate_pattern(config, inputs_.root, p).size()));
                           }
                         }
                       }) / 1e3);
    }
    {
      const ScopedSpan span{&spans, "layers.rm"};
      std::vector<SchedulerKind> kinds;
      for (const WorkloadCombo& combo : spec_.combos) {
        if (std::find(kinds.begin(), kinds.end(), combo.scheduler) == kinds.end()) {
          kinds.push_back(combo.scheduler);
        }
      }
      std::vector<ArrivalPattern> all;
      for (const auto& patterns : inputs_.patterns) {
        all.insert(all.end(), patterns.begin(), patterns.end());
      }
      for (auto& v : time_scheduler_map(all, kinds, spec_.machine.node_count, seed_)) {
        out.push_back(std::move(v));
      }
    }
    return out;
  }

 private:
  /// One round's generated inputs: a Figure-style pattern set per bias and
  /// the engine seed of each pattern index.
  struct RoundInputs {
    std::uint64_t index{0};
    std::uint64_t root{0};
    std::vector<std::vector<ArrivalPattern>> patterns;  ///< [bias][pattern]
    std::vector<std::uint64_t> engine_seeds;            ///< per pattern
  };

  [[nodiscard]] RoundInputs make_inputs(std::uint64_t index) const {
    RoundInputs in;
    in.index = index;
    in.root = derive_seed(seed_, 0x7061747465726eULL, index);
    for (WorkloadBias bias : spec_.biases) {
      const WorkloadConfig config = pattern_config(bias);
      std::vector<ArrivalPattern>& patterns = in.patterns.emplace_back();
      for (std::uint32_t p = 0; p < spec_.patterns; ++p) {
        patterns.push_back(generate_pattern(config, in.root, p));
      }
    }
    for (std::uint32_t p = 0; p < spec_.patterns; ++p) {
      // As run_workload_study seeds it: per pattern, shared by every combo.
      in.engine_seeds.push_back(derive_seed(in.root, 0x656e67696eULL, p));
    }
    return in;
  }

  void prepare(std::uint64_t index) {
    if (inputs_.patterns.empty() || inputs_.index != index) inputs_ = make_inputs(index);
  }

  [[nodiscard]] WorkloadConfig pattern_config(WorkloadBias bias) const {
    WorkloadConfig config;
    config.machine_nodes = spec_.machine.node_count;
    config.bias = bias;
    return config;
  }

  static void fail(RoundStats& st, const std::string& what) {
    if (st.error.empty()) st.error = what;
  }

  static void check_run(const WorkloadRunResult& r, std::size_t jobs, const std::string& bias,
                        std::size_t idx, RoundStats& st) {
    const std::string where = bias + " run " + std::to_string(idx) + ": ";
    if (r.total_jobs != jobs) {
      fail(st, where + "total_jobs " + std::to_string(r.total_jobs) + " != pattern size " +
                   std::to_string(jobs));
    }
    if (r.completed + r.dropped != r.total_jobs) {
      fail(st, where + "completed + dropped != total jobs");
    }
    if (!(r.dropped_fraction >= 0.0 && r.dropped_fraction <= 1.0)) {
      fail(st, where + "dropped fraction outside [0, 1]");
    }
    if (!(r.mean_utilization >= 0.0 && r.mean_utilization <= 1.0)) {
      fail(st, where + "utilization outside [0, 1]");
    }
  }

  PatternSpec spec_;
  std::uint64_t seed_;
  RoundInputs inputs_;  ///< the inputs of the latest prepared round
};

}  // namespace

std::unique_ptr<Workload> make_pattern_workload(const std::string& name, std::uint64_t seed) {
  XRES_CHECK(name == "workload_selection" || name == "workload_fattree_storm",
             "unknown pattern workload: " + name);
  return std::make_unique<PatternWorkload>(
      name == "workload_selection" ? selection_spec() : fattree_spec(), seed);
}

}  // namespace perfbench
