// single_app_journaled: paper Figures 2 and 3 (D64 at 10-year and 2.5-year
// node MTBF; 8 sizes x 5 techniques x 200 trials per cell) through
// run_efficiency_study, each study streaming its trials into a
// TrialJournal on the checkout's own filesystem, as `xres run --journal`
// does. Round r runs both studies at root seeds derived from (seed, r).
//
// Chosen because the direct trial engine, the failure draws, the
// executor's per-cell loop and the journal make up its whole cost; the
// event heap, schedulers and PFS device do no work here.

#include <unistd.h>

#include <array>
#include <cmath>
#include <filesystem>

#include "apps/app_type.hpp"
#include "core/single_app_study.hpp"
#include "recovery/trial_record.hpp"
#include "util/check.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace xres;

constexpr std::uint32_t kTrials = 200;
struct StudyDef {
  const char* name;
  double mtbf_years;
};
constexpr std::array<StudyDef, 2> kStudies{{{"fig2_efficiency_d64", 10.0},
                                            {"fig3_efficiency_d64_mtbf2p5", 2.5}}};

class SingleAppJournaled final : public Workload {
 public:
  SingleAppJournaled(std::uint64_t seed, std::string work_dir)
      : seed_{seed}, work_dir_{std::move(work_dir)} {
    for (const StudyDef& def : kStudies) {
      EfficiencyStudyConfig config;
      config.app_type = app_type_by_name("D64");
      config.resilience.node_mtbf = Duration::years(def.mtbf_years);
      config.trials = kTrials;
      configs_.push_back(config);
    }
    // The first round's first journal is opened during set-up, as a
    // journaled run opens it before its first trial.
    pending_journal_ = open_journal(0, round_seed(0, 0));
  }

  ~SingleAppJournaled() override {
    if (pending_journal_ != nullptr) {
      const std::string path = pending_journal_->path();
      pending_journal_.reset();
      std::filesystem::remove(path);
    }
  }

  SingleAppJournaled(const SingleAppJournaled&) = delete;
  SingleAppJournaled& operator=(const SingleAppJournaled&) = delete;

  [[nodiscard]] std::uint64_t input_digest() const override {
    Digest d;
    for (std::size_t k = 0; k < configs_.size(); ++k) {
      const EfficiencyStudyConfig& c = configs_[k];
      d.add(c.app_type.name);
      d.add(c.resilience.node_mtbf.to_seconds());
      d.add(static_cast<std::uint64_t>(c.trials));
      for (double f : c.size_fractions) d.add(f);
      for (TechniqueKind t : c.techniques) d.add(static_cast<std::uint64_t>(t));
      // The root seeds of the first rounds stand for the whole sequence.
      for (std::uint64_t r = 0; r < 16; ++r) d.add(round_seed(r, k));
    }
    return d.value();
  }

  [[nodiscard]] RoundStats run_round(std::uint64_t index,
                                     const RoundOptions& options) override {
    RoundStats st;
    const std::size_t cells = configs_[0].size_fractions.size() * configs_[0].techniques.size();
    const std::size_t trials_per_study = cells * kTrials;
    st.units = trials_per_study * configs_.size();
    std::uint64_t journal_records = 0;
    std::uint64_t journal_bytes = 0;
    double failures = 0.0;
    std::vector<std::pair<std::string, std::uint64_t>> journals;  // path, root seed
    Digest digest;

    const obs::PerfCounters perf0 = obs::perf_snapshot();
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    {
      const ScopedSpan round_span{options.spans, "round " + std::to_string(index)};
      for (std::size_t k = 0; k < configs_.size(); ++k) {
        EfficiencyStudyConfig config = configs_[k];
        config.seed = round_seed(index, k);
        config.threads = options.threads;
        config.collect_metrics = options.traced;
        std::unique_ptr<recovery::TrialJournal> journal = take_journal(index, k);
        config.recovery.journal = journal.get();
        const std::string path = journal->path();

        auto last = Clock::now();
        StudyProgress progress;
        if (options.traced) {
          progress = [&](std::size_t, std::size_t) {
            const auto now = Clock::now();
            st.unit_ms.push_back(seconds_between(last, now) * 1e3);
            last = now;
          };
        }
        EfficiencyStudyResult result;
        try {
          const ScopedSpan span{options.spans, std::string{"run_efficiency_study "} +
                                                   kStudies[k].name,
                                round_span.id()};
          result = run_efficiency_study(config, progress);
        } catch (const std::exception& e) {
          st.failed += trials_per_study;
          if (st.error.empty()) st.error = kStudies[k].name + std::string{": "} + e.what();
          journal.reset();
          std::filesystem::remove(path);
          continue;
        }
        const std::uint64_t appended = journal->appended();
        journal.reset();  // final fsync and close, as the run's owner does at exit
        journal_records += appended;
        journal_bytes += std::filesystem::file_size(path);
        journals.emplace_back(path, config.seed);

        check_result(result, appended, trials_per_study, kStudies[k].name, st);
        for (const auto& row : result.efficiency) {
          for (const Summary& s : row) {
            digest.add(static_cast<std::uint64_t>(s.count));
            digest.add(s.mean);
            digest.add(s.stddev);
            digest.add(s.min);
            digest.add(s.max);
          }
        }
        for (const auto& row : result.mean_failures) {
          for (double f : row) {
            digest.add(f);
            failures += f * kTrials;
          }
        }
        std::string text;
        {
          const ScopedSpan span{options.spans, "Table::to_text", round_span.id()};
          const auto render0 = Clock::now();
          text = result.to_table().to_text();
          st.render_ms += seconds_between(render0, Clock::now()) * 1e3;
        }
        if (text.empty() && st.error.empty()) st.error = "empty figure table";
        if (options.traced && result.metrics.has_value()) st.metrics.merge(*result.metrics);
      }
    }
    st.seconds = seconds_between(t0, Clock::now());
    st.cpu_seconds = process_cpu_seconds() - cpu0;
    st.perf = obs::perf_delta(perf0);
    st.digest = digest.value();

    const double units = static_cast<double>(st.units);
    st.layer_counts = {
        {"failure.draws_per_trial", failures / units},
        {"rm.dropped_before_start", 0.0},
        {"rm.dropped_while_running", 0.0},
        {"rm.queue_wait_h.p50", 0.0},
        {"platform.pfs_transfers_per_unit", 0.0},
        {"platform.pfs_measured_over_nominal", 0.0},
        {"recovery.journal_records", static_cast<double>(journal_records)},
        {"recovery.journal_bytes", static_cast<double>(journal_bytes)},
        {"recovery.journal_fsyncs", static_cast<double>(st.perf.journal_fsync_batches)},
    };

    for (std::size_t k = 0; k < journals.size(); ++k) {
      const auto& [path, root_seed] = journals[k];
      if (options.traced || options.inspect_journal) {
        inspect(path, root_seed, k, options.inspect_journal, st);
      }
      std::filesystem::remove(path);
    }
    return st;
  }

  [[nodiscard]] LayerValues time_layers(SpanLog& spans) override {
    const MachineSpec& machine = configs_[0].machine;
    std::vector<ResilienceSelector> selectors;
    for (const EfficiencyStudyConfig& config : configs_) {
      selectors.emplace_back(machine, config.resilience);
    }
    // Every (size x technique) cell of both studies.
    std::vector<PlanCase> cases;
    for (std::size_t k = 0; k < configs_.size(); ++k) {
      const EfficiencyStudyConfig& config = configs_[k];
      for (double fraction : config.size_fractions) {
        // run_efficiency_study's sizing of a cell's application.
        const auto nodes = static_cast<std::uint32_t>(
            std::llround(fraction * static_cast<double>(machine.node_count)));
        const AppSpec app =
            AppSpec::from_baseline(config.app_type, std::max(1U, nodes), config.baseline);
        for (TechniqueKind kind : config.techniques) {
          cases.push_back(PlanCase{app, kind, &config.resilience, &selectors[k], config.baseline});
        }
      }
    }
    LayerValues out = time_planning_layers(cases, machine, seed_, spans);

    // The workload schedules nothing and generates no arrival pattern; the
    // apps and rm layers are timed on an unbiased pattern from the same
    // seed so every layer reports a reading on every workload.
    std::vector<ArrivalPattern> patterns;
    {
      const ScopedSpan span{&spans, "layers.apps"};
      const WorkloadConfig workload{};
      out.emplace_back("apps.generate_pattern_ms", per_op_us(kLayerReps, 1, [&] {
                         patterns.assign(1, generate_pattern(workload, seed_, 0));
                       }) / 1e3);
    }
    {
      const ScopedSpan span{&spans, "layers.rm"};
      for (auto& v : time_scheduler_map(patterns, all_schedulers(), machine.node_count, seed_)) {
        out.push_back(std::move(v));
      }
    }
    return out;
  }

 private:
  [[nodiscard]] std::uint64_t round_seed(std::uint64_t index, std::size_t study) const {
    return derive_seed(seed_, index, static_cast<std::uint64_t>(study));
  }

  [[nodiscard]] std::unique_ptr<recovery::TrialJournal> open_journal(
      std::size_t study, std::uint64_t root_seed) const {
    const std::string path = work_dir_ + "/single_app_journaled." +
                             std::to_string(::getpid()) + "." + std::to_string(study) +
                             ".jsonl";
    std::filesystem::remove(path);  // a fresh journal, as a first run writes it
    return std::make_unique<recovery::TrialJournal>(
        path, recovery::JournalMeta{kStudies[study].name, root_seed, 1});
  }

  /// The journal set-up opened when it belongs to this study run, else a
  /// newly opened one.
  [[nodiscard]] std::unique_ptr<recovery::TrialJournal> take_journal(std::uint64_t index,
                                                                     std::size_t study) {
    const std::uint64_t root_seed = round_seed(index, study);
    if (pending_journal_ != nullptr && study == 0 &&
        pending_journal_->meta().root_seed == root_seed) {
      return std::move(pending_journal_);
    }
    return open_journal(study, root_seed);
  }

  static void check_result(const EfficiencyStudyResult& result, std::uint64_t appended,
                           std::size_t expected_trials, const char* study, RoundStats& st) {
    const auto fail = [&](const std::string& what) {
      if (st.error.empty()) st.error = std::string{study} + ": " + what;
    };
    const recovery::BatchReport& report = result.recovery_report;
    if (report.executed != expected_trials || report.quarantined != 0 ||
        report.interrupted) {
      fail("executed " + std::to_string(report.executed) + " of " +
           std::to_string(expected_trials) + " trials (" + report.summary() + ")");
    }
    if (appended != report.executed) {
      fail("journal holds " + std::to_string(appended) + " records for " +
           std::to_string(report.executed) + " executed trials");
    }
    for (const auto& row : result.efficiency) {
      for (const Summary& s : row) {
        if (!(s.mean >= 0.0 && s.mean <= 1.0)) {
          fail("cell mean efficiency " + std::to_string(s.mean) + " outside [0, 1]");
        }
        if (s.count != kTrials) fail("cell reduced " + std::to_string(s.count) + " trials");
      }
    }
  }

  /// Read one study's journal back: Σ per-trial wall time, and the records
  /// themselves when \p keep_records.
  void inspect(const std::string& path, std::uint64_t root_seed, std::size_t study,
               bool keep_records, RoundStats& st) const {
    const recovery::ResumeIndex index = recovery::ResumeIndex::load(
        path, recovery::JournalMeta{kStudies[study].name, root_seed, 1});
    const EfficiencyStudyConfig& config = configs_[study];
    for (std::size_t si = 0; si < config.size_fractions.size(); ++si) {
      for (std::size_t ti = 0; ti < config.techniques.size(); ++ti) {
        const std::string batch = "s" + std::to_string(si) + ".t" + std::to_string(ti);
        for (std::uint32_t t = 0; t < config.trials; ++t) {
          const recovery::JournalRecord* record = index.find(batch, t);
          XRES_CHECK(record != nullptr, "journal lacks record " + batch + "/" +
                                            std::to_string(t));
          st.unit_seconds_sum += recovery::parse_trial_outcome(record->payload).wall_seconds;
          if (keep_records) st.journal_records.push_back(*record);
        }
      }
    }
  }

  std::uint64_t seed_;
  std::string work_dir_;
  std::vector<EfficiencyStudyConfig> configs_;
  std::unique_ptr<recovery::TrialJournal> pending_journal_;
};

}  // namespace

std::unique_ptr<Workload> make_single_app_journaled(std::uint64_t seed,
                                                    const std::string& work_dir) {
  return std::make_unique<SingleAppJournaled>(seed, work_dir);
}

}  // namespace perfbench
