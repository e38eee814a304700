// xres_perfbench: the xres benchmark executable (perfbench/README.md).
//
//   xres_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics: set-up, then rounds (one
// figure each) for --seconds, reporting medians. --trace 1 is the separate
// traced run: a 1-thread pass, then untraced/traced round pairs, then timed
// calls into each layer, reporting the per-layer metrics. Either way the
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the exit code is 0 only when every output check passed.

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "obs/json.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric catalog; BENCHMARK.json lists the same names (checked by
// perfbench/tests).
const std::vector<MetricDef> kEndToEnd{
    {"setup_s", "s"},     {"wall_s", "s"},        {"units_per_s", "1/s"},
    {"cpu_s", "s"},       {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayer{
    {"executor.unit_ms.p50", "ms"},
    {"executor.unit_ms.p99", "ms"},
    {"executor.utilization", "ratio"},
    {"executor.scaling_x", "x"},
    {"executor.failed_frac", "ratio"},
    {"sim.events_popped", "count"},
    {"sim.events_cancelled", "count"},
    {"sim.heap_compactions", "count"},
    {"sim.events_per_unit", "count"},
    {"runtime.sim_events", "count"},
    {"runtime.checkpoints", "count"},
    {"runtime.failures_seen", "count"},
    {"runtime.rollbacks", "count"},
    {"runtime.restarts", "count"},
    {"runtime.recoveries", "count"},
    {"runtime.events_per_s", "1/s"},
    {"runtime.rework_min_minutes", "min"},
    {"failure.trace_generate_us", "us"},
    {"failure.draws_per_trial", "count"},
    {"resilience.make_plan_us", "us"},
    {"resilience.select_us", "us"},
    {"rm.map_us", "us"},
    {"rm.dropped_before_start", "count"},
    {"rm.dropped_while_running", "count"},
    {"rm.queue_wait_h.p50", "h"},
    {"platform.pfs_transfers_per_unit", "count"},
    {"platform.pfs_measured_over_nominal", "ratio"},
    {"apps.generate_pattern_ms", "ms"},
    {"recovery.journal_records", "count"},
    {"recovery.journal_bytes", "bytes"},
    {"recovery.journal_fsyncs", "count"},
    {"recovery.append_us", "us"},
    {"recovery.flush_ms", "ms"},
    {"report.render_ms", "ms"},
    {"obs.traced_over_untraced", "ratio"},
};

constexpr int kMinRounds = 3;
constexpr int kMinTracedPairs = 2;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::optional<std::int64_t> spawn_ns;  ///< when the launcher spawned this process
  std::vector<double> setup_probes;      ///< set-up seconds of --setup-only runs
  bool setup_only{false};
  bool inputs_digest{false};
  bool list_metrics{false};
  std::string work_dir{".bench_build/run"};
};

void usage() {
  std::fprintf(stderr,
               "usage: xres_perfbench --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "                      [--work-dir DIR] [--spawn-ns NS] "
               "[--setup-probes S1,S2,...]\n"
               "       xres_perfbench --workload <name> --setup-only | --inputs-digest\n"
               "       xres_perfbench --list-metrics\n");
}

bool parse_args(int argc, char** argv, Args& args) {
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument{arg + " needs a value"};
        return argv[++i];
      };
      if (arg == "--workload") {
        args.workload = next();
      } else if (arg == "--seed") {
        args.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        args.seconds = std::stod(next());
      } else if (arg == "--trace") {
        const std::string v = next();
        if (v != "0" && v != "1") throw std::invalid_argument{"--trace takes 0 or 1"};
        args.trace = v == "1";
      } else if (arg == "--work-dir") {
        args.work_dir = next();
      } else if (arg == "--spawn-ns") {
        args.spawn_ns = std::stoll(next());
      } else if (arg == "--setup-probes") {
        const std::string v = next();
        std::size_t pos = 0;
        while (pos < v.size()) {
          std::size_t end = v.find(',', pos);
          if (end == std::string::npos) end = v.size();
          args.setup_probes.push_back(std::stod(v.substr(pos, end - pos)));
          pos = end + 1;
        }
      } else if (arg == "--setup-only") {
        args.setup_only = true;
      } else if (arg == "--inputs-digest") {
        args.inputs_digest = true;
      } else if (arg == "--list-metrics") {
        args.list_metrics = true;
      } else {
        throw std::invalid_argument{"unknown argument " + arg};
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xres_perfbench: %s\n", e.what());
    return false;
  }
  if (args.list_metrics) return true;
  bool known = false;
  for (const std::string& name : workload_names()) known = known || name == args.workload;
  if (!known) {
    std::fprintf(stderr, "xres_perfbench: unknown workload '%s'\n", args.workload.c_str());
    return false;
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    std::fprintf(stderr, "xres_perfbench: --seconds must be in (0, 600]\n");
    return false;
  }
  return true;
}

/// Numbers from unoptimized or sanitizer builds say nothing about the
/// program's speed; refuse to report them.
bool measurable_build(std::string& why) {
  const std::string type = XRES_PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo" && type != "MinSizeRel") {
    why = "a '" + type + "' build";
    return false;
  }
  const std::string sanitizer = XRES_PERFBENCH_SANITIZER;
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  why = "a sanitizer build";
  return false;
#endif
  if (sanitizer != "none") {
    why = "a " + sanitizer + " build";
    return false;
  }
  return true;
}

std::string fingerprint_json(const Args& args, unsigned threads) {
  xres::obs::JsonWriter json;
  json.begin_object().key("fingerprint").begin_object();
  json.key("nproc").value(static_cast<std::uint64_t>(available_cpus()));
  json.key("threads").value(static_cast<std::uint64_t>(threads));
  json.key("cpu_model").value(cpu_model());
  json.key("compiler").value(XRES_PERFBENCH_COMPILER);
  json.key("build_type").value(XRES_PERFBENCH_BUILD_TYPE);
  json.key("sanitizer").value(XRES_PERFBENCH_SANITIZER);
  json.key("workload").value(args.workload);
  json.key("seed").value(args.seed);
  json.key("trace").value(args.trace ? 1 : 0);
  json.end_object().end_object();
  return json.str();
}

void print_list_metrics() {
  xres::obs::JsonWriter json;
  json.begin_object();
  for (const auto& [key, defs] : {std::pair{"end_to_end", &kEndToEnd},
                                  std::pair{"per_layer", &kPerLayer}}) {
    json.key(key).begin_array();
    for (const MetricDef& def : *defs) {
      json.begin_object().key("name").value(def.name).key("unit").value(def.unit).end_object();
    }
    json.end_array();
  }
  json.end_object();
  std::printf("%s\n", json.str().c_str());
}

/// Print the result line; returns the process exit code.
int report(std::size_t attempted, std::size_t failed, const std::string& error,
           const std::vector<MetricDef>& defs, const std::map<std::string, double>& values) {
  const bool correct = error.empty() && failed == 0;
  if (!error.empty()) std::fprintf(stderr, "xres_perfbench: output check failed: %s\n",
                                   error.c_str());
  xres::obs::JsonWriter json;
  json.begin_object();
  json.key("correct").value(correct);
  json.key("attempted").value(static_cast<std::uint64_t>(attempted));
  json.key("failed").value(static_cast<std::uint64_t>(failed));
  json.key("metrics").begin_object();
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    XRES_CHECK(it != values.end(), std::string{"metric not measured: "} + def.name);
    json.key(def.name).begin_object();
    json.key("value").value(it->second);
    json.key("unit").value(def.unit);
    json.end_object();
  }
  json.end_object().end_object();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

struct Setup {
  double seconds{0.0};      ///< this process: start to the first dispatch
  double cpu_seconds{0.0};  ///< CPU this process used for it
  Clock::time_point end{};
};

/// Record a round's failures; returns false once the run should stop.
bool absorb(const RoundStats& st, const std::string& label, std::size_t& attempted,
            std::size_t& failed, std::string& error) {
  attempted += st.units;
  failed += st.failed;
  if (!st.error.empty() && error.empty()) error = label + ": " + st.error;
  return error.empty() && failed == 0;
}

int run_measured(const Args& args, Workload& workload, unsigned threads, const Setup& setup) {
  std::vector<double> round_s;
  std::vector<double> round_cpu;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t units = 0;
  std::string error;
  const auto deadline =
      setup.end + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(args.seconds));
  for (std::uint64_t r = 0; r < kMinRounds || Clock::now() < deadline; ++r) {
    RoundOptions options;
    options.threads = threads;
    const RoundStats st = workload.run_round(r, options);
    const std::string label = "round " + std::to_string(r);
    units = st.units;
    round_s.push_back(st.seconds);
    round_cpu.push_back(st.cpu_seconds);
    if (!absorb(st, label, attempted, failed, error)) break;
  }

  std::vector<double> setups = args.setup_probes;
  setups.push_back(setup.seconds);
  const double setup_s = median(setups);
  const double round = median(round_s);
  std::fprintf(stderr,
               "xres_perfbench: %zu rounds of %zu units; round seconds min %.4f, quartiles "
               "%.4f %.4f %.4f, max %.4f\n",
               round_s.size(), units, quantile(round_s, 0.0), quantile(round_s, 0.25), round,
               quantile(round_s, 0.75), quantile(round_s, 1.0));
  const std::map<std::string, double> values{
      {"setup_s", setup_s},
      {"wall_s", setup_s + round},
      {"units_per_s", static_cast<double>(units) / round},
      {"cpu_s", setup.cpu_seconds + median(round_cpu)},
      {"peak_rss_mb", peak_rss_mb()},
  };
  return report(attempted, failed, error, kEndToEnd, values);
}

int run_traced(const Args& args, Workload& workload, unsigned threads) {
  SpanLog spans;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string error;

  // 1-thread pass: the scaling baseline, the thread-invariance reference
  // and (read back from its journal) the records the replay uses.
  RoundStats one;
  {
    const ScopedSpan span{&spans, "pass.one_thread"};
    RoundOptions options;
    options.threads = 1;
    options.inspect_journal = true;
    options.spans = &spans;
    one = workload.run_round(0, options);
  }
  absorb(one, "1-thread pass", attempted, failed, error);

  // Untraced/traced pairs on the same round index: the pair's digests and
  // the 1-thread digest must agree (observation never perturbs results;
  // results never depend on the thread count).
  std::vector<RoundStats> untraced;
  std::vector<RoundStats> traced;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(args.seconds));
  for (std::uint64_t r = 0; error.empty() && (r < kMinTracedPairs || Clock::now() < deadline);
       ++r) {
    RoundOptions plain;
    plain.threads = threads;
    untraced.push_back(workload.run_round(r, plain));
    RoundOptions observed = plain;
    observed.traced = true;
    observed.spans = &spans;
    traced.push_back(workload.run_round(r, observed));
    const std::string label = "round " + std::to_string(r);
    absorb(untraced.back(), label, attempted, failed, error);
    absorb(traced.back(), label + " (traced)", attempted, failed, error);
    if (error.empty() && r == 0 && untraced.back().digest != one.digest) {
      error = label + ": results at " + std::to_string(threads) +
              " threads differ from the 1-thread pass";
    }
    if (error.empty() && traced.back().digest != untraced.back().digest) {
      error = label + ": traced results differ from untraced results";
    }
  }

  std::map<std::string, double> values;
  if (error.empty()) {
    const RoundStats& first = traced.front();
    std::vector<double> unit_ms;
    std::vector<double> utilization;
    std::vector<double> traced_s;
    std::vector<double> untraced_s;
    std::vector<double> render_ms;
    for (const RoundStats& st : traced) {
      unit_ms.insert(unit_ms.end(), st.unit_ms.begin(), st.unit_ms.end());
      utilization.push_back(st.unit_seconds_sum / (threads * st.seconds));
      traced_s.push_back(st.seconds);
    }
    for (const RoundStats& st : untraced) {
      untraced_s.push_back(st.seconds);
      render_ms.push_back(st.render_ms);
    }
    const auto& builtin = xres::obs::builtin_metrics();
    const auto counter = [&](xres::obs::MetricId id) {
      return static_cast<double>(first.metrics.counter(id));
    };
    const xres::obs::HistogramData& rework =
        first.metrics.histogram(builtin.rollback_rework_minutes);
    const double units = static_cast<double>(first.units);

    values = {
        {"executor.unit_ms.p50", quantile(unit_ms, 0.50)},
        {"executor.unit_ms.p99", quantile(unit_ms, 0.99)},
        {"executor.utilization", median(utilization)},
        {"executor.scaling_x", one.seconds / median(untraced_s)},
        {"executor.failed_frac", static_cast<double>(failed) / static_cast<double>(attempted)},
        {"sim.events_popped", static_cast<double>(first.perf.events_popped)},
        {"sim.events_cancelled", static_cast<double>(first.perf.events_cancelled)},
        {"sim.heap_compactions", static_cast<double>(first.perf.heap_compactions)},
        {"sim.events_per_unit", static_cast<double>(first.perf.events_popped) / units},
        {"runtime.sim_events", counter(builtin.sim_events)},
        {"runtime.checkpoints", counter(builtin.checkpoints_completed)},
        {"runtime.failures_seen", counter(builtin.failures_seen)},
        {"runtime.rollbacks", counter(builtin.rollbacks)},
        {"runtime.restarts", counter(builtin.restarts)},
        {"runtime.recoveries", counter(builtin.recoveries)},
        {"runtime.events_per_s", counter(builtin.sim_events) / first.unit_seconds_sum},
        // As measured: a negative minimum is the multilevel rollback defect
        // the program still has, and it must stay visible here.
        {"runtime.rework_min_minutes", rework.count > 0 ? rework.min : 0.0},
        {"report.render_ms", median(render_ms)},
        {"obs.traced_over_untraced", median(traced_s) / median(untraced_s)},
    };
    for (const auto& [name, value] : one.layer_counts) values[name] = value;
    for (const auto& [name, value] : workload.time_layers(spans)) values[name] = value;
    {
      const ScopedSpan span{&spans, "layers.recovery"};
      const std::string path =
          args.work_dir + "/replay." + std::to_string(::getpid()) + ".jsonl";
      for (const auto& [name, value] : time_journal_replay(one.journal_records, path)) {
        values[name] = value;
      }
    }
    XRES_CHECK(values.size() == kPerLayer.size(), "per-layer metrics and catalog disagree");
  } else {
    for (const MetricDef& def : kPerLayer) values[def.name] = 0.0;
  }

  const std::string span_path = args.work_dir + "/" + args.workload + ".seed" +
                                std::to_string(args.seed) + ".spans.jsonl";
  spans.write_jsonl(span_path);
  std::fprintf(stderr, "xres_perfbench: %zu traced pairs, %zu spans written to %s\n",
               traced.size(), spans.size(), span_path.c_str());
  return report(attempted, failed, error, kPerLayer, values);
}

int run(const Args& args, Clock::time_point main_entry) {
  const unsigned threads = available_cpus();
  std::filesystem::create_directories(args.work_dir);
  const Clock::time_point start =
      args.spawn_ns.has_value()
          ? Clock::time_point{std::chrono::duration_cast<Clock::duration>(
                std::chrono::nanoseconds{*args.spawn_ns})}
          : main_entry;

  std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed, args.work_dir);
  if (args.inputs_digest) {
    std::printf("{\"input_digest\": \"%016" PRIx64 "\"}\n", workload->input_digest());
    return 0;
  }
  // The executor's worker pool starts on first use; start it here, as part
  // of set-up, so the first round measures only dispatched work.
  xres::TrialExecutor{threads}.for_each(threads, [](std::size_t) {});
  Setup setup;
  setup.end = Clock::now();
  setup.seconds = seconds_between(start, setup.end);
  setup.cpu_seconds = process_cpu_seconds();
  XRES_CHECK(setup.seconds > 0.0 && setup.seconds < 600.0,
             "implausible set-up time; --spawn-ns must be a CLOCK_MONOTONIC reading");
  if (args.setup_only) {
    std::printf("{\"setup_s\": %.9f}\n", setup.seconds);
    return 0;
  }

  std::printf("%s\n", fingerprint_json(args, threads).c_str());
  return args.trace ? run_traced(args, *workload, threads)
                    : run_measured(args, *workload, threads, setup);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto main_entry = perfbench::Clock::now();
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    perfbench::usage();
    return 2;
  }
  if (args.list_metrics) {
    perfbench::print_list_metrics();
    return 0;
  }
  std::string why;
  if (!perfbench::measurable_build(why)) {
    std::fprintf(stderr, "xres_perfbench: refusing to report numbers from %s\n", why.c_str());
    return 3;
  }
  try {
    return perfbench::run(args, main_entry);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xres_perfbench: %s\n", e.what());
    return 1;
  }
}
