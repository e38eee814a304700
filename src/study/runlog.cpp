#include "study/runlog.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "recovery/json_parse.hpp"
#include "util/cli.hpp"
#include "util/framed_line.hpp"
#include "xres_build_id.hpp"

namespace xres::study {

namespace {

constexpr std::string_view kLedgerKind = "xres-run-v1";

/// Find the record whose id is \p needle, or the unique record whose id
/// starts with it. Exits with a usage error on no match / ambiguity.
const obs::RunRecord& find_run(const std::vector<obs::RunRecord>& records,
                               const std::string& needle) {
  const obs::RunRecord* prefix_match = nullptr;
  std::size_t prefix_matches = 0;
  for (const obs::RunRecord& r : records) {
    if (r.id == needle) return r;
    if (r.id.rfind(needle, 0) == 0) {
      prefix_match = &r;
      ++prefix_matches;
    }
  }
  if (prefix_matches == 1) return *prefix_match;
  if (prefix_matches == 0) {
    CliParser::usage_error("no run '" + needle + "' in the ledger — see `xres log`");
  }
  CliParser::usage_error("run id prefix '" + needle + "' is ambiguous (" +
                         std::to_string(prefix_matches) + " matches) — use more "
                         "characters or the full id from `xres log`");
}

/// Shared entry guard for `xres show` / `xres compare`: load \p path or
/// exit 2 with one clean line naming it — a missing, unreadable or wholly
/// corrupt ledger is an input problem, not a crash (docs/ROBUSTNESS.md).
std::vector<obs::RunRecord> load_ledger_or_usage_error(const std::string& path) {
  LedgerScanStats stats;
  std::vector<obs::RunRecord> records = load_ledger(path, &stats);
  if (!stats.found) {
    CliParser::usage_error("cannot read ledger " + path +
                           " (runs record themselves there by default; see "
                           "docs/OBSERVABILITY.md)");
  }
  if (stats.valid_records == 0) {
    CliParser::usage_error(
        "ledger " + path + " holds no readable records (" +
        std::to_string(stats.corrupt_records) + " corrupt line(s) skipped)");
  }
  return records;
}

std::map<std::string, std::uint64_t> counter_map(const obs::RunRecord& r) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : r.counters) out[name] = value;
  return out;
}

void print_record(const obs::RunRecord& r) {
  std::printf("run %s\n", r.id.c_str());
  std::printf("  study          %s\n", r.study.c_str());
  if (!r.cell.empty()) std::printf("  cell           %s\n", r.cell.c_str());
  if (!r.suite.empty()) std::printf("  suite          %s\n", r.suite.c_str());
  std::printf("  seed           %llu\n", static_cast<unsigned long long>(r.seed));
  std::printf("  threads        %u\n", r.threads);
  std::printf("  build          %s\n", r.build.c_str());
  std::printf("  status         %d\n", r.status);
  std::printf("  params digest  %s\n", r.params_digest.c_str());
  for (const auto& [key, value] : r.params) {
    std::printf("    %-22s %s\n", key.c_str(), value.c_str());
  }
  std::printf("  counters\n");
  for (const auto& [name, value] : r.counters) {
    std::printf("    %-22s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("  wall           %.3f s\n", r.wall_seconds);
  std::printf("  throughput     %.1f trials/s, %.0f events/s\n",
              r.trials_per_second, r.events_per_second);
  std::printf("  peak rss       %.1f MiB\n",
              static_cast<double>(r.peak_rss) / (1024.0 * 1024.0));
  if (!r.metrics_crc.empty()) {
    std::printf("  metrics crc    %s\n", r.metrics_crc.c_str());
  }
  if (!r.manifest_crc.empty()) {
    std::printf("  manifest crc   %s\n", r.manifest_crc.c_str());
  }
  if (!r.platform_crc.empty()) {
    std::printf("  platform crc   %s\n", r.platform_crc.c_str());
  }
}

}  // namespace

obs::RunRecord parse_run_record(const std::string& record_json) {
  using recovery::JsonParseError;
  using recovery::JsonValue;
  const JsonValue v = recovery::parse_json(record_json);
  const JsonValue* kind = v.find("ledger");
  if (kind == nullptr || kind->as_string() != kLedgerKind) {
    throw JsonParseError{"not an xres run-ledger record"};
  }
  obs::RunRecord r;
  r.id = v.at("id").as_string();
  r.study = v.at("study").as_string();
  if (const JsonValue* cell = v.find("cell"); cell != nullptr) {
    r.cell = cell->as_string();
  }
  if (const JsonValue* suite = v.find("suite"); suite != nullptr) {
    r.suite = suite->as_string();
  }
  r.seed = v.at("seed").as_u64();
  r.threads = static_cast<unsigned>(v.at("threads").as_u64());
  r.build = v.at("build").as_string();
  r.status = static_cast<int>(v.at("status").as_i64());
  r.params_digest = v.at("params_digest").as_string();
  for (const auto& [key, value] : v.at("params").as_object()) {
    r.params.emplace_back(key, value.as_string());
  }
  for (const auto& [key, value] : v.at("counters").as_object()) {
    r.counters.emplace_back(key, value.as_u64());
  }
  r.wall_seconds = v.at("wall_s").as_double();
  r.trials_per_second = v.at("trials_per_s").as_double();
  r.events_per_second = v.at("events_per_s").as_double();
  r.peak_rss = v.at("peak_rss_bytes").as_u64();
  if (const JsonValue* crc = v.find("metrics_crc"); crc != nullptr) {
    r.metrics_crc = crc->as_string();
  }
  if (const JsonValue* crc = v.find("manifest_crc"); crc != nullptr) {
    r.manifest_crc = crc->as_string();
  }
  if (const JsonValue* crc = v.find("platform_crc"); crc != nullptr) {
    r.platform_crc = crc->as_string();
  }
  return r;
}

std::vector<obs::RunRecord> load_ledger(const std::string& path,
                                        LedgerScanStats* stats) {
  std::vector<obs::RunRecord> records;
  LedgerScanStats local;
  std::ifstream in{path, std::ios::binary};
  if (in.good()) {
    local.found = true;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string content = buf.str();
    const std::string_view view{content};
    std::size_t start = 0;
    std::string record_json;
    while (start < view.size()) {
      std::size_t end = view.find('\n', start);
      if (end == std::string_view::npos) end = view.size();
      const std::string_view line = view.substr(start, end - start);
      start = end + 1;
      if (line.empty()) continue;
      if (!unframe_crc_line(line, record_json)) {
        ++local.corrupt_records;  // torn tail or bit rot: skip, never fatal
        continue;
      }
      try {
        records.push_back(parse_run_record(record_json));
        ++local.valid_records;
      } catch (const recovery::JsonParseError&) {
        ++local.corrupt_records;
      }
    }
  }
  if (stats != nullptr) *stats = local;
  return records;
}

const std::string& build_describe() {
  static const std::string id = XRES_BUILD_ID;
  return id;
}

RunComparison compare_runs(const obs::RunRecord& a, const obs::RunRecord& b,
                           double slowdown_threshold) {
  RunComparison out;
  auto drift = [&out](const std::string& line) { out.drift.push_back(line); };

  // A platform-digest mismatch is a warning, not drift: the runs modeled
  // different interconnect/PFS topologies, so their results are *expected*
  // to differ. Identity mismatches (study/params/seed/status) stay hard
  // drift, but result differences (counters, artifact CRCs) are demoted to
  // warnings — the comparison is apples-to-oranges, not broken determinism.
  const bool platform_differs = !a.platform_crc.empty() &&
                                !b.platform_crc.empty() &&
                                a.platform_crc != b.platform_crc;
  auto result_drift = [&out, &drift, platform_differs](const std::string& line) {
    if (platform_differs) {
      out.warnings.push_back(line + " (expected: different platforms)");
    } else {
      drift(line);
    }
  };
  if (platform_differs) {
    out.warnings.push_back("platform digest differs (" + a.platform_crc + " vs " +
                           b.platform_crc +
                           "): runs modeled different platforms, artifact "
                           "differences are expected");
  }

  if (a.study != b.study) drift("study: " + a.study + " vs " + b.study);
  if (a.params_digest != b.params_digest) {
    drift("params digest: " + a.params_digest + " vs " + b.params_digest);
  }
  if (a.seed != b.seed) {
    drift("seed: " + std::to_string(a.seed) + " vs " + std::to_string(b.seed));
  }
  if (a.status != b.status) {
    drift("status: " + std::to_string(a.status) + " vs " + std::to_string(b.status));
  }
  // Counter totals are part of the determinism contract; --threads is not
  // (the whole point is that thread count never changes them). A counter
  // only one record carries comes from a build that predates (or dropped)
  // it: a schema difference, reported but not drift.
  const auto counters_a = counter_map(a);
  const auto counters_b = counter_map(b);
  std::map<std::string, bool> names;
  for (const auto& [name, value] : counters_a) names[name] = true;
  for (const auto& [name, value] : counters_b) names[name] = true;
  for (const auto& [name, present] : names) {
    const auto it_a = counters_a.find(name);
    const auto it_b = counters_b.find(name);
    if (it_a == counters_a.end() || it_b == counters_b.end()) {
      out.warnings.push_back("counter " + name + " recorded by only one run (" +
                             (it_a == counters_a.end() ? a.id : b.id) +
                             " predates it); not compared");
      continue;
    }
    const std::uint64_t va = it_a->second;
    const std::uint64_t vb = it_b->second;
    if (va != vb) {
      result_drift("counter " + name + ": " + std::to_string(va) + " vs " +
            std::to_string(vb));
    }
  }
  if (!a.metrics_crc.empty() && !b.metrics_crc.empty() &&
      a.metrics_crc != b.metrics_crc) {
    result_drift("metrics crc: " + a.metrics_crc + " vs " + b.metrics_crc);
  }
  if (!a.manifest_crc.empty() && !b.manifest_crc.empty() &&
      a.manifest_crc != b.manifest_crc) {
    result_drift("manifest crc: " + a.manifest_crc + " vs " + b.manifest_crc);
  }

  char buf[160];
  if (a.wall_seconds > 0 &&
      b.wall_seconds > a.wall_seconds * (1.0 + slowdown_threshold)) {
    std::snprintf(buf, sizeof buf,
                  "wall time regressed %.0f%%: %.3fs -> %.3fs (threshold %.0f%%)",
                  (b.wall_seconds / a.wall_seconds - 1.0) * 100.0, a.wall_seconds,
                  b.wall_seconds, slowdown_threshold * 100.0);
    out.warnings.emplace_back(buf);
  }
  if (a.trials_per_second > 0 && b.trials_per_second > 0 &&
      b.trials_per_second < a.trials_per_second * (1.0 - slowdown_threshold)) {
    std::snprintf(buf, sizeof buf,
                  "throughput regressed %.0f%%: %.1f -> %.1f trials/s "
                  "(threshold %.0f%%)",
                  (1.0 - b.trials_per_second / a.trials_per_second) * 100.0,
                  a.trials_per_second, b.trials_per_second,
                  slowdown_threshold * 100.0);
    out.warnings.emplace_back(buf);
  }
  return out;
}

int cmd_log(int argc, const char* const* argv) {
  CliParser cli{"list recent runs from the ledger (newest last)"};
  cli.add_option("--ledger", "ledger file to read", "results/ledger.jsonl");
  cli.add_option("--study", "only show runs of this study", "");
  cli.add_option("--limit", "show at most the N most recent runs (0 = all)", "20");
  if (!cli.parse_or_exit(argc, argv)) return 0;
  const std::string path = cli.str("--ledger");
  const std::string study = cli.str("--study");
  const std::int64_t limit = cli.integer("--limit");
  if (limit < 0) CliParser::usage_error("--limit must be >= 0");

  LedgerScanStats stats;
  std::vector<obs::RunRecord> records = load_ledger(path, &stats);
  if (!stats.found) {
    std::printf("no ledger at %s (runs record themselves there by default; "
                "see docs/OBSERVABILITY.md)\n", path.c_str());
    return 0;
  }
  if (!study.empty()) {
    std::erase_if(records, [&](const obs::RunRecord& r) { return r.study != study; });
  }
  std::size_t first = 0;
  if (limit > 0 && records.size() > static_cast<std::size_t>(limit)) {
    first = records.size() - static_cast<std::size_t>(limit);
  }
  std::printf("%-17s %-28s %-10s %3s %8s %10s %8s %s\n", "id", "study", "seed",
              "thr", "wall_s", "trials/s", "status", "params");
  for (std::size_t i = first; i < records.size(); ++i) {
    const obs::RunRecord& r = records[i];
    std::string name = r.study;
    if (!r.cell.empty() && r.cell != r.study) name += "[" + r.cell + "]";
    if (name.size() > 28) name = name.substr(0, 25) + "...";
    std::printf("%-17s %-28s %-10llu %3u %8.2f %10.1f %8d %s\n", r.id.c_str(),
                name.c_str(), static_cast<unsigned long long>(r.seed), r.threads,
                r.wall_seconds, r.trials_per_second, r.status,
                r.params_digest.c_str());
  }
  const std::size_t shown = records.size() - first;
  std::printf("%zu run%s shown (%zu in ledger", shown, shown == 1 ? "" : "s",
              stats.valid_records);
  if (stats.corrupt_records > 0) {
    std::printf(", %zu corrupt line%s skipped", stats.corrupt_records,
                stats.corrupt_records == 1 ? "" : "s");
  }
  std::printf(")\n");
  return 0;
}

int cmd_show(int argc, const char* const* argv) {
  std::string id;
  std::vector<const char*> rest;
  rest.push_back(argc > 0 ? argv[0] : "xres-show");
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (id.empty() && !arg.starts_with("--")) {
      id = arg;
    } else {
      rest.push_back(argv[i]);
    }
  }
  CliParser cli{"show one ledger record in full: xres show <run-id>"};
  cli.add_option("--ledger", "ledger file to read", "results/ledger.jsonl");
  if (!cli.parse_or_exit(static_cast<int>(rest.size()), rest.data())) return 0;
  if (id.empty()) {
    CliParser::usage_error("usage: xres show <run-id> [--ledger PATH] — ids are "
                           "listed by `xres log`");
  }
  const std::vector<obs::RunRecord> records =
      load_ledger_or_usage_error(cli.str("--ledger"));
  print_record(find_run(records, id));
  return 0;
}

int cmd_compare(int argc, const char* const* argv) {
  std::vector<std::string> ids;
  std::vector<const char*> rest;
  rest.push_back(argc > 0 ? argv[0] : "xres-compare");
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (ids.size() < 2 && !arg.starts_with("--")) {
      ids.emplace_back(arg);
    } else {
      rest.push_back(argv[i]);
    }
  }
  CliParser cli{"compare two ledger runs: xres compare <run-a> <run-b>"};
  cli.add_option("--ledger", "ledger file to read", "results/ledger.jsonl");
  cli.add_option("--threshold", "wall-clock slowdown fraction that triggers a "
                 "regression warning", "0.25");
  if (!cli.parse_or_exit(static_cast<int>(rest.size()), rest.data())) return 0;
  if (ids.size() != 2) {
    CliParser::usage_error("usage: xres compare <run-a> <run-b> [--ledger PATH] "
                           "[--threshold F]");
  }
  const double threshold = cli.real("--threshold");
  if (threshold < 0) CliParser::usage_error("--threshold must be >= 0");

  const std::vector<obs::RunRecord> records =
      load_ledger_or_usage_error(cli.str("--ledger"));
  const obs::RunRecord& a = find_run(records, ids[0]);
  const obs::RunRecord& b = find_run(records, ids[1]);
  const RunComparison cmp = compare_runs(a, b, threshold);

  std::printf("compare %s (%s) vs %s (%s)\n", a.id.c_str(), a.study.c_str(),
              b.id.c_str(), b.study.c_str());
  for (const std::string& line : cmp.drift) {
    std::printf("  drift: %s\n", line.c_str());
  }
  for (const std::string& line : cmp.warnings) {
    std::printf("  warn:  %s\n", line.c_str());
  }
  if (cmp.identical()) {
    std::printf("  deterministic fields identical (%zu counters checked)\n",
                counter_map(a).size());
    return 0;
  }
  std::printf("  %zu deterministic mismatch%s\n", cmp.drift.size(),
              cmp.drift.size() == 1 ? "" : "es");
  return 1;
}

}  // namespace xres::study
