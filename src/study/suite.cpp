#include "study/suite.hpp"

#include <dirent.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/ledger.hpp"
#include "obs/perf.hpp"
#include "recovery/json_parse.hpp"
#include "recovery/shutdown.hpp"
#include "study/capture.hpp"
#include "study/options.hpp"
#include "study/runlog.hpp"
#include "study/study_main.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/io.hpp"

namespace xres::study {

namespace {

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    XRES_CHECK(false, "cannot create directory: " + path);
  }
}

/// Remove temporaries a SIGKILLed run left behind (StdoutCapture's
/// `<path>.tmp`, write_file_atomic's `<path>.tmp.<pid>`) so they never show
/// up as stray diffs between suite output directories.
void remove_stale_temporaries(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> stale;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.find(".tmp") != std::string::npos) stale.push_back(dir + "/" + name);
  }
  ::closedir(d);
  // Best-effort by policy: a failed unlink here only risks a stray .tmp
  // diff, never a wrong artifact.
  for (const std::string& path : stale) io::remove(path.c_str());
}

[[nodiscard]] bool read_file(const std::string& path, std::string& out) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return in.good() || in.eof();
}

struct ArtifactEntry {
  std::string path;  ///< relative to --out-dir
  std::uint32_t crc{0};
  std::uint64_t bytes{0};
};

struct CellResult {
  const SuiteCell* cell{nullptr};
  std::uint64_t seed{0};
  std::vector<ArtifactEntry> artifacts;
};

/// Checksum `out_dir/rel` into an ArtifactEntry; false when the study did
/// not produce it (it is then omitted from the manifest).
bool checksum_artifact(const std::string& out_dir, const std::string& rel,
                       ArtifactEntry& entry) {
  std::string content;
  if (!read_file(out_dir + "/" + rel, content)) return false;
  entry.path = rel;
  entry.crc = crc32(content);
  entry.bytes = content.size();
  return true;
}

void write_manifest(const std::string& tag, const std::string& out_dir,
                    const std::function<void(obs::JsonWriter&)>& manifest_extras,
                    const std::vector<CellResult>& results) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("suite").value(tag);
  w.key("git").value(build_describe());
  if (manifest_extras) manifest_extras(w);
  w.key("studies").begin_array();
  for (const CellResult& r : results) {
    w.begin_object();
    w.key("study").value(r.cell->def->name);
    // The paper suite's cells *are* its studies; only grid cells carry a
    // distinct label (keeps the historical paper manifest byte-stable).
    if (r.cell->name != r.cell->def->name) w.key("cell").value(r.cell->name);
    w.key("group").value(to_string(r.cell->def->group));
    w.key("seed").value(r.seed);
    w.key("params").begin_object();
    for (const auto& [key, value] : r.cell->params.values()) {
      // Registry-injected platform.* params are echoed only when overridden
      // so historical (pre-topology) manifests stay byte-stable.
      if (key.rfind("platform.", 0) == 0 && r.cell->params.schema() != nullptr) {
        const ParamSpec* spec = r.cell->params.schema()->find(key);
        if (spec != nullptr && spec->default_value == value) continue;
      }
      w.key(key).value(value);
    }
    w.end_object();
    w.key("artifacts").begin_array();
    for (const ArtifactEntry& a : r.artifacts) {
      w.begin_object();
      w.key("path").value(a.path);
      w.key("crc32").value(crc32_hex(a.crc));
      w.key("bytes").value(a.bytes);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  write_file_atomic(out_dir + "/" + kManifestName, w.str() + "\n");
}

/// The wall-clock telemetry sidecar. Deliberately *not* a manifest artifact
/// and never CRC-checked: its contents are nondeterministic by design (the
/// byte-identity contract covers deterministic experiment output only), so
/// byte-compares of suite directories must exclude it. Best-effort by
/// policy: a failed write warns once and the suite still succeeds.
void write_perf_sidecar(const std::string& tag, const std::string& out_dir,
                        double wall_seconds,
                        const std::vector<obs::RunRecord>& cells) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("xres-perf-v1");
  w.key("suite").value(tag);
  w.key("build").value(build_describe());
  w.key("wall_s").value(wall_seconds);
  w.key("cells").begin_array();
  for (const obs::RunRecord& r : cells) {
    w.begin_object();
    w.key("cell").value(r.cell.empty() ? r.study : r.cell);
    w.key("study").value(r.study);
    w.key("run_id").value(r.id);
    w.key("wall_s").value(r.wall_seconds);
    w.key("trials_per_s").value(r.trials_per_second);
    w.key("events_per_s").value(r.events_per_second);
    w.key("peak_rss_bytes").value(r.peak_rss);
    w.key("counters").begin_object();
    for (const auto& [key, value] : r.counters) w.key(key).value(value);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  const std::string path = out_dir + "/perf.json";
  if (!try_write_file_atomic(path, w.str() + "\n")) {
    io::warn_once_degraded("perf sidecar", "cannot write " + path);
  }
}

}  // namespace

int run_suite_cells(const std::string& tag, const std::vector<SuiteCell>& cells,
                    const SuiteOptions& options,
                    const std::function<void(obs::JsonWriter&)>& manifest_extras) {
  XRES_CHECK(!options.out_dir.empty(), "suite needs --out-dir");
  XRES_CHECK(!cells.empty(), "no cells to run");
  make_dir(options.out_dir);
  make_dir(options.out_dir + "/journals");
  remove_stale_temporaries(options.out_dir);

  // Artifacts must stay deterministic: run status moves to stderr for the
  // whole suite so the captured stdout .txt files carry experiment output
  // only.
  set_status_stream(stderr);
  std::vector<CellResult> results;
  std::vector<obs::RunRecord> cell_perf;
  const obs::PerfCounters perf_before = obs::perf_snapshot();
  const auto suite_start = std::chrono::steady_clock::now();
  int exit_code = 0;

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SuiteCell& cell = cells[i];
    const StudyDefinition& def = *cell.def;
    std::fprintf(stderr, "[%s %zu/%zu] %s\n", tag.c_str(), i + 1, cells.size(),
                 cell.name.c_str());

    CellResult result;
    result.cell = &cell;

    HarnessOptions harness = default_harness_options(def);
    result.seed = harness.seed;
    harness.run_label = cell.name;
    harness.run_suite = tag;
    if (def.options.threads) harness.threads = options.threads;
    std::vector<std::string> expected{cell.name + ".txt"};
    if (def.options.csv) {
      harness.csv = true;
      harness.csv_path = options.out_dir + "/" + cell.name + ".csv";
      expected.push_back(cell.name + ".csv");
    }
    if (def.options.report) {
      harness.report_path = options.out_dir + "/" + cell.name + ".md";
      expected.push_back(cell.name + ".md");
    }
    if (def.options.obs != StudyOptionsSpec::Obs::kNone) {
      harness.obs.metrics_path = options.out_dir + "/" + cell.name + ".metrics.json";
      expected.push_back(cell.name + ".metrics.json");
    }
    if (def.options.recovery) {
      harness.recovery.journal_path =
          options.out_dir + "/journals/" + cell.name + ".jsonl";
      harness.recovery.resume = options.resume;
    }

    int rc = 0;
    try {
      StdoutCapture capture{options.out_dir + "/" + cell.name + ".txt"};
      rc = run_study(def, cell.params, harness);
      capture.finish();
    } catch (const io::IoError& e) {
      // ENOSPC mid-suite: the cell's journal is fsync'd up to the failure,
      // so exit 75 (resumable) — free disk space, re-run with --resume, and
      // the suite completes byte-identically. Other persistent I/O errors
      // stay ordinary failures.
      if (e.disk_full()) {
        std::fprintf(stderr,
                     "%s: %s stopped: %s\n%s: disk full — journals intact; free "
                     "space and re-run with --resume to complete the suite\n",
                     tag.c_str(), cell.name.c_str(), e.what(), tag.c_str());
        exit_code = recovery::kExitInterrupted;
      } else {
        std::fprintf(stderr, "%s: %s failed: %s\n", tag.c_str(), cell.name.c_str(),
                     e.what());
        exit_code = 1;
      }
      break;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s failed: %s\n", tag.c_str(), cell.name.c_str(),
                   e.what());
      exit_code = 1;
      break;
    }
    if (rc != 0) {
      std::fprintf(stderr, "%s: %s exited with %d\n", tag.c_str(), cell.name.c_str(),
                   rc);
      exit_code = rc;
      break;
    }
    if (obs::RunRecord perf; obs::last_run_record(perf)) {
      cell_perf.push_back(std::move(perf));
    }

    for (const std::string& rel : expected) {
      ArtifactEntry artifact;
      if (checksum_artifact(options.out_dir, rel, artifact)) {
        result.artifacts.push_back(std::move(artifact));
      } else {
        std::fprintf(stderr, "%s: %s did not produce %s\n", tag.c_str(),
                     cell.name.c_str(), rel.c_str());
        exit_code = 1;
      }
    }
    results.push_back(std::move(result));
    if (exit_code != 0) break;
  }

  set_status_stream(stdout);
  if (exit_code != 0) return exit_code;

  write_manifest(tag, options.out_dir, manifest_extras, results);

  // Wall-clock sidecar + one suite-level ledger record carrying the
  // manifest's CRC — the (suite, manifest) identity `xres compare` diffs.
  const double suite_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - suite_start)
          .count();
  write_perf_sidecar(tag, options.out_dir, suite_wall, cell_perf);
  obs::RunRecord suite_record;
  suite_record.id = obs::mint_run_id();
  suite_record.study = "suite";
  suite_record.cell = tag;
  suite_record.suite = tag;
  suite_record.threads = options.threads;
  suite_record.build = build_describe();
  suite_record.params_digest = obs::params_digest(suite_record.params);
  const obs::PerfCounters suite_delta = obs::perf_delta(perf_before);
  suite_record.counters = obs::perf_counter_items(suite_delta);
  suite_record.wall_seconds = suite_wall;
  if (suite_wall > 0) {
    suite_record.trials_per_second =
        static_cast<double>(suite_delta.trials_executed) / suite_wall;
    suite_record.events_per_second =
        static_cast<double>(suite_delta.events_executed()) / suite_wall;
  }
  suite_record.peak_rss = obs::peak_rss_bytes();
  if (std::string manifest_text;
      read_file(options.out_dir + "/" + kManifestName, manifest_text)) {
    suite_record.manifest_crc = crc32_hex(crc32(manifest_text));
  }
  if (obs::append_run_record("results/ledger.jsonl", suite_record)) {
    statusf("run recorded in ledger %s\n", "results/ledger.jsonl");
  }

  std::size_t artifact_count = 0;
  for (const CellResult& r : results) artifact_count += r.artifacts.size();
  std::fprintf(stderr, "%s: %zu studies, %zu artifacts, manifest written to %s/%s\n",
               tag.c_str(), results.size(), artifact_count, options.out_dir.c_str(),
               kManifestName);
  return 0;
}

int run_suite_paper(const SuiteOptions& options) {
  const std::vector<const StudyDefinition*> studies =
      StudyRegistry::instance().group_members(
          {StudyGroup::kFigure, StudyGroup::kTable});
  XRES_CHECK(!studies.empty(), "no figure/table studies registered");

  std::vector<SuiteCell> cells;
  cells.reserve(studies.size());
  for (const StudyDefinition* def : studies) {
    SuiteCell cell;
    cell.def = def;
    cell.name = def->name;
    cell.params = ParamSet{*def};
    if (options.trials != 0) {
      for (const char* key : {"trials", "patterns", "traces"}) {
        if (def->find_param(key) != nullptr) {
          cell.params.set(key, std::to_string(options.trials));
        }
      }
    }
    cells.push_back(std::move(cell));
  }

  return run_suite_cells("paper", cells, options, [&](obs::JsonWriter& w) {
    w.key("trials_override").value(static_cast<std::uint64_t>(options.trials));
  });
}

int verify_suite(const std::string& out_dir) {
  std::string text;
  if (!read_file(out_dir + "/" + kManifestName, text)) {
    std::fprintf(stderr, "suite verify: no %s in %s\n", kManifestName, out_dir.c_str());
    return 1;
  }
  recovery::JsonValue manifest;
  try {
    manifest = recovery::parse_json(text);
  } catch (const recovery::JsonParseError& e) {
    std::fprintf(stderr, "suite verify: malformed manifest: %s\n", e.what());
    return 1;
  }

  int problems = 0;
  std::size_t checked = 0;
  try {
    for (const recovery::JsonValue& study : manifest.at("studies").as_array()) {
      const std::string& name = study.at("study").as_string();
      for (const recovery::JsonValue& artifact : study.at("artifacts").as_array()) {
        const std::string& rel = artifact.at("path").as_string();
        const std::string& want = artifact.at("crc32").as_string();
        std::string content;
        if (!read_file(out_dir + "/" + rel, content)) {
          std::printf("MISSING  %s (%s)\n", rel.c_str(), name.c_str());
          ++problems;
          continue;
        }
        const std::string got = crc32_hex(crc32(content));
        if (got != want) {
          std::printf("MISMATCH %s (%s): manifest %s, file %s\n", rel.c_str(),
                      name.c_str(), want.c_str(), got.c_str());
          ++problems;
          continue;
        }
        ++checked;
      }
    }
  } catch (const recovery::JsonParseError& e) {
    std::fprintf(stderr, "suite verify: manifest missing fields: %s\n", e.what());
    return 1;
  }

  if (problems != 0) {
    std::printf("suite verify: %d problem(s), %zu artifact(s) OK\n", problems, checked);
    return 1;
  }
  std::printf("suite verify: all %zu artifact(s) match %s\n", checked, kManifestName);
  return 0;
}

}  // namespace xres::study
