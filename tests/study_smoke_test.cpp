// Registry smoke test: run studies end-to-end at tiny trial counts and
// assert the artifact bytes (stdout, CSV, metrics JSON) are identical for
// --threads 1 and --threads 2 — the determinism contract every study in
// the catalog promises. A fast one-per-group subset runs in tier-1; the
// full-catalog sweep is guarded by XRES_SMOKE_ALL=1.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "study/capture.hpp"
#include "study/options.hpp"
#include "study/registry.hpp"
#include "study/study_main.hpp"

namespace xres::study {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct SmokeArtifacts {
  int exit_code{-1};
  std::string stdout_bytes;
  std::string csv_bytes;
  std::string metrics_bytes;
};

SmokeArtifacts run_smoke(const StudyDefinition& def, unsigned threads) {
  const std::string base = ::testing::TempDir() + "smoke_" + def.name + "_t" +
                           std::to_string(threads);
  ParamSet params{def};
  for (const char* key : {"trials", "patterns", "traces"}) {
    if (def.find_param(key) != nullptr) params.set(key, "2");
  }
  HarnessOptions options = default_harness_options(def);
  if (def.options.threads) options.threads = threads;
  if (def.options.csv) {
    options.csv = true;
    options.csv_path = base + ".csv";
  }
  if (def.options.obs != StudyOptionsSpec::Obs::kNone) {
    options.obs.metrics_path = base + ".metrics.json";
  }

  SmokeArtifacts result;
  // Route run status (wall-clock phase timings, "written to" notices) to
  // stderr so the captured stdout is a pure function of the seed — exactly
  // what the suite runner does.
  set_status_stream(stderr);
  {
    StdoutCapture capture{base + ".txt"};
    result.exit_code = run_study(def, std::move(params), options);
    capture.finish();
  }
  set_status_stream(stdout);

  result.stdout_bytes = read_file(base + ".txt");
  if (!options.csv_path.empty()) result.csv_bytes = read_file(options.csv_path);
  if (!options.obs.metrics_path.empty()) {
    result.metrics_bytes = read_file(options.obs.metrics_path);
  }
  return result;
}

void expect_threads_invariant(const std::string& name) {
  const StudyDefinition* def = StudyRegistry::instance().find(name);
  ASSERT_NE(def, nullptr) << name;
  const SmokeArtifacts one = run_smoke(*def, 1);
  ASSERT_EQ(one.exit_code, 0) << name;
  EXPECT_FALSE(one.stdout_bytes.empty()) << name;
  // Serial-sweep studies expose no --threads; the single run is the smoke.
  if (!def->options.threads) return;
  const SmokeArtifacts two = run_smoke(*def, 2);
  ASSERT_EQ(two.exit_code, 0) << name;
  EXPECT_EQ(one.stdout_bytes, two.stdout_bytes) << name;
  EXPECT_EQ(one.csv_bytes, two.csv_bytes) << name;
  EXPECT_EQ(one.metrics_bytes, two.metrics_bytes) << name;
}

// Fast tier-1 subset: one study per harness shape — static table, figure
// pipeline, workload figure, executor ablation, extension.
TEST(StudySmoke, FastSubsetThreadsInvariant) {
  for (const char* name :
       {"table1_app_types", "fig1_efficiency_a32", "fig4_resource_management",
        "ablation_severity_pmf", "ext_semi_blocking"}) {
    expect_threads_invariant(name);
  }
}

// Full-catalog sweep, too slow for tier-1:
//   XRES_SMOKE_ALL=1 ./xres_tests --gtest_filter='StudySmoke.*'
TEST(StudySmoke, FullCatalogThreadsInvariant) {
  if (std::getenv("XRES_SMOKE_ALL") == nullptr) {
    GTEST_SKIP() << "set XRES_SMOKE_ALL=1 to sweep the full catalog";
  }
  for (const StudyDefinition* def : StudyRegistry::instance().all()) {
    expect_threads_invariant(def->name);
  }
}

}  // namespace
}  // namespace xres::study
