// Run-ledger tests (obs/ledger.hpp writes, study/runlog.hpp reads): framed
// append/scan round trip, torn-tail and bad-CRC tolerance, concurrent
// appenders (O_APPEND line atomicity — also the TSAN target), 10k-record
// scan throughput, run comparison semantics, and the engine-counter
// determinism + status-stream-leakage contracts for a real study run.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/ledger.hpp"
#include "study/capture.hpp"
#include "study/options.hpp"
#include "study/registry.hpp"
#include "study/runlog.hpp"
#include "study/study_main.hpp"
#include "util/framed_line.hpp"
#include "util/io.hpp"

namespace xres {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

obs::RunRecord sample_record(const std::string& id, std::uint64_t seed) {
  obs::RunRecord r;
  r.id = id;
  r.study = "fig1_efficiency_a32";
  r.seed = seed;
  r.threads = 4;
  r.build = "test";
  r.params = {{"trials", "5"}, {"type", "A32"}};
  r.params_digest = obs::params_digest(r.params);
  r.counters = {{"events_popped", 123}, {"trials_executed", 5}};
  r.wall_seconds = 0.5;
  r.trials_per_second = 10.0;
  r.events_per_second = 246.0;
  r.peak_rss = 1 << 20;
  return r;
}

TEST(ObsLedger, AppendScanRoundTrip) {
  const std::string path = temp_path("ledger_roundtrip.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(obs::append_run_record(path, sample_record("run-a", 7)));
  ASSERT_TRUE(obs::append_run_record(path, sample_record("run-b", 8)));

  study::LedgerScanStats stats;
  const auto records = study::load_ledger(path, &stats);
  EXPECT_TRUE(stats.found);
  EXPECT_EQ(stats.valid_records, 2U);
  EXPECT_EQ(stats.corrupt_records, 0U);
  ASSERT_EQ(records.size(), 2U);
  EXPECT_EQ(records[0].id, "run-a");
  EXPECT_EQ(records[1].id, "run-b");
  EXPECT_EQ(records[1].seed, 8U);
  EXPECT_EQ(records[1].params_digest, records[0].params_digest);
  ASSERT_EQ(records[0].counters.size(), 2U);
  EXPECT_EQ(records[0].counters[0].first, "events_popped");
  EXPECT_EQ(records[0].counters[0].second, 123U);
  EXPECT_DOUBLE_EQ(records[0].wall_seconds, 0.5);
}

TEST(ObsLedger, TornTailSkippedAndHealedByNextAppend) {
  const std::string path = temp_path("ledger_torn.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(obs::append_run_record(path, sample_record("run-a", 1)));
  {
    // A SIGKILL mid-append: a prefix of a frame, no trailing newline.
    std::ofstream out{path, std::ios::binary | std::ios::app};
    out << R"({"c":"deadbeef","r":{"tr)";
  }
  study::LedgerScanStats stats;
  auto records = study::load_ledger(path, &stats);
  EXPECT_EQ(stats.valid_records, 1U);
  EXPECT_EQ(stats.corrupt_records, 1U);

  // The next append must start on a fresh line, not merge into the torn
  // bytes and lose itself.
  ASSERT_TRUE(obs::append_run_record(path, sample_record("run-b", 2)));
  records = study::load_ledger(path, &stats);
  EXPECT_EQ(stats.valid_records, 2U);
  EXPECT_EQ(stats.corrupt_records, 1U);
  ASSERT_EQ(records.size(), 2U);
  EXPECT_EQ(records[1].id, "run-b");
}

TEST(ObsLedger, BadCrcSkippedNeverFatal) {
  const std::string path = temp_path("ledger_badcrc.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(obs::append_run_record(path, sample_record("run-a", 1)));
  ASSERT_TRUE(obs::append_run_record(path, sample_record("run-b", 2)));

  // Flip one byte inside the first record's JSON: frame parses, CRC fails.
  std::string content = read_file(path);
  const std::size_t pos = content.find("run-a");
  ASSERT_NE(pos, std::string::npos);
  content[pos + 4] = 'X';
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << content;
  }
  study::LedgerScanStats stats;
  const auto records = study::load_ledger(path, &stats);
  EXPECT_EQ(stats.valid_records, 1U);
  EXPECT_EQ(stats.corrupt_records, 1U);
  ASSERT_EQ(records.size(), 1U);
  EXPECT_EQ(records[0].id, "run-b");
}

TEST(ObsLedger, InjectedFaultsDegradeToWarningNeverThrow) {
  // The ledger is best-effort by policy (docs/ROBUSTNESS.md): an append
  // that hits I/O faults returns false with one warning and must never
  // throw — it cannot take down or change the exit code of the run it is
  // recording.
  const std::string path = temp_path("ledger_injected.jsonl");
  std::remove(path.c_str());
  io::reset_degraded_warnings_for_tests();
  io::install_faults(io::parse_fault_spec("5:1:eio"));
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(obs::append_run_record(path, sample_record("run-a", 1)));
  EXPECT_FALSE(obs::append_run_record(path, sample_record("run-b", 2)));
  const std::string log = ::testing::internal::GetCapturedStderr();
  io::clear_faults();
  EXPECT_GE(io::faults_injected(), 1U);
  // Exactly one degradation warning for any number of failed appends.
  const std::size_t first = log.find("run ledger degraded");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(log.find("run ledger degraded", first + 1), std::string::npos);

  // With injection disarmed the same path works again, and whatever the
  // faulted attempts left behind must not poison the scan.
  ASSERT_TRUE(obs::append_run_record(path, sample_record("run-c", 3)));
  study::LedgerScanStats stats;
  const auto records = study::load_ledger(path, &stats);
  EXPECT_EQ(stats.valid_records, 1U);
  ASSERT_EQ(records.size(), 1U);
  EXPECT_EQ(records[0].id, "run-c");
  io::reset_degraded_warnings_for_tests();
}

TEST(ObsLedger, ConcurrentAppendersNeverInterleave) {
  const std::string path = temp_path("ledger_concurrent.jsonl");
  std::remove(path.c_str());
  constexpr int kPerThread = 50;
  auto appender = [&](const std::string& tag) {
    for (int i = 0; i < kPerThread; ++i) {
      obs::append_run_record(path,
                             sample_record(tag + std::to_string(i),
                                           static_cast<std::uint64_t>(i)));
    }
  };
  std::thread a{appender, "a-"};
  std::thread b{appender, "b-"};
  a.join();
  b.join();

  study::LedgerScanStats stats;
  const auto records = study::load_ledger(path, &stats);
  EXPECT_EQ(stats.corrupt_records, 0U);
  EXPECT_EQ(records.size(), 2U * kPerThread);
}

TEST(ObsLedger, TenThousandRecordScan) {
  const std::string path = temp_path("ledger_10k.jsonl");
  std::remove(path.c_str());
  {
    // Write the frames directly — this test times the scan, not the append.
    std::ofstream out{path, std::ios::binary};
    for (int i = 0; i < 10000; ++i) {
      out << frame_crc_line(
          obs::to_ledger_json(sample_record(std::to_string(i), 1)));
    }
  }
  const auto start = std::chrono::steady_clock::now();
  study::LedgerScanStats stats;
  const auto records = study::load_ledger(path, &stats);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(records.size(), 10000U);
  EXPECT_EQ(stats.corrupt_records, 0U);
  // Generous bound (loaded CI runners): the scan is linear and must stay
  // interactive — `xres log` runs it on every invocation.
  EXPECT_LT(elapsed, 5.0);
}

TEST(ObsLedger, CompareRunsDriftAndWarnings) {
  const obs::RunRecord a = sample_record("run-a", 7);
  obs::RunRecord b = sample_record("run-b", 7);

  EXPECT_TRUE(study::compare_runs(a, b, 0.25).identical());

  // Wall-clock slowdown beyond the threshold: warning, never drift.
  b.wall_seconds = a.wall_seconds * 2.0;
  const study::RunComparison slow = study::compare_runs(a, b, 0.25);
  EXPECT_TRUE(slow.identical());
  EXPECT_FALSE(slow.warnings.empty());

  // A counter mismatch is deterministic drift.
  b = sample_record("run-b", 7);
  b.counters[0].second += 1;
  EXPECT_FALSE(study::compare_runs(a, b, 0.25).identical());

  // Different seeds are different experiments, also drift.
  b = sample_record("run-b", 8);
  EXPECT_FALSE(study::compare_runs(a, b, 0.25).identical());

  // A counter only one record carries (a record written before the counter
  // existed) is a schema difference: warned about, never drift.
  b = sample_record("run-b", 7);
  b.counters.emplace_back("events_direct", 42);
  const study::RunComparison newer = study::compare_runs(a, b, 0.25);
  EXPECT_TRUE(newer.identical());
  ASSERT_FALSE(newer.warnings.empty());
  EXPECT_NE(newer.warnings.back().find("events_direct"), std::string::npos);
  EXPECT_TRUE(study::compare_runs(b, a, 0.25).identical());
}

TEST(ObsLedger, CompareRunsPlatformDigestWarnsNotFails) {
  obs::RunRecord a = sample_record("run-a", 7);
  obs::RunRecord b = sample_record("run-b", 7);
  a.platform_crc = "2793af5e";
  b.platform_crc = "cb8a35fc";
  // Different platforms are expected to produce different results: counter
  // and artifact-CRC mismatches are demoted to warnings, never drift.
  b.counters[0].second += 1;
  b.metrics_crc = "deadbeef";
  a.metrics_crc = "0badf00d";
  const study::RunComparison cmp = study::compare_runs(a, b, 0.25);
  EXPECT_TRUE(cmp.identical());
  EXPECT_GE(cmp.warnings.size(), 3U);  // platform notice + counter + metrics

  // Same platform digest: the counter mismatch is hard drift again.
  b.platform_crc = a.platform_crc;
  EXPECT_FALSE(study::compare_runs(a, b, 0.25).identical());

  // Identity mismatches stay hard drift even across platforms.
  obs::RunRecord c = sample_record("run-c", 9);
  c.platform_crc = "cb8a35fc";
  EXPECT_FALSE(study::compare_runs(a, c, 0.25).identical());
}

TEST(ObsLedger, ParamsDigestIsOrderAndValueSensitive) {
  const std::vector<std::pair<std::string, std::string>> p1 = {
      {"trials", "5"}, {"type", "A32"}};
  const std::vector<std::pair<std::string, std::string>> p2 = {
      {"trials", "6"}, {"type", "A32"}};
  EXPECT_EQ(obs::params_digest(p1), obs::params_digest(p1));
  EXPECT_NE(obs::params_digest(p1), obs::params_digest(p2));
  EXPECT_NE(obs::params_digest(p1), obs::params_digest({}));
}

struct LedgeredRun {
  int exit_code{-1};
  std::string stdout_bytes;
  obs::RunRecord record;
};

/// Run a small registry study exactly the way the suite does — status to
/// stderr, stdout captured — with the ledger pointed at \p ledger_path.
LedgeredRun run_ledgered(const study::StudyDefinition& def, unsigned threads,
                         const std::string& ledger_path) {
  const std::string base = temp_path("ledgered_" + def.name + "_t" +
                                     std::to_string(threads));
  study::ParamSet params{def};
  params.set("trials", "3");
  study::HarnessOptions options = study::default_harness_options(def);
  options.threads = threads;
  options.ledger_path = ledger_path;

  LedgeredRun result;
  study::set_status_stream(stderr);
  {
    study::StdoutCapture capture{base + ".txt"};
    result.exit_code = study::run_study(def, std::move(params), options);
    capture.finish();
  }
  study::set_status_stream(stdout);
  result.stdout_bytes = read_file(base + ".txt");
  EXPECT_TRUE(obs::last_run_record(result.record));
  return result;
}

TEST(ObsLedger, EngineCountersThreadInvariantAndBannersDoNotLeak) {
  const study::StudyDefinition* def =
      study::StudyRegistry::instance().find("fig1_efficiency_a32");
  ASSERT_NE(def, nullptr);
  const std::string ledger = temp_path("ledger_determinism.jsonl");
  std::remove(ledger.c_str());

  const LedgeredRun one = run_ledgered(*def, 1, ledger);
  const LedgeredRun four = run_ledgered(*def, 4, ledger);
  ASSERT_EQ(one.exit_code, 0);
  ASSERT_EQ(four.exit_code, 0);

  // Deterministic identity must not depend on the worker-thread count:
  // byte-identical counters, same params digest — `xres compare` contract.
  EXPECT_EQ(one.record.params_digest, four.record.params_digest);
  EXPECT_EQ(one.record.counters, four.record.counters);
  EXPECT_TRUE(study::compare_runs(one.record, four.record, 1e9).identical());

  // Wall-clock fields are present but deliberately unchecked for equality.
  EXPECT_GT(one.record.wall_seconds, 0.0);
  EXPECT_GT(four.record.wall_seconds, 0.0);

  // Status-stream leakage: ledger/perf banners must ride the status stream
  // (stderr here, as under a suite), never the captured artifact bytes.
  EXPECT_EQ(one.stdout_bytes.find("run recorded in ledger"), std::string::npos);
  EXPECT_EQ(one.stdout_bytes.find("perf:"), std::string::npos);
  EXPECT_EQ(one.stdout_bytes, four.stdout_bytes);

  // Both runs landed in the ledger file itself.
  study::LedgerScanStats stats;
  const auto records = study::load_ledger(ledger, &stats);
  EXPECT_EQ(stats.valid_records, 2U);
  ASSERT_EQ(records.size(), 2U);
  EXPECT_EQ(records[0].counters, records[1].counters);
}

/// First line a shell command prints ("" when it prints nothing).
std::string first_line_of(const std::string& command) {
  std::string line;
  if (std::FILE* pipe = ::popen(command.c_str(), "r")) {
    char buf[256] = {};
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) line = buf;
    ::pclose(pipe);
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
  return line;
}

/// \p id without a trailing "-dirty": the tree may be edited between the
/// build and the test run.
std::string commit_part(std::string id) {
  const std::string dirty = "-dirty";
  if (id.size() > dirty.size() && id.ends_with(dirty)) id.resize(id.size() - dirty.size());
  return id;
}

TEST(ObsLedger, BuildIdIsTheCheckoutsWhateverTheWorkingDirectory) {
  // A run started outside any git repository records the id of the
  // checkout it was built from, not "unknown" and not its working
  // directory's.
  const study::StudyDefinition* def =
      study::StudyRegistry::instance().find("fig1_efficiency_a32");
  ASSERT_NE(def, nullptr);
  const std::string dir = temp_path("ledger_build_id_cwd");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_EQ(first_line_of("git -C '" + dir + "' rev-parse --git-dir 2>/dev/null"), "")
      << dir << " lies inside a git repository";
  const std::string checkout =
      first_line_of("git -C '" XRES_TEST_DATA_DIR "' describe --always --dirty 2>/dev/null");

  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  const LedgeredRun run = run_ledgered(*def, 1, dir + "/ledger.jsonl");
  std::filesystem::current_path(cwd);
  ASSERT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.record.build, study::build_describe());
  if (checkout.empty()) {
    EXPECT_FALSE(run.record.build.empty());  // no git here: nothing to match
  } else {
    EXPECT_EQ(commit_part(run.record.build), commit_part(checkout));
  }
}

}  // namespace
}  // namespace xres
