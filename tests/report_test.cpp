// Tests for markdown study reports and the Table markdown renderer, plus
// randomized cross-checks of the event queue against a reference model
// and a workload-engine accounting fuzz.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "core/report.hpp"
#include "core/workload_engine.hpp"
#include "sim/event_queue.hpp"
#include "util/check.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

namespace xres {
namespace {

TEST(TableMarkdown, RendersPipesAndEscapes) {
  Table t{{"name", "value"}};
  t.add_row({"plain", "1"});
  t.add_row({"with|pipe", "2"});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| name | value |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
  EXPECT_NE(md.find("with\\|pipe"), std::string::npos);
}

TEST(StudyReport, MarkdownStructure) {
  StudyReport report{"Figure X: a study"};
  report.add_config("machine", "120000 nodes");
  report.add_config("trials", "200");
  report.add_paragraph("Some *context* for the numbers.");
  Table t{{"a", "b"}};
  t.add_row({"1", "2"});
  report.add_table("Results", std::move(t));

  const std::string md = report.to_markdown();
  EXPECT_NE(md.find("# Figure X: a study"), std::string::npos);
  EXPECT_NE(md.find("## Configuration"), std::string::npos);
  EXPECT_NE(md.find("* **machine**: 120000 nodes"), std::string::npos);
  EXPECT_NE(md.find("Some *context*"), std::string::npos);
  EXPECT_NE(md.find("## Results"), std::string::npos);
  EXPECT_NE(md.find("| a | b |"), std::string::npos);
  EXPECT_EQ(report.table_count(), 1U);
  // Configuration precedes prose precedes tables.
  EXPECT_LT(md.find("## Configuration"), md.find("Some *context*"));
  EXPECT_LT(md.find("Some *context*"), md.find("## Results"));
}

TEST(StudyReport, WriteRoundTrips) {
  StudyReport report{"t"};
  report.add_paragraph("body");
  const std::string path = "/tmp/xres_report_test.md";
  report.write(path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  ASSERT_GT(std::fread(buf, 1, sizeof buf - 1, f), 0U);
  std::fclose(f);
  EXPECT_EQ(std::string(buf).substr(0, 4), "# t\n");
  std::remove(path.c_str());
  // Unwritable targets surface as io::IoError (errno preserved) since the
  // atomic-write path moved onto the hardened util/io layer.
  EXPECT_THROW(report.write("/nonexistent/dir/report.md"), xres::io::IoError);
}

TEST(StudyReport, RejectsEmptyInputs) {
  EXPECT_THROW(StudyReport{""}, CheckError);
  StudyReport report{"t"};
  EXPECT_THROW(report.add_config("", "v"), CheckError);
}

/// Randomized differential test: EventQueue vs. a naive sorted reference.
class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzz, MatchesReferenceModel) {
  Pcg32 rng{GetParam()};
  EventQueue queue;
  // Reference: (time, seq, id) tuples, manually sorted at pop time.
  struct Ref {
    double time;
    std::uint64_t seq;
    EventId id;
  };
  std::vector<Ref> reference;
  std::uint64_t seq = 0;
  std::vector<EventId> order_popped;
  std::vector<EventId> order_expected;

  for (int step = 0; step < 3000; ++step) {
    const double p = rng.next_double();
    if (p < 0.5) {
      const double t = rng.uniform(0.0, 1000.0);
      const EventId id = queue.schedule(TimePoint::at(Duration::seconds(t)), [] {});
      reference.push_back(Ref{t, seq++, id});
    } else if (p < 0.65 && !reference.empty()) {
      const auto idx = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint32_t>(reference.size())));
      EXPECT_TRUE(queue.cancel(reference[idx].id));
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (!reference.empty()) {
      auto best = std::min_element(reference.begin(), reference.end(),
                                   [](const Ref& a, const Ref& b) {
                                     if (a.time != b.time) return a.time < b.time;
                                     return a.seq < b.seq;
                                   });
      order_expected.push_back(best->id);
      auto fired = queue.pop();
      ASSERT_TRUE(fired.has_value());
      order_popped.push_back(fired->id);
      reference.erase(best);
    }
    ASSERT_EQ(queue.size(), reference.size());
  }
  EXPECT_EQ(order_popped, order_expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz,
                         ::testing::Values(11ULL, 22ULL, 33ULL, 44ULL));

/// Workload-engine accounting fuzz: random small patterns must always
/// satisfy completed + dropped == total and the drop breakdown identity.
class WorkloadFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkloadFuzz, AccountingIdentitiesHold) {
  const std::uint64_t seed = GetParam();
  Pcg32 rng{seed};

  WorkloadConfig wconfig;
  wconfig.machine_nodes = 1000;
  wconfig.arrival_count = static_cast<std::uint32_t>(rng.uniform_int(5, 25));
  wconfig.mean_interarrival = Duration::hours(rng.uniform(0.25, 2.0));
  wconfig.size_fractions = {0.05, 0.15, 0.40};
  wconfig.baseline_hours = {1.0, 3.0, 6.0};
  const ArrivalPattern pattern = generate_pattern(wconfig, seed, 0);

  WorkloadEngineConfig config;
  config.machine = MachineSpec::testbed(1000);
  config.resilience.node_mtbf = Duration::days(rng.uniform(30.0, 720.0));
  config.scheduler = extended_schedulers()[static_cast<std::size_t>(
      rng.next_below(static_cast<std::uint32_t>(extended_schedulers().size())))];
  const auto& kinds = workload_techniques();
  config.policy = TechniquePolicy::fixed_technique(
      kinds[static_cast<std::size_t>(rng.next_below(static_cast<std::uint32_t>(kinds.size())))]);
  config.seed = seed;
  config.burst_probability = rng.bernoulli(0.5) ? 0.2 : 0.0;
  config.pfs_gateways = rng.bernoulli(0.5) ? 4U : 0U;

  const WorkloadRunResult result = run_workload(config, pattern);
  EXPECT_EQ(result.completed + result.dropped, result.total_jobs);
  EXPECT_EQ(result.dropped_before_start + result.dropped_while_running, result.dropped);
  EXPECT_GE(result.mean_utilization, 0.0);
  EXPECT_LE(result.mean_utilization, 1.0);
  EXPECT_EQ(result.completed_slowdown.count, result.completed);
  if (result.completed_slowdown.count > 0) {
    EXPECT_GE(result.completed_slowdown.min, 1.0 - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadFuzz,
                         ::testing::Range(std::uint64_t{100}, std::uint64_t{112}));

}  // namespace
}  // namespace xres
