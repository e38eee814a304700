// Tests for runtime-defined studies: the TOML reader, spec parsing and
// materialization, the schema JSON round-trip, the sweep planner's grid
// semantics, and the end-to-end contracts — a spec-defined study produces
// byte-identical artifacts to its compiled-in base, and a sweep manifest is
// byte-identical for every --threads value.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "recovery/json_parse.hpp"
#include "study/capture.hpp"
#include "study/options.hpp"
#include "study/registry.hpp"
#include "study/spec.hpp"
#include "study/study_main.hpp"
#include "study/suite.hpp"
#include "study/sweep.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/toml.hpp"

namespace xres::study {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out{path, std::ios::binary};
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

// ---------------------------------------------------------------- TOML --

TEST(Toml, ParsesTablesKeysAndScalarKinds) {
  const util::TomlDocument doc = util::TomlDocument::parse(
      "# spec header comment\n"
      "[study]\n"
      "name = \"eff\"  # trailing comment\n"
      "base = 'efficiency'\n"
      "seed = 7\n"
      "share = 0.25\n"
      "fast = true\n"
      "\"quoted key\" = \"v\"\n");
  const util::TomlTable* study = doc.find("study");
  ASSERT_NE(study, nullptr);
  EXPECT_EQ(study->entries.size(), 6u);
  EXPECT_EQ(study->find("name")->value.kind, util::TomlValue::Kind::kString);
  EXPECT_EQ(study->find("name")->value.text, "eff");
  EXPECT_EQ(study->find("base")->value.text, "efficiency");
  EXPECT_EQ(study->find("seed")->value.kind, util::TomlValue::Kind::kInteger);
  EXPECT_EQ(study->find("seed")->value.text, "7");
  EXPECT_EQ(study->find("share")->value.kind, util::TomlValue::Kind::kFloat);
  EXPECT_EQ(study->find("share")->value.text, "0.25");
  EXPECT_EQ(study->find("fast")->value.kind, util::TomlValue::Kind::kBool);
  EXPECT_NE(study->find("quoted key"), nullptr);
}

TEST(Toml, RawNumberTextIsPreserved) {
  // The schema machinery stores raw value text; "2.50" must not become
  // "2.5" on the way through the parser.
  const util::TomlDocument doc =
      util::TomlDocument::parse("[params]\nmtbf = 2.50\nbig = 1e9\nneg = -3\n");
  const util::TomlTable* params = doc.find("params");
  ASSERT_NE(params, nullptr);
  EXPECT_EQ(params->find("mtbf")->value.text, "2.50");
  EXPECT_EQ(params->find("big")->value.text, "1e9");
  EXPECT_EQ(params->find("neg")->value.text, "-3");
}

TEST(Toml, ArraysSpanLinesAndNest) {
  const util::TomlDocument doc = util::TomlDocument::parse(
      "[sweep]\n"
      "trials = [10, 20,\n"
      "          40]  # continued\n"
      "mixed = [\"a\", 'b']\n"
      "empty = []\n");
  const util::TomlTable* sweep = doc.find("sweep");
  ASSERT_NE(sweep, nullptr);
  const util::TomlValue& trials = sweep->find("trials")->value;
  ASSERT_EQ(trials.kind, util::TomlValue::Kind::kArray);
  ASSERT_EQ(trials.items.size(), 3u);
  EXPECT_EQ(trials.items[2].text, "40");
  EXPECT_EQ(sweep->find("mixed")->value.items.size(), 2u);
  EXPECT_TRUE(sweep->find("empty")->value.items.empty());
}

TEST(Toml, StringEscapes) {
  const util::TomlDocument doc = util::TomlDocument::parse(
      "a = \"tab\\there\"\nb = \"quote \\\" done\"\nc = 'no \\escape'\n");
  const util::TomlTable* root = doc.find("");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->find("a")->value.text, "tab\there");
  EXPECT_EQ(root->find("b")->value.text, "quote \" done");
  EXPECT_EQ(root->find("c")->value.text, "no \\escape");
}

TEST(Toml, ErrorsCarryLineNumbers) {
  const auto expect_error = [](const char* text, const char* needle) {
    try {
      (void)util::TomlDocument::parse(text);
      FAIL() << "expected TomlParseError for: " << text;
    } catch (const util::TomlParseError& e) {
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
          << e.what() << " should mention " << needle;
    }
  };
  expect_error("a = 1\na = 2\n", "line 2");
  expect_error("a = 1\na = 2\n", "duplicate key 'a'");
  expect_error("[t]\n[t]\n", "duplicate table [t]");
  expect_error("a = \"unterminated\n", "unterminated string");
  expect_error("a = 12x\n", "bad value");
  expect_error("a = [1, 2\n\n", "unterminated array");
  expect_error("a.b = 1\n", "dotted keys");
  expect_error("a = 1 stray\n", "line 1");
  expect_error("a 1\n", "expected '='");
}

// ---------------------------------------------------------------- spec --

constexpr const char* kSpecToml =
    "[study]\n"
    "name = \"eff_a32\"\n"
    "base = \"efficiency\"\n"
    "description = \"A32 variant\"\n"
    "seed = 11\n"
    "\n"
    "[params]\n"
    "type = \"A32\"\n"
    "trials = 3\n"
    "\n"
    "[sweep]\n"
    "mtbf-years = [5, 10]\n";

constexpr const char* kSpecJson =
    "{\"study\": {\"name\": \"eff_a32\", \"base\": \"efficiency\","
    " \"description\": \"A32 variant\", \"seed\": 11},"
    " \"params\": {\"type\": \"A32\", \"trials\": 3},"
    " \"sweep\": {\"mtbf-years\": [5, 10]}}";

void expect_spec_contents(const StudySpec& spec) {
  EXPECT_EQ(spec.name, "eff_a32");
  EXPECT_EQ(spec.base, "efficiency");
  EXPECT_EQ(spec.description, "A32 variant");
  ASSERT_TRUE(spec.seed.has_value());
  EXPECT_EQ(*spec.seed, 11u);
  ASSERT_EQ(spec.params.size(), 2u);
  EXPECT_EQ(spec.params[0].first, "type");
  EXPECT_EQ(spec.params[0].second, "A32");
  EXPECT_EQ(spec.params[1].second, "3");
  ASSERT_EQ(spec.sweep.size(), 1u);
  EXPECT_EQ(spec.sweep[0].key, "mtbf-years");
  EXPECT_EQ(spec.sweep[0].values, (std::vector<std::string>{"5", "10"}));
}

TEST(StudySpecParse, TomlAndJsonAgree) {
  expect_spec_contents(parse_spec_toml(kSpecToml));
  expect_spec_contents(parse_spec_json(kSpecJson));
}

TEST(StudySpecParse, RejectsUnknownKeysNamingThem) {
  const auto expect_check = [](const auto& fn, const char* needle) {
    try {
      (void)fn();
      FAIL() << "expected CheckError mentioning " << needle;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos) << e.what();
    }
  };
  expect_check([] { return parse_spec_toml("[study]\nname=\"x\"\nbase=\"y\"\nbogus=1\n"); },
               "unknown [study] key 'bogus'");
  expect_check([] { return parse_spec_toml("[study]\nname=\"x\"\nbase=\"y\"\n[extra]\n"); },
               "unknown section [extra]");
  expect_check([] { return parse_spec_toml("name = \"x\"\n"); },
               "outside a section");
  expect_check([] { return parse_spec_toml("[study]\nbase=\"y\"\n"); }, "'name'");
  expect_check([] { return parse_spec_toml("[study]\nname=\"x\"\n"); }, "'base'");
  expect_check([] { return parse_spec_toml(
                        "[study]\nname=\"x\"\nbase=\"y\"\n[params]\nt=[1,2]\n"); },
               "use [sweep]");
  expect_check([] { return parse_spec_json("{\"bogus\": 1}"); },
               "unknown top-level key 'bogus'");
}

TEST(StudySpecMaterialize, DerivesFromBaseWithNewDefaults) {
  const LoadedStudy loaded = materialize_spec(parse_spec_toml(kSpecToml));
  ASSERT_NE(loaded.def, nullptr);
  const StudyDefinition& def = *loaded.def;
  const StudyDefinition* base = StudyRegistry::instance().find("efficiency");
  ASSERT_NE(base, nullptr);

  EXPECT_EQ(def.name, "eff_a32");
  EXPECT_EQ(def.group, base->group);
  EXPECT_EQ(def.description, "A32 variant");
  EXPECT_EQ(def.journal_study(), "eff_a32");
  EXPECT_EQ(def.options.default_seed, 11u);
  EXPECT_EQ(def.params.size(), base->params.size());
  EXPECT_EQ(def.params.find("type")->default_value, "A32");
  EXPECT_EQ(def.params.find("trials")->default_value, "3");
  // Untouched params keep the base defaults.
  EXPECT_EQ(def.params.find("baseline-hours")->default_value,
            base->params.find("baseline-hours")->default_value);
  ASSERT_EQ(loaded.sweep.size(), 1u);
  EXPECT_EQ(loaded.sweep[0].key, "mtbf-years");
}

TEST(StudySpecMaterialize, RejectsBadSpecs) {
  const auto expect_check = [](const char* toml, const char* needle) {
    try {
      (void)materialize_spec(parse_spec_toml(toml));
      FAIL() << "expected CheckError mentioning " << needle;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos) << e.what();
    }
  };
  expect_check("[study]\nname=\"x\"\nbase=\"no_such_study\"\n",
               "unknown base study 'no_such_study'");
  expect_check("[study]\nname=\"bad/name\"\nbase=\"efficiency\"\n", "study name");
  expect_check("[study]\nname=\"x\"\nbase=\"efficiency\"\n[params]\nbogus=1\n",
               "unknown parameter 'bogus'");
  expect_check("[study]\nname=\"x\"\nbase=\"efficiency\"\n[params]\ntrials=0\n",
               "below its minimum");
  expect_check("[study]\nname=\"x\"\nbase=\"efficiency\"\n[sweep]\nbogus=[1]\n",
               "unknown sweep axis 'bogus'");
  expect_check("[study]\nname=\"x\"\nbase=\"efficiency\"\n[sweep]\ntrials=[0]\n",
               "below its minimum");
}

TEST(StudySpecLoad, FileErrorsArePathPrefixed) {
  const std::string dir = ::testing::TempDir();
  const std::string bad_ext = dir + "spec_test_bad_ext.txt";
  write_file(bad_ext, "[study]\n");
  const std::string bad_toml = dir + "spec_test_bad.toml";
  write_file(bad_toml, "[study\n");

  for (const auto& [path, needle] :
       std::vector<std::pair<std::string, std::string>>{
           {dir + "spec_test_missing.toml", "cannot read"},
           {bad_ext, ".toml or .json"},
           {bad_toml, "line 1"}}) {
    try {
      (void)load_study_from_file(path);
      FAIL() << "expected CheckError for " << path;
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  }
}

// ---------------------------------------------------- schema round-trip --

ParamSchema random_schema(Pcg32& rng) {
  ParamSchema schema;
  const int count = static_cast<int>(rng.next_below(6));
  for (int i = 0; i < count; ++i) {
    ParamSpec spec;
    spec.key = "p" + std::to_string(i);
    spec.help = "help " + std::to_string(rng.next_u32() % 1000);
    switch (rng.next_below(3)) {
      case 0: {
        spec.type = ParamSpec::Type::kInt;
        const std::int64_t v = rng.uniform_int(-1000, 1000);
        spec.default_value = std::to_string(v);
        if (rng.next_below(2) != 0) spec.min_value = static_cast<double>(v - 10);
        if (rng.next_below(2) != 0) spec.max_value = static_cast<double>(v + 10);
        break;
      }
      case 1: {
        spec.type = ParamSpec::Type::kReal;
        const double v = rng.uniform(-100.0, 100.0);
        spec.default_value = format_real(v);
        if (rng.next_below(2) != 0) spec.min_value = v - 1.0;
        if (rng.next_below(2) != 0) spec.max_value = v + 1.0;
        break;
      }
      default:
        spec.type = ParamSpec::Type::kString;
        spec.default_value = "v\"" + std::to_string(rng.next_u32() % 100);
        break;
    }
    schema.add(std::move(spec));
  }
  return schema;
}

TEST(SchemaJson, RandomSchemasRoundTrip) {
  Pcg32 rng{20170529};
  for (int trial = 0; trial < 200; ++trial) {
    const ParamSchema schema = random_schema(rng);
    obs::JsonWriter w;
    write_schema_json(w, schema);
    const ParamSchema back = schema_from_json(recovery::parse_json(w.str()));

    ASSERT_EQ(back.size(), schema.size()) << w.str();
    for (std::size_t i = 0; i < schema.size(); ++i) {
      const ParamSpec& a = schema.specs()[i];
      const ParamSpec& b = back.specs()[i];
      EXPECT_EQ(a.key, b.key);
      EXPECT_EQ(a.type, b.type);
      EXPECT_EQ(a.help, b.help);
      EXPECT_EQ(a.default_value, b.default_value);
      EXPECT_EQ(a.min_value, b.min_value);
      EXPECT_EQ(a.max_value, b.max_value);
    }
    // Serializing the round-tripped schema reproduces the bytes.
    obs::JsonWriter w2;
    write_schema_json(w2, back);
    EXPECT_EQ(w.str(), w2.str());
  }
}

TEST(SchemaJson, EveryRegisteredSchemaRoundTrips) {
  for (const StudyDefinition* def : StudyRegistry::instance().all()) {
    obs::JsonWriter w;
    write_schema_json(w, def->params);
    const ParamSchema back = schema_from_json(recovery::parse_json(w.str()));
    obs::JsonWriter w2;
    write_schema_json(w2, back);
    EXPECT_EQ(w.str(), w2.str()) << def->name;
  }
}

TEST(SchemaJson, DescribeAndCatalogAreValidJson) {
  const StudyDefinition* def = StudyRegistry::instance().find("efficiency");
  ASSERT_NE(def, nullptr);
  const recovery::JsonValue describe =
      recovery::parse_json(describe_study_json(*def));
  EXPECT_EQ(describe.at("study").as_string(), "efficiency");
  EXPECT_EQ(describe.at("params").as_array().size(), def->params.size());

  const recovery::JsonValue catalog = recovery::parse_json(catalog_json());
  EXPECT_EQ(catalog.at("studies").as_array().size(),
            StudyRegistry::instance().size());
}

// --------------------------------------------------------------- sweep --

TEST(SweepPlan, CrossProductOrderIsDeclarationOrderLastAxisFastest) {
  const StudyDefinition* def = StudyRegistry::instance().find("efficiency");
  ASSERT_NE(def, nullptr);
  const SweepPlan plan = plan_sweep(
      *def, {SweepAxis{"type", {"A32", "C64"}}, SweepAxis{"mtbf-years", {"5", "10"}}},
      {{"trials", "2"}});
  ASSERT_EQ(plan.points.size(), 4u);
  EXPECT_EQ(plan.points[0].name, "efficiency__type=A32__mtbf-years=5");
  EXPECT_EQ(plan.points[1].name, "efficiency__type=A32__mtbf-years=10");
  EXPECT_EQ(plan.points[2].name, "efficiency__type=C64__mtbf-years=5");
  EXPECT_EQ(plan.points[3].name, "efficiency__type=C64__mtbf-years=10");
  for (const SweepPoint& point : plan.points) {
    ASSERT_EQ(point.bindings.size(), 3u);
    EXPECT_EQ(point.bindings[0].first, "trials");  // base bindings first
  }
}

TEST(SweepPlan, ParseAxisAndValidation) {
  const SweepAxis axis = parse_axis("mtbf-years=1,2.5,5,10");
  EXPECT_EQ(axis.key, "mtbf-years");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"1", "2.5", "5", "10"}));

  EXPECT_THROW((void)parse_axis("noequals"), CheckError);
  EXPECT_THROW((void)parse_axis("=1,2"), CheckError);
  EXPECT_THROW((void)parse_axis("k=1,,2"), CheckError);
  EXPECT_THROW((void)parse_axis("k=1,1"), CheckError);

  const StudyDefinition* def = StudyRegistry::instance().find("efficiency");
  ASSERT_NE(def, nullptr);
  EXPECT_THROW((void)plan_sweep(*def, {}), CheckError);
  EXPECT_THROW((void)plan_sweep(*def, {SweepAxis{"bogus", {"1"}}}), CheckError);
  EXPECT_THROW((void)plan_sweep(*def, {SweepAxis{"trials", {"1"}},
                                       SweepAxis{"trials", {"2"}}}),
               CheckError);
  EXPECT_THROW((void)plan_sweep(*def, {SweepAxis{"trials", {"0"}}}), CheckError);
  EXPECT_THROW((void)plan_sweep(*def, {SweepAxis{"trials", {"1"}}},
                                {{"bogus", "1"}}),
               CheckError);
}

// ------------------------------------------------------- e2e contracts --

/// A throwaway output directory under the gtest temp dir, wiped of any
/// state a previous test-binary run left behind.
std::string fresh_dir(const std::string& label) {
  const std::string dir = ::testing::TempDir() + "spec_test_" + label;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(SpecEndToEnd, SpecDefinedStudyMatchesCompiledInByteForByte) {
  // The acceptance contract: `--from spec` and the equivalent compiled-in
  // invocation produce byte-identical artifacts.
  const StudyDefinition* base = StudyRegistry::instance().find("efficiency");
  ASSERT_NE(base, nullptr);
  const LoadedStudy loaded = materialize_spec(parse_spec_toml(
      "[study]\nname = \"eff_spec\"\nbase = \"efficiency\"\n"
      "[params]\ntrials = 1\ntype = \"A32\"\n"));

  const auto run_captured = [](const StudyDefinition& def, ParamSet params,
                               const std::string& out_path) {
    HarnessOptions options = default_harness_options(def);
    options.threads = 2;
    options.ledger_path.clear();  // a test run is not a run worth recording
    set_status_stream(stderr);
    int rc = -1;
    {
      StdoutCapture capture{out_path};
      rc = run_study(def, std::move(params), options);
      capture.finish();
    }
    set_status_stream(stdout);
    ASSERT_EQ(rc, 0);
  };

  const std::string dir = ::testing::TempDir();
  run_captured(*loaded.def, ParamSet{*loaded.def}, dir + "spec_defined.txt");
  ParamSet compiled_params{*base};
  compiled_params.set("trials", "1");
  compiled_params.set("type", "A32");
  run_captured(*base, std::move(compiled_params), dir + "compiled_in.txt");

  const std::string spec_bytes = read_file(dir + "spec_defined.txt");
  ASSERT_FALSE(spec_bytes.empty());
  EXPECT_EQ(spec_bytes, read_file(dir + "compiled_in.txt"));
}

TEST(SpecEndToEnd, SweepManifestIsThreadsInvariant) {
  const StudyDefinition* def = StudyRegistry::instance().find("efficiency");
  ASSERT_NE(def, nullptr);
  const SweepPlan plan = plan_sweep(*def, {SweepAxis{"type", {"A32", "C64"}}},
                                    {{"trials", "1"}});

  const auto run_with_threads = [&](unsigned threads, const std::string& label) {
    SuiteOptions options;
    options.out_dir = fresh_dir(label);
    options.threads = threads;
    // A sweep records itself in ./results/ledger.jsonl: run it from a
    // scratch directory so the test leaves the working directory's ledger
    // alone.
    const std::filesystem::path cwd = std::filesystem::current_path();
    const std::string scratch = fresh_dir(label + "_cwd");
    std::filesystem::create_directories(scratch);
    std::filesystem::current_path(scratch);
    EXPECT_EQ(run_sweep(plan, options), 0);
    std::filesystem::current_path(cwd);
    return options.out_dir;
  };
  const std::string one = run_with_threads(1, "sweep_t1");
  const std::string four = run_with_threads(4, "sweep_t4");

  const std::string manifest_one = read_file(one + "/manifest.json");
  ASSERT_FALSE(manifest_one.empty());
  EXPECT_EQ(manifest_one, read_file(four + "/manifest.json"));
  for (const char* cell : {"efficiency__type=A32", "efficiency__type=C64"}) {
    const std::string txt_one = read_file(one + "/" + cell + ".txt");
    ASSERT_FALSE(txt_one.empty()) << cell;
    EXPECT_EQ(txt_one, read_file(four + "/" + cell + ".txt")) << cell;
  }
  EXPECT_EQ(verify_suite(one), 0);
  EXPECT_EQ(verify_suite(four), 0);
}

}  // namespace
}  // namespace xres::study
