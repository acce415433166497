/**
 * @file
 * End-to-end check of scripts/analyze_stats.py: the analyzer must run
 * clean over the real src/ tree and the stat map it emits must be a
 * well-formed garibaldi-stat-map-v1 document whose kind -> windowing /
 * merge projection matches src/common/stat_kind.cc.
 *
 * The shell fixture lane (tests/lint_fixtures/stats/) pins the
 * analyzer's *rules*; this test pins the *map artifact* that ci.sh
 * archives into BENCH_correctness.json, parsing it with the same
 * JsonValue parser the sweep engine trusts.
 *
 * Needs REPO_ROOT in the environment (ctest sets it); skips when the
 * analyzer cannot run (no python3).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "common/json.hh"

using garibaldi::JsonValue;

namespace
{

const char *
repoRoot()
{
    return std::getenv("REPO_ROOT");
}

bool
havePython()
{
    return std::system("python3 -c 'import sys' >/dev/null 2>&1") == 0;
}

/// The kind vocabulary of src/common/stat_kind.hh and the windowing /
/// merge projection of stat_kind.cc.  The analyzer mirrors this table
/// in python; this test keeps the two mirrors honest.
const std::map<std::string, std::pair<std::string, std::string>> &
kindContract()
{
    static const std::map<std::string,
                          std::pair<std::string, std::string>> table = {
        {"counter", {"subtract", "sum"}},
        {"rate", {"recompute", "recompute"}},
        {"gauge", {"keep-last", "last"}},
        {"quantile", {"keep-last", "recompute"}},
        {"histogram_summary", {"keep-last", "recompute"}},
    };
    return table;
}

class StatMapTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (repoRoot() == nullptr)
            GTEST_SKIP() << "REPO_ROOT not set; run under ctest";
        if (!havePython())
            GTEST_SKIP() << "python3 unavailable";

        mapPath = "stat_map_test_out.json";
        std::string cmd = std::string("python3 '") + repoRoot() +
                          "/scripts/analyze_stats.py' --emit '" +
                          mapPath + "' '" + repoRoot() + "/src'";
        analyzerStatus = std::system(cmd.c_str());
    }

    void
    TearDown() override
    {
        if (!mapPath.empty())
            std::remove(mapPath.c_str());
    }

    JsonValue
    loadMap() const
    {
        std::ifstream in(mapPath);
        EXPECT_TRUE(in.good()) << "--emit produced no map at " << mapPath;
        std::ostringstream ss;
        ss << in.rdbuf();
        return JsonValue::parse(ss.str());
    }

    std::string mapPath;
    int analyzerStatus = -1;
};

TEST_F(StatMapTest, SrcTreeIsFindingFree)
{
    EXPECT_EQ(analyzerStatus, 0)
        << "analyze_stats.py reported findings over src/";
}

TEST_F(StatMapTest, MapSchemaAndKindContract)
{
    ASSERT_EQ(analyzerStatus, 0);
    JsonValue doc = loadMap();

    ASSERT_TRUE(doc.has("schema"));
    EXPECT_EQ(doc.get("schema").asString(), "garibaldi-stat-map-v1");

    // The quantile suffix set is part of the contract: metrics.cc's
    // fallback for undeclared names and the analyzer's suffix-kind
    // rule both key off it.
    ASSERT_TRUE(doc.has("quantile_suffixes"));
    const JsonValue &suffixes = doc.get("quantile_suffixes");
    ASSERT_EQ(suffixes.size(), 4u);
    std::set<std::string> got;
    for (std::size_t i = 0; i < suffixes.size(); ++i)
        got.insert(suffixes.at(i).asString());
    EXPECT_EQ(got, (std::set<std::string>{"_p50", "_p90", "_p95",
                                          "_p99"}));

    ASSERT_TRUE(doc.has("stats"));
    const JsonValue &stats = doc.get("stats");
    std::size_t n = 0;
    for (const auto &kv : stats.members()) {
        ++n;
        const JsonValue &st = kv.second;
        ASSERT_TRUE(st.has("kind")) << kv.first;
        ASSERT_TRUE(st.has("window")) << kv.first;
        ASSERT_TRUE(st.has("merge")) << kv.first;
        ASSERT_TRUE(st.has("producers")) << kv.first;
        ASSERT_TRUE(st.has("file")) << kv.first;
        const std::string &kind = st.get("kind").asString();
        auto it = kindContract().find(kind);
        ASSERT_NE(it, kindContract().end())
            << kv.first << " has unknown kind '" << kind << "'";
        EXPECT_EQ(st.get("window").asString(), it->second.first)
            << kv.first;
        EXPECT_EQ(st.get("merge").asString(), it->second.second)
            << kv.first;
        if (kind == "rate") {
            ASSERT_TRUE(st.has("num")) << kv.first;
            ASSERT_TRUE(st.has("den")) << kv.first;
        }
        EXPECT_GT(st.get("producers").members().size(), 0u)
            << kv.first << " has no producer";
    }
    // The contract is not an empty shell; a parser regression that
    // silently drops declaration blocks must fail loudly here.
    EXPECT_GE(n, 100u);
}

TEST_F(StatMapTest, SpotChecksAndFullCoverage)
{
    ASSERT_EQ(analyzerStatus, 0);
    JsonValue doc = loadMap();
    const JsonValue &stats = doc.get("stats");

    // Spot-check one stat of each kind, including its gate where the
    // declaration carries one.
    ASSERT_TRUE(stats.has("helper.hits"));
    EXPECT_EQ(stats.get("helper.hits").get("kind").asString(), "counter");
    EXPECT_EQ(stats.get("helper.hits")
                  .get("producers").get("Garibaldi").asString(),
              "helpers");

    ASSERT_TRUE(stats.has("row_hit_rate"));
    EXPECT_EQ(stats.get("row_hit_rate").get("kind").asString(),
              "rate");
    EXPECT_EQ(stats.get("row_hit_rate").get("num").asString(),
              "row_hits");
    EXPECT_EQ(stats.get("row_hit_rate").get("den").asString(),
              "row_accesses");

    ASSERT_TRUE(stats.has("threshold"));
    EXPECT_EQ(stats.get("threshold").get("kind").asString(), "gauge");

    ASSERT_TRUE(stats.has("instr_distance_p90"));
    EXPECT_EQ(stats.get("instr_distance_p90").get("kind").asString(),
              "quantile");

    ASSERT_TRUE(stats.has("instr_mean_distance"));
    EXPECT_EQ(stats.get("instr_mean_distance").get("kind").asString(),
              "histogram_summary");

    // Every StatSet::add site in src/ matched a declaration: the
    // coverage counters are the analyzer's own audit of that claim.
    ASSERT_TRUE(doc.has("coverage"));
    const JsonValue &cov = doc.get("coverage");
    ASSERT_TRUE(cov.has("add_sites"));
    ASSERT_TRUE(cov.has("matched_sites"));
    EXPECT_GT(cov.get("add_sites").asNumber(), 0.0);
    EXPECT_EQ(cov.get("add_sites").asNumber(),
              cov.get("matched_sites").asNumber());

    // Every waiver carries a justification (the analyzer rejects bare
    // allows, so this is belt-and-braces on the archived artifact).
    ASSERT_TRUE(doc.has("waivers"));
    const JsonValue &waivers = doc.get("waivers");
    for (std::size_t i = 0; i < waivers.size(); ++i) {
        const JsonValue &w = waivers.at(i);
        ASSERT_TRUE(w.has("justification"));
        EXPECT_FALSE(w.get("justification").asString().empty());
    }
}

} // namespace
