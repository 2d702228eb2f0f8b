// Tests of the benchmark's helpers (bench_util.h, fleet.h).
//
//   python3 perfbench/run.py --self-test

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "fleet.h"

namespace perfbench {
namespace {

using fedgta::fed::RoundStats;
using fedgta::fed::RunResult;

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(TailPercentileTest, KeepsTenSamplesBeyond) {
  const Tail t = TailPercentile(Range(100), 10);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.beyond, 10);
  EXPECT_EQ(t.samples, 100);

  const Tail t60 = TailPercentile(Range(60), 10);
  EXPECT_EQ(t60.value, 50.0);
  EXPECT_EQ(t60.beyond, 10);
  EXPECT_NEAR(t60.percentile, 83.333, 1e-3);
}

TEST(TailPercentileTest, NeverDropsBelowTheMedian) {
  // 21 samples: rank 11 is the median and has exactly 10 above it.
  const Tail t21 = TailPercentile(Range(21), 10);
  EXPECT_EQ(t21.value, 11.0);
  EXPECT_EQ(t21.beyond, 10);
  // Fewer: no rank keeps 10 above it without dropping below the (upper)
  // median, so the tail is that median and reports how many lie above.
  const Tail t20 = TailPercentile(Range(20), 10);
  EXPECT_EQ(t20.value, 11.0);
  EXPECT_EQ(t20.beyond, 9);
  EXPECT_GE(t20.value, Median(Range(20)));
  const Tail t10 = TailPercentile(Range(10), 10);
  EXPECT_EQ(t10.value, 6.0);
  EXPECT_EQ(t10.beyond, 4);
  EXPECT_EQ(t10.percentile, 60.0);
  EXPECT_EQ(TailPercentile({}, 10).samples, 0);
}

TEST(TailPercentileTest, OrderDoesNotMatter) {
  std::vector<double> v = Range(40);
  std::vector<double> shuffled(v.rbegin(), v.rend());
  EXPECT_EQ(TailPercentile(v).value, TailPercentile(shuffled).value);
  EXPECT_EQ(Median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"root", 0, 100, -1},
      {"a", 10, 40, 0},
      {"b", 30, 50, 0},    // overlaps a (another thread)
      {"c", 90, 130, 0},   // runs past the parent: clipped
      {"grandchild", 12, 20, 1},
  };
  EXPECT_EQ(SelfMicros(spans, 0), 100 - (50 - 10) - (100 - 90));
  EXPECT_EQ(SelfMicros(spans, 1), 30 - 8);
  EXPECT_EQ(SelfMicros(spans, 4), 8);
  EXPECT_EQ(UnionMicros({{0, 10}, {5, 15}, {20, 25}}, 0, 100), 20);
  EXPECT_EQ(UnionMicros({{0, 10}}, 5, 7), 2);
}

TEST(SpanTest, RoundLayersSumToThePeriod) {
  // Two rounds; round 1 has two overlapping clients (pool threads), an
  // aggregate, and evaluation until round 2 starts at 1000.
  const std::vector<int64_t> starts = {100, 1000};
  std::vector<Span> recorded;
  recorded.push_back({"data.build", 0, 50, -1});
  recorded.push_back({"fed.client", 120, 400, -1});
  recorded.push_back({"gnn.train", 120, 300, 1});
  recorded.push_back({"core.client_metrics", 300, 400, 1});
  recorded.push_back({"fed.client", 130, 500, -1});
  recorded.push_back({"gnn.train", 130, 450, 4});
  recorded.push_back({"core.client_metrics", 450, 500, 4});
  recorded.push_back({"core.aggregate", 520, 600, -1});
  recorded.push_back({"fed.client", 1010, 1200, -1});
  recorded.push_back({"core.aggregate", 1210, 1250, -1});
  const std::vector<Span> tree = BuildRoundTree(starts, 1400, recorded);
  const std::vector<RoundLayers> layers = AttributeRounds(tree);
  ASSERT_EQ(layers.size(), 2u);

  const RoundLayers& r1 = layers[0];
  EXPECT_DOUBLE_EQ(r1.period, 900e-6);
  EXPECT_DOUBLE_EQ(r1.client_phase, (500 - 120) * 1e-6);
  EXPECT_DOUBLE_EQ(r1.aggregate, 80e-6);
  EXPECT_DOUBLE_EQ(r1.eval, (1000 - 600) * 1e-6);
  // Unclaimed: 100..120 before the first client and 500..520 between the
  // client phase and the aggregate.
  EXPECT_DOUBLE_EQ(r1.other, 40e-6);
  EXPECT_NEAR(r1.client_phase + r1.aggregate + r1.eval + r1.other, r1.period,
              1e-12);
  EXPECT_DOUBLE_EQ(r1.client_sum, (280 + 370) * 1e-6);
  EXPECT_DOUBLE_EQ(r1.train_sum, (180 + 320) * 1e-6);
  EXPECT_DOUBLE_EQ(r1.metrics_sum, (100 + 50) * 1e-6);

  const RoundLayers& r2 = layers[1];
  EXPECT_DOUBLE_EQ(r2.period, 400e-6);
  EXPECT_DOUBLE_EQ(r2.eval, (1400 - 1250) * 1e-6);
  EXPECT_NEAR(r2.client_phase + r2.aggregate + r2.eval + r2.other, r2.period,
              1e-12);
  EXPECT_EQ(r2.train_sum, 0.0);

  // Set-up spans stay outside every round.
  for (const Span& s : tree) {
    if (s.name == "data.build") {
      EXPECT_EQ(s.parent, -1);
    }
  }
}

TEST(ProcTest, ParsesStatWithAwkwardCommandNames) {
  // utime=250 stime=50; the command holds spaces and parens.
  const std::string line =
      "4242 (fedgta) (x y)) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 "
      "20 0 5 0 100 123456789 1234 18446744073709551615";
  int64_t ticks = 0;
  ASSERT_TRUE(ParseProcCpuTicks(line, &ticks));
  EXPECT_EQ(ticks, 300);
  EXPECT_FALSE(ParseProcCpuTicks("garbage", &ticks));
  EXPECT_FALSE(ParseProcCpuTicks("1 (x) S 1 2", &ticks));

  EXPECT_EQ(ParseVmHwmKb("Name:\tx\nVmPeak:\t 900 kB\nVmHWM:\t  512 kB\n"),
            512);
  EXPECT_EQ(ParseVmHwmKb("Name:\tx\nState:\tZ (zombie)\n"), -1);
}

TEST(ProcTest, ReadsThisProcess) {
  const std::vector<ProcSource> sources = {
      {"coord", "/proc/self/stat", "/proc/self/status"},
      {"worker", "/proc/999999999/stat", "/proc/999999999/status"}};
  const ProcSample s = ReadSample(sources, 3);
  EXPECT_EQ(s.round, 3);
  ASSERT_EQ(s.cpu_s.size(), 2u);
  EXPECT_GE(s.cpu_s[0], 0.0);
  EXPECT_GT(s.peak_kb[0], 0);
  EXPECT_LT(s.cpu_s[1], 0.0);
  EXPECT_EQ(s.peak_kb[1], -1);
}

TEST(ProcTest, PerRoundCpuDeltas) {
  // Three processes sampled at 4 boundaries (3 intervals). Process 2 is
  // spawned late (unreadable at first) and process 1 exits before the last
  // sample (unreadable there): gaps carry the last value.
  const std::vector<std::vector<double>> samples = {
      {1.0, 10.0, -1.0},
      {2.0, 12.0, 0.5},
      {4.0, 15.0, 1.5},
      {4.5, -1.0, 2.0},
  };
  const std::vector<double> coord = IntervalCpu(samples, {0});
  ASSERT_EQ(coord.size(), 3u);
  EXPECT_DOUBLE_EQ(coord[0], 1.0);
  EXPECT_DOUBLE_EQ(coord[1], 2.0);
  EXPECT_DOUBLE_EQ(coord[2], 0.5);
  const std::vector<double> others = IntervalCpu(samples, {1, 2});
  EXPECT_DOUBLE_EQ(others[0], 2.0 + 0.5);
  EXPECT_DOUBLE_EQ(others[1], 3.0 + 1.0);
  EXPECT_DOUBLE_EQ(others[2], 0.0 + 0.5);
  // Rows shorter than the member index (sources added mid-run) count as
  // unreadable.
  EXPECT_EQ(IntervalCpu({{1.0}, {2.0, 7.0}}, {1}).front(), 7.0);
  EXPECT_TRUE(IntervalCpu({{1.0}}, {0}).empty());
}

RunResult SampleResult() {
  RunResult r;
  for (int i = 1; i <= 3; ++i) {
    RoundStats s;
    s.round = i;
    s.test_accuracy = 0.1 * i + 1.0 / 3.0;
    s.val_accuracy = 0.2 * i;
    s.train_loss = 1.0 / (i + 7);
    s.upload_floats = 1000 * i;
    s.download_floats = 900 * i;
    s.client_seconds = 0.5 * i;  // wall clock: not compared
    r.curve.push_back(s);
  }
  r.best_test_accuracy = r.curve[2].test_accuracy;
  r.final_test_accuracy = r.curve[2].test_accuracy;
  r.total_upload_floats = 6000;
  r.total_download_floats = 5400;
  r.setup_seconds = 1.25;
  return r;
}

TEST(ResultWiringTest, EncodingRoundTripsBitExactly) {
  const RunResult r = SampleResult();
  RunResult back;
  ASSERT_TRUE(DecodeResult(EncodeResult(r), &back));
  EXPECT_EQ(CompareResults("round trip", r, back), "");
  EXPECT_EQ(back.final_test_accuracy, r.final_test_accuracy);
  EXPECT_FALSE(DecodeResult("accuracy 0x1p-1\n", &back));
  EXPECT_FALSE(DecodeResult("bogus\n", &back));
}

TEST(ResultWiringTest, FlatVersusHierUsesDeterministicEquals) {
  // A flat and a hierarchical result of the same inputs: wall-clock fields
  // may differ, every deterministic field must not.
  const RunResult flat = SampleResult();
  RunResult hier = SampleResult();
  hier.setup_seconds = 9.0;
  hier.curve[1].client_seconds = 4.0;
  EXPECT_EQ(CompareResults("products-hier vs products-flat", flat, hier), "");

  // One ulp of one round's accuracy is a named failure.
  hier.curve[1].val_accuracy =
      std::nextafter(hier.curve[1].val_accuracy, 1.0);
  const std::string reason =
      CompareResults("products-hier vs products-flat", flat, hier);
  EXPECT_NE(reason.find("products-hier vs products-flat"), std::string::npos)
      << reason;
  EXPECT_NE(reason.find("val_accuracy at round 2"), std::string::npos)
      << reason;
}

TEST(ResultWiringTest, ReferenceBlocksAreFoundByKey) {
  const RunResult a = SampleResult();
  RunResult b = SampleResult();
  b.total_upload_floats = 1;
  const std::string file = "# recorded\n" +
                           FormatResultBlock("arxiv seed=1 rounds=3", a) +
                           FormatResultBlock("products seed=1 rounds=3", b);
  RunResult found;
  ASSERT_TRUE(FindResultBlock(file, "products seed=1 rounds=3", &found));
  EXPECT_EQ(found.total_upload_floats, 1);
  ASSERT_TRUE(FindResultBlock(file, "arxiv seed=1 rounds=3", &found));
  EXPECT_EQ(CompareResults("arxiv", a, found), "");
  EXPECT_FALSE(FindResultBlock(file, "arxiv seed=2 rounds=3", &found));
  EXPECT_FALSE(FindResultBlock(file, "seed=1 rounds=3", &found));
}

TEST(FleetTest, ReapsChildrenAndKillsAtTheDeadline) {
  char dir_template[] = "/tmp/perfbench_fleet_XXXXXX";
  const char* dir = mkdtemp(dir_template);
  ASSERT_NE(dir, nullptr);
  {
    Fleet fleet(dir);
    ASSERT_GT(fleet.Spawn("worker", "/bin/sh", {"-c", "exit 0"}), 0);
    ASSERT_GT(fleet.Spawn("worker", "/bin/sh", {"-c", "sleep 30"}), 0);
    std::string error;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    EXPECT_FALSE(fleet.ReapAll(deadline, &error));
    EXPECT_NE(error.find("killed at the fleet deadline"), std::string::npos)
        << error;
    for (const Child& c : fleet.children()) EXPECT_TRUE(c.reaped);
    EXPECT_EQ(fleet.children()[0].exit_code, 0);
    EXPECT_TRUE(fleet.children()[1].killed);
  }
  {
    // The scrubbed environment reaches the child.
    setenv("FEDGTA_BACKEND", "simd", 1);
    Fleet fleet(dir);
    ASSERT_GT(fleet.Spawn("worker", "/bin/sh",
                          {"-c", "test -z \"$FEDGTA_BACKEND\""}),
              0);
    std::string error;
    EXPECT_TRUE(fleet.ReapAll(
        std::chrono::steady_clock::now() + std::chrono::seconds(10), &error))
        << error;
    unsetenv("FEDGTA_BACKEND");
  }
  const std::string port_file = std::string(dir) + "/agg.port";
  std::ofstream(port_file) << "40123\n1\n";
  int port = 0;
  int agg = -1;
  ASSERT_TRUE(ReadPortFile(port_file, &port, &agg));
  EXPECT_EQ(port, 40123);
  EXPECT_EQ(agg, 1);
  std::remove(port_file.c_str());
  std::remove((std::string(dir) + "/worker0.log").c_str());
  std::remove((std::string(dir) + "/worker1.log").c_str());
  rmdir(dir);
}

}  // namespace
}  // namespace perfbench
