#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include <fstream>

#include "util/rng.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

namespace u = ses::util;

namespace {

TEST(RngTest, Deterministic) {
  u::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  u::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.NextU64() == b.NextU64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInRange) {
  u::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  u::Rng rng(4);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(RngTest, NormalMoments) {
  u::Rng rng(5);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  u::Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  u::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    auto sample = rng.SampleWithoutReplacement(50, 12);
    std::set<int64_t> set(sample.begin(), sample.end());
    EXPECT_EQ(set.size(), 12u);
    for (int64_t v : sample) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 50);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFull) {
  u::Rng rng(8);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(sample[static_cast<size_t>(i)], i);
}

TEST(RngTest, CategoricalFollowsWeights) {
  u::Rng rng(9);
  std::vector<double> weights{1.0, 3.0, 0.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[1] / 8000.0, 0.75, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  u::Rng rng(10);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(TableTest, AlignedRendering) {
  u::Table table("demo");
  table.SetHeader({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"bb", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Header row and divider present.
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, CsvEscaping) {
  u::Table table;
  table.SetHeader({"a", "b"});
  table.AddRow({"x,y", "has \"quote\""});
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"has \"\"quote\"\"\""), std::string::npos);
}

TEST(TableTest, RowArityEnforced) {
  u::Table table;
  table.SetHeader({"a", "b"});
  EXPECT_THROW(table.AddRow({"only one"}), std::logic_error);
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(u::Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(u::Table::MeanStd(90.6412, 0.6499, 2), "90.64±0.65");
}

TEST(TimerTest, FormatsLikeThePaper) {
  EXPECT_EQ(u::FormatDuration(4.3), "4.3s");
  EXPECT_EQ(u::FormatDuration(73.0), "1 min 13s");
  EXPECT_EQ(u::FormatDuration(590.0), "9 min 50s");
}

TEST(TimerTest, MeasuresElapsed) {
  u::Timer timer;
  double sink = 0.0;
  for (int i = 0; i < 1000000; ++i) sink += i;
  EXPECT_GT(sink, 0.0);  // keep the loop alive
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMillis(), timer.ElapsedSeconds());
}

TEST(StringTest, SplitAndJoin) {
  auto parts = u::Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(u::Join({"x", "y", "z"}, "-"), "x-y-z");
}

TEST(StringTest, StartsWithHandlesStringsShorterThanThePrefix) {
  EXPECT_TRUE(u::StartsWith("--flag", "--"));
  EXPECT_TRUE(u::StartsWith("abc", ""));
  EXPECT_FALSE(u::StartsWith("-", "--"));
  EXPECT_FALSE(u::StartsWith("", "--"));
}

TEST(StringTest, JsonQuoteEscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(u::JsonQuote(""), "\"\"");
  EXPECT_EQ(u::JsonQuote("plain.label"), "\"plain.label\"");
  EXPECT_EQ(u::JsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(u::JsonQuote("\b\f\n\r\t"), "\"\\b\\f\\n\\r\\t\"");
  EXPECT_EQ(u::JsonQuote(std::string("\x01\x1f\0", 3)),
            "\"\\u0001\\u001f\\u0000\"");
  EXPECT_EQ(u::JsonQuote("caf\xc3\xa9"), "\"caf\xc3\xa9\"");  // UTF-8 as is
}

TEST(StringTest, FlagParser) {
  const char* argv[] = {"prog", "--full", "--scale=0.5", "--epochs=40",
                        "--name=test"};
  u::FlagParser flags(5, const_cast<char**>(argv));
  EXPECT_TRUE(flags.GetBool("full", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 0.5);
  EXPECT_EQ(flags.GetInt("epochs", 0), 40);
  EXPECT_EQ(flags.GetString("name", ""), "test");
  EXPECT_EQ(flags.GetInt("missing", 99), 99);

  // A numeric value must be one whole in-range number: "abc" or "5x" must
  // not silently read as 0 or 5.
  const char* bad_argv[] = {"prog",     "--budget=abc", "--epochs=5x",
                            "--empty=", "--bare",       "--huge=1e999",
                            "--neg=-3", "--sci=2.5e3"};
  u::FlagParser bad(8, const_cast<char**>(bad_argv));
  EXPECT_THROW(bad.GetDouble("budget", 1.0), std::invalid_argument);
  EXPECT_THROW(bad.GetInt("budget", 1), std::invalid_argument);
  EXPECT_THROW(bad.GetInt("epochs", 1), std::invalid_argument);
  EXPECT_THROW(bad.GetInt("empty", 1), std::invalid_argument);
  EXPECT_THROW(bad.GetDouble("bare", 1.0), std::invalid_argument);
  EXPECT_THROW(bad.GetDouble("huge", 1.0), std::invalid_argument);
  EXPECT_THROW(bad.GetInt("sci", 1), std::invalid_argument);
  try {
    bad.GetDouble("budget", 1.0);
    ADD_FAILURE() << "--budget=abc parsed";
  } catch (const u::FlagError& e) {
    EXPECT_NE(std::string(e.what()).find("--budget=abc"), std::string::npos);
    EXPECT_EQ(u::FlagUsageError("bench/prog", e), 2);  // the usage exit code
  }
  EXPECT_EQ(bad.GetInt("neg", 0), -3);
  EXPECT_DOUBLE_EQ(bad.GetDouble("sci", 0.0), 2500.0);
}

TEST(FileTest, WriteCreatesDirectories) {
  const std::string path = "test_artifacts/nested/dir/file.txt";
  u::WriteFile(path, "content");
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "content");
}

}  // namespace
