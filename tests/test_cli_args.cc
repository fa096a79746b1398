// Unit tests for the CLI argument parser/validators (tools/cli_args.h).
// The regression this guards: numeric flags used to be read with atoi, so
// `--threads banana` silently became 0 and `--deadline-ms -3` a negative
// deadline. Every present-but-malformed value must now be an
// InvalidArgument naming the flag. End-to-end coverage (exit codes through
// the real binary) lives in the cli_* CTest cases.

#include <string>
#include <vector>

#include "cli_args.h"
#include "gtest/gtest.h"

namespace hetesim::cli {
namespace {

Args MustParse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "hetesim_cli");
  Result<Args> args = Args::Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(args.ok()) << args.status().ToString();
  return *args;
}

TEST(CliArgs, ParsesCommandAndOptionForms) {
  const Args args = MustParse(
      {"topk", "--graph", "g.hin", "--k=5", "--symmetric", "--threads", "2"});
  EXPECT_EQ(args.command, "topk");
  EXPECT_EQ(args.Get("graph").value_or(""), "g.hin");
  EXPECT_EQ(args.Get("k").value_or(""), "5");
  EXPECT_TRUE(args.Has("symmetric"));
  EXPECT_EQ(args.Get("symmetric").value_or("x"), "");  // bare flag
  EXPECT_EQ(args.Get("threads").value_or(""), "2");
  EXPECT_FALSE(args.Has("deadline-ms"));
}

TEST(CliArgs, RejectsPositionalTokens) {
  const char* argv[] = {"hetesim_cli", "topk", "stray"};
  Result<Args> args = Args::Parse(3, argv);
  ASSERT_FALSE(args.ok());
  EXPECT_TRUE(args.status().IsInvalidArgument());
}

TEST(CliArgs, MissingCommandFails) {
  const char* argv[] = {"hetesim_cli"};
  EXPECT_FALSE(Args::Parse(1, argv).ok());
}

TEST(CliArgs, GetIntReturnsFallbackWhenAbsent) {
  const Args args = MustParse({"topk"});
  Result<int> value = args.GetInt("k", 10);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 10);
}

TEST(CliArgs, GetIntParsesValidValues) {
  const Args args = MustParse({"topk", "--k=25", "--offset=-3"});
  ASSERT_TRUE(args.GetInt("k", 0).ok());
  EXPECT_EQ(*args.GetInt("k", 0), 25);
  EXPECT_EQ(*args.GetInt("offset", 0), -3);
}

TEST(CliArgs, GetIntRejectsGarbage) {
  const Args args = MustParse({"topk", "--threads", "banana", "--k=12x",
                               "--deadline-ms="});
  for (const char* key : {"threads", "k", "deadline-ms"}) {
    Result<int> value = args.GetInt(key, 1);
    ASSERT_FALSE(value.ok()) << key;
    EXPECT_TRUE(value.status().IsInvalidArgument()) << key;
    EXPECT_NE(value.status().message().find(std::string("--") + key),
              std::string::npos)
        << "error must name the flag: " << value.status().ToString();
  }
}

TEST(CliArgs, GetIntEnforcesRange) {
  const Args args = MustParse({"topk", "--k=-4", "--huge=9999999999"});
  Result<int> negative = args.GetInt("k", 1, /*min=*/0);
  ASSERT_FALSE(negative.ok());
  EXPECT_TRUE(negative.status().IsInvalidArgument());
  EXPECT_NE(negative.status().message().find("out of range"),
            std::string::npos);
  // 9999999999 overflows int but not int64: range-checked, not truncated.
  EXPECT_FALSE(args.GetInt("huge", 1).ok());
  ASSERT_TRUE(args.GetInt64("huge", 1).ok());
  EXPECT_EQ(*args.GetInt64("huge", 1), 9999999999ll);
}

TEST(CliArgs, GetUint64RejectsNegatives) {
  const Args args = MustParse({"generate", "--seed=-1", "--good=123"});
  EXPECT_FALSE(args.GetUint64("seed", 0).ok());
  ASSERT_TRUE(args.GetUint64("good", 0).ok());
  EXPECT_EQ(*args.GetUint64("good", 0), 123u);
  EXPECT_EQ(*args.GetUint64("absent", 42), 42u);
}

TEST(CliArgs, GetDoubleParsesAndValidates) {
  const Args args = MustParse({"workload", "--rate=12.5", "--bad=fast",
                               "--inf=1e999"});
  ASSERT_TRUE(args.GetDouble("rate", 0).ok());
  EXPECT_DOUBLE_EQ(*args.GetDouble("rate", 0), 12.5);
  EXPECT_FALSE(args.GetDouble("bad", 0).ok());
  EXPECT_FALSE(args.GetDouble("inf", 0).ok());  // overflow -> not finite
  EXPECT_FALSE(args.GetDouble("rate", 0, /*min=*/20.0).ok());
}

TEST(CliArgs, GetChoiceValidatesVocabulary) {
  const Args args =
      MustParse({"topk", "--store-codec=quantized", "--mode", "bogus"});
  ASSERT_TRUE(
      args.GetChoice("store-codec", "lossless", {"lossless", "quantized"}).ok());
  EXPECT_EQ(
      *args.GetChoice("store-codec", "lossless", {"lossless", "quantized"}),
      "quantized");
  // Absent key yields the fallback even when the fallback is not listed.
  EXPECT_EQ(*args.GetChoice("absent", "default", {"a", "b"}), "default");
  Result<std::string> bad = args.GetChoice("mode", "a", {"a", "b"});
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  // The error names the flag and enumerates the vocabulary.
  EXPECT_NE(bad.status().message().find("--mode"), std::string::npos);
  EXPECT_NE(bad.status().message().find("a | b"), std::string::npos);
}

TEST(CliArgs, ZeroStaysValidForDeadlineStyleFlags) {
  // `--deadline-ms 0` (already-expired deadline -> truncation contract)
  // must keep parsing: validation rejects garbage, not zero.
  const Args args = MustParse({"topk", "--deadline-ms", "0"});
  Result<int> value = args.GetInt("deadline-ms", 5, /*min=*/0);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0);
}

}  // namespace
}  // namespace hetesim::cli
