// Flag parsing used by every bench/example binary.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"

namespace ppo {
namespace {

Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsSyntax) {
  const Cli cli = make_cli({"--nodes=500", "--alpha=0.25", "--name=test"});
  EXPECT_EQ(cli.get_int("nodes", 0), 500);
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 0.25);
  EXPECT_EQ(cli.get_string("name", ""), "test");
}

TEST(Cli, SpaceSyntax) {
  const Cli cli = make_cli({"--nodes", "123", "--flag"});
  EXPECT_EQ(cli.get_int("nodes", 0), 123);
  EXPECT_TRUE(cli.get_bool("flag", false));
}

TEST(Cli, DefaultsWhenAbsent) {
  const Cli cli = make_cli({});
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, BooleanSpellings) {
  EXPECT_TRUE(make_cli({"--x=yes"}).get_bool("x", false));
  EXPECT_TRUE(make_cli({"--x=1"}).get_bool("x", false));
  EXPECT_TRUE(make_cli({"--x=on"}).get_bool("x", false));
  EXPECT_FALSE(make_cli({"--x=no"}).get_bool("x", true));
}

TEST(Cli, PositionalArguments) {
  const Cli cli = make_cli({"alpha", "--k=1", "beta"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "alpha");
  EXPECT_EQ(cli.positional()[1], "beta");
}

TEST(Cli, MalformedNumberThrows) {
  const Cli cli = make_cli({"--nodes=abc"});
  EXPECT_THROW(cli.get_int("nodes", 0), CheckError);
}

/// The CheckError message of `fn`, or "" when it does not throw.
template <typename Fn>
std::string check_message(Fn&& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

// Flags that size thread pools and simulators (--jobs, --shards,
// --shard-list) are range-checked at parse time, before anything is
// built from them; the error names the flag.
TEST(Cli, CountFlagsParse) {
  const Cli cli = make_cli({"--jobs=0", "--shards", "4",
                            "--shard-list=1,2,,8"});
  EXPECT_EQ(cli.get_size("jobs", 3), 0u);
  EXPECT_EQ(cli.get_size("shards", 1, 1), 4u);
  EXPECT_EQ(cli.get_size("missing", 7, 1), 7u);
  EXPECT_EQ(cli.get_size_list("shard-list", "1", 1),
            (std::vector<std::size_t>{1, 2, 8}));
  EXPECT_EQ(cli.get_size_list("missing", "1,2,4", 1),
            (std::vector<std::size_t>{1, 2, 4}));
}

TEST(Cli, NegativeJobsThrows) {
  const Cli cli = make_cli({"--jobs=-1"});
  const std::string msg = check_message([&] { cli.get_size("jobs", 0); });
  EXPECT_NE(msg.find("--jobs"), std::string::npos) << msg;
  EXPECT_NE(msg.find("-1"), std::string::npos) << msg;
}

TEST(Cli, ShardsBelowOneThrow) {
  for (const char* arg : {"--shards=0", "--shards=-1", "--shards=two"}) {
    const Cli cli = make_cli({arg});
    const std::string msg =
        check_message([&] { cli.get_size("shards", 1, 1); });
    EXPECT_NE(msg.find("--shards"), std::string::npos) << arg << ": " << msg;
  }
}

TEST(Cli, NonIntegralShardListEntriesThrow) {
  for (const char* arg :
       {"--shard-list=-1", "--shard-list=1.5", "--shard-list=1,2.0",
        "--shard-list=0,1", "--shard-list=1,x"}) {
    const Cli cli = make_cli({arg});
    const std::string msg =
        check_message([&] { cli.get_size_list("shard-list", "1", 1); });
    EXPECT_NE(msg.find("--shard-list"), std::string::npos)
        << arg << ": " << msg;
  }
}

TEST(Cli, EnvironmentFallback) {
  ::setenv("PPO_ENV_ONLY_FLAG", "99", 1);
  const Cli cli = make_cli({});
  EXPECT_EQ(cli.get_int("env-only-flag", 0), 99);
  ::unsetenv("PPO_ENV_ONLY_FLAG");
}

TEST(Cli, CommandLineBeatsEnvironment) {
  ::setenv("PPO_PRIORITY", "1", 1);
  const Cli cli = make_cli({"--priority=2"});
  EXPECT_EQ(cli.get_int("priority", 0), 2);
  ::unsetenv("PPO_PRIORITY");
}

TEST(LogLevel, ParseNames) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kOff);
}

TEST(TextTable, FormatsNumbers) {
  EXPECT_EQ(TextTable::num(1.5), "1.5");
  EXPECT_EQ(TextTable::num(2.0), "2");
  EXPECT_EQ(TextTable::num(0.12349, 3), "0.123");
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(SeriesTable, RejectsLengthMismatch) {
  std::ostringstream os;
  EXPECT_THROW(
      print_series_table(os, "t", "x", {1.0, 2.0}, {Series{"s", {1.0}}}),
      CheckError);
}

TEST(SeriesTable, PrintsNanAsDash) {
  std::ostringstream os;
  print_series_table(os, "demo", "x", {1.0},
                     {Series{"s", {std::nan("")}}});
  EXPECT_NE(os.str().find('-'), std::string::npos);
}

}  // namespace
}  // namespace ppo
