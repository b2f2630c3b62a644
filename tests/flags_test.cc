#include "common/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/status.h"

namespace pstore {
namespace {

FlagParser ParseOk(std::vector<const char*> args) {
  FlagParser parser;
  EXPECT_TRUE(
      parser.Parse(static_cast<int>(args.size()), args.data()).ok());
  return parser;
}

TEST(FlagParserTest, EqualsSyntax) {
  FlagParser flags = ParseOk({"--days=30", "--out=trace.csv"});
  EXPECT_EQ(flags.GetString("out", ""), "trace.csv");
  ASSERT_TRUE(flags.GetInt("days", 0).ok());
  EXPECT_EQ(*flags.GetInt("days", 0), 30);
}

TEST(FlagParserTest, SpaceSyntax) {
  FlagParser flags = ParseOk({"--days", "30", "--out", "x.csv"});
  EXPECT_EQ(*flags.GetInt("days", 0), 30);
  EXPECT_EQ(flags.GetString("out", ""), "x.csv");
}

TEST(FlagParserTest, BareFlagIsTrue) {
  FlagParser flags = ParseOk({"--verbose", "--dry-run"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.GetBool("dry-run", false));
  EXPECT_FALSE(flags.GetBool("absent", false));
}

TEST(FlagParserTest, BoolFalseSpellings) {
  FlagParser flags = ParseOk({"--a=false", "--b=0", "--c=no", "--d=yes"});
  EXPECT_FALSE(flags.GetBool("a", true));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_FALSE(flags.GetBool("c", true));
  EXPECT_TRUE(flags.GetBool("d", false));
}

TEST(FlagParserTest, Positional) {
  FlagParser flags = ParseOk({"input.csv", "--days=3", "output.csv"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
  EXPECT_EQ(flags.positional()[1], "output.csv");
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  FlagParser flags = ParseOk({});
  EXPECT_EQ(flags.GetString("x", "def"), "def");
  EXPECT_EQ(*flags.GetInt("x", 7), 7);
  EXPECT_EQ(*flags.GetDouble("x", 2.5), 2.5);
}

TEST(FlagParserTest, MalformedNumbersAreErrors) {
  FlagParser flags = ParseOk({"--n=abc", "--d=1.2.3"});
  EXPECT_FALSE(flags.GetInt("n", 0).ok());
  EXPECT_FALSE(flags.GetDouble("d", 0.0).ok());
}

TEST(FlagParserTest, DoubleParsing) {
  FlagParser flags = ParseOk({"--rate=1.5e3"});
  ASSERT_TRUE(flags.GetDouble("rate", 0.0).ok());
  EXPECT_EQ(*flags.GetDouble("rate", 0.0), 1500.0);
}

TEST(FlagParserTest, BareDashDashRejected) {
  FlagParser parser;
  const char* args[] = {"--"};
  EXPECT_FALSE(parser.Parse(1, args).ok());
}

TEST(FlagParserTest, LastValueWins) {
  FlagParser flags = ParseOk({"--n=1", "--n=2"});
  EXPECT_EQ(*flags.GetInt("n", 0), 2);
}

TEST(FlagParserTest, GetStringsReturnsEveryOccurrenceInOrder) {
  FlagParser flags =
      ParseOk({"--rule=layering", "--x=1", "--rule", "includes",
               "--rule=status"});
  const std::vector<std::string> rules = flags.GetStrings("rule");
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0], "layering");
  EXPECT_EQ(rules[1], "includes");
  EXPECT_EQ(rules[2], "status");
  // The scalar getter still sees only the last occurrence.
  EXPECT_EQ(flags.GetString("rule", ""), "status");
}

TEST(FlagParserTest, GetStringsEmptyWhenAbsent) {
  FlagParser flags = ParseOk({"--x=1"});
  EXPECT_TRUE(flags.GetStrings("rule").empty());
}

TEST(FlagParserTest, GetStringsSeesBareBooleanAsTrue) {
  FlagParser flags = ParseOk({"--verbose", "--verbose"});
  const std::vector<std::string> values = flags.GetStrings("verbose");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], "true");
  EXPECT_EQ(values[1], "true");
}

TEST(FlagParserTest, UnreadFlagIsAnError) {
  FlagParser flags =
      ParseOk({"--days=3", "--dayz=4", "--rule=a", "--verbose", "--zz"});
  EXPECT_TRUE(flags.GetInt("days", 1).ok());
  EXPECT_FALSE(flags.GetBool("absent", false));
  EXPECT_EQ(flags.CheckAllRead().message(), "--dayz: unknown flag");

  // Every getter counts as a read, GetStrings included; the first
  // unread flag by name is the one reported.
  (void)flags.GetDouble("dayz", 0.0);
  EXPECT_EQ(flags.CheckAllRead().message(), "--rule: unknown flag");
  EXPECT_EQ(flags.GetStrings("rule").size(), 1u);
  EXPECT_EQ(flags.CheckAllRead().message(), "--verbose: unknown flag");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetString("zz", ""), "true");
  EXPECT_TRUE(flags.CheckAllRead().ok());

  const Status unknown = ParseOk({"--x=1"}).CheckAllRead();
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(ParseOk({}).CheckAllRead().ok());
}

}  // namespace
}  // namespace pstore
