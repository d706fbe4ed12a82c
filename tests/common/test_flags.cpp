#include "common/flags.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace das {
namespace {

bool parse(Flags& flags, std::vector<const char*> args, std::string* error) {
  args.insert(args.begin(), "prog");
  return flags.parse(static_cast<int>(args.size()), args.data(), error);
}

TEST(Flags, DefaultsApplyWithoutArgs) {
  Flags flags;
  flags.define("load", "0.7", "target load");
  std::string error;
  ASSERT_TRUE(parse(flags, {}, &error));
  EXPECT_DOUBLE_EQ(flags.get_double("load"), 0.7);
  EXPECT_FALSE(flags.set_on_command_line("load"));
}

TEST(Flags, EqualsFormParses) {
  Flags flags;
  flags.define("load", "0.7", "");
  std::string error;
  ASSERT_TRUE(parse(flags, {"--load=0.9"}, &error));
  EXPECT_DOUBLE_EQ(flags.get_double("load"), 0.9);
  EXPECT_TRUE(flags.set_on_command_line("load"));
}

TEST(Flags, SpaceFormParses) {
  Flags flags;
  flags.define("servers", "32", "");
  std::string error;
  ASSERT_TRUE(parse(flags, {"--servers", "64"}, &error));
  EXPECT_EQ(flags.get_int("servers"), 64);
}

TEST(Flags, BareBooleanForm) {
  Flags flags;
  flags.define("verbose", "false", "");
  std::string error;
  ASSERT_TRUE(parse(flags, {"--verbose"}, &error));
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(Flags, UnknownFlagRejected) {
  Flags flags;
  flags.define("load", "0.7", "");
  std::string error;
  EXPECT_FALSE(parse(flags, {"--laod=0.9"}, &error));
  EXPECT_NE(error.find("laod"), std::string::npos);
}

// The error text is part of the contract: scripts and humans both match on
// it, so it must be deterministic and name the offending flag.
TEST(Flags, UnknownDasFlagNamedInError) {
  Flags flags;
  flags.define("das-defer-margin", "2", "");
  std::string error;
  EXPECT_FALSE(parse(flags, {"--das_defer_margin=3"}, &error));
  EXPECT_EQ(error, "unknown flag: --das_defer_margin");
}

TEST(Flags, MissingValueRejected) {
  Flags flags;
  flags.define("servers", "32", "");
  std::string error;
  EXPECT_FALSE(parse(flags, {"--servers"}, &error));
  EXPECT_EQ(error, "flag --servers needs a value");
}

TEST(Flags, DuplicateFlagRejected) {
  Flags flags;
  flags.define("load", "0.7", "");
  std::string error;
  EXPECT_FALSE(parse(flags, {"--load=0.5", "--load=0.9"}, &error));
  EXPECT_EQ(error, "duplicate flag: --load");
  // Mixed forms collide too: --load 0.5 then --load=0.9.
  Flags flags2;
  flags2.define("load", "0.7", "");
  EXPECT_FALSE(parse(flags2, {"--load", "0.5", "--load=0.9"}, &error));
  EXPECT_EQ(error, "duplicate flag: --load");
}

TEST(Flags, RepeatedBooleanRejected) {
  Flags flags;
  flags.define("verbose", "false", "");
  std::string error;
  EXPECT_FALSE(parse(flags, {"--verbose", "--verbose"}, &error));
  EXPECT_EQ(error, "duplicate flag: --verbose");
}

TEST(Flags, DistinctFlagsDoNotCollide) {
  Flags flags;
  flags.define("load", "0.7", "");
  flags.define("servers", "32", "");
  std::string error;
  ASSERT_TRUE(parse(flags, {"--load=0.5", "--servers=8"}, &error));
  EXPECT_DOUBLE_EQ(flags.get_double("load"), 0.5);
  EXPECT_EQ(flags.get_int("servers"), 8);
}

TEST(Flags, PositionalsCollected) {
  Flags flags;
  flags.define("load", "0.7", "");
  std::string error;
  ASSERT_TRUE(parse(flags, {"trace.txt", "--load=0.5", "out.csv"}, &error));
  EXPECT_EQ(flags.positionals(),
            (std::vector<std::string>{"trace.txt", "out.csv"}));
}

// Every way a number can be bad — no digits, trailing junk, out of range —
// throws one std::invalid_argument whose message names the flag and the
// value, so a command-line tool can print it as a usage error.
TEST(Flags, BadNumberThrows) {
  const auto message_of = [](const auto& read) -> std::string {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "<no std::invalid_argument>";
  };
  for (const char* bad : {"abc", "8x", "", "99999999999999999999"}) {
    Flags flags;
    flags.define("servers", bad, "");
    const std::string msg = message_of([&] { flags.get_int("servers"); });
    EXPECT_NE(msg.find("--servers"), std::string::npos) << bad << ": " << msg;
    EXPECT_NE(msg.find(std::string("'") + bad + "'"), std::string::npos) << msg;
  }
  for (const char* bad : {"x", "0.5s", "", "1e999"}) {
    Flags flags;
    flags.define("load", bad, "");
    const std::string msg = message_of([&] { flags.get_double("load"); });
    EXPECT_NE(msg.find("--load"), std::string::npos) << bad << ": " << msg;
    EXPECT_NE(msg.find(std::string("'") + bad + "'"), std::string::npos) << msg;
  }
  Flags flags;
  flags.define("admission", "maybe", "");
  EXPECT_NE(message_of([&] { flags.get_bool("admission"); }).find("--admission"),
            std::string::npos);
}

TEST(Flags, BoolVariants) {
  Flags flags;
  flags.define("a", "1", "");
  flags.define("b", "no", "");
  EXPECT_TRUE(flags.get_bool("a"));
  EXPECT_FALSE(flags.get_bool("b"));
}

TEST(Flags, UndeclaredAccessThrows) {
  Flags flags;
  EXPECT_THROW(flags.get_string("nope"), std::logic_error);
}

TEST(Flags, DuplicateDefinitionThrows) {
  Flags flags;
  flags.define("x", "1", "");
  EXPECT_THROW(flags.define("x", "2", ""), std::logic_error);
}

TEST(Flags, HelpListsFlagsAndDefaults) {
  Flags flags;
  flags.define("load", "0.7", "target load");
  std::ostringstream os;
  flags.print_help(os, "dassim");
  EXPECT_NE(os.str().find("--load"), std::string::npos);
  EXPECT_NE(os.str().find("0.7"), std::string::npos);
  EXPECT_NE(os.str().find("target load"), std::string::npos);
}

}  // namespace
}  // namespace das
