// util::Cli flag parsing and the allocation-free lookup contract, plus the
// bench-side --protocol selector that resolves names through the protocol
// registry.
#include <gtest/gtest.h>

#include <climits>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"
#include "runtime/machine.h"
#include "util/cli.h"

using presto::util::Cli;

namespace {

Cli make_cli(std::initializer_list<const char*> args) {
  static std::vector<const char*> argv;
  argv.assign({"prog"});
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()),
             const_cast<char**>(argv.data()));
}

TEST(Cli, ParsesValueAndBoolForms) {
  const Cli cli = make_cli({"--blocks=512", "--rounds", "192", "--quick"});
  EXPECT_TRUE(cli.has("blocks"));
  EXPECT_EQ(cli.get_int("blocks", 0), 512);
  EXPECT_EQ(cli.get_int("rounds", 0), 192);
  EXPECT_TRUE(cli.get_bool("quick"));
  EXPECT_FALSE(cli.get_bool("verbose"));
  EXPECT_EQ(cli.get("json", "default"), "default");
  EXPECT_EQ(cli.get_double("missing", 2.5), 2.5);
}

// Lookups take std::string_view: a literal (or any non-owning view) must work
// without constructing a std::string at the call site, and the transparent
// map comparators resolve it without a temporary key either.
TEST(Cli, LookupAcceptsStringView) {
  const Cli cli = make_cli({"--alpha=1"});
  constexpr std::string_view key = "alpha";
  EXPECT_TRUE(cli.has(key));
  EXPECT_EQ(cli.get_int(key, 0), 1);
  const char buf[] = {'a', 'l', 'p', 'h', 'a', 'X'};  // not NUL-terminated
  EXPECT_TRUE(cli.has(std::string_view(buf, 5)));
}

// Regression for the per-lookup allocation fix: repeated queries of the same
// name must not grow the queried-names set (the old code built a temporary
// std::string per call and inserted it every time).
TEST(Cli, RepeatedLookupsRecordNameOnce) {
  const Cli cli = make_cli({"--blocks=512"});
  EXPECT_EQ(cli.queried_count(), 0u);
  for (int i = 0; i < 100; ++i) {
    (void)cli.has("blocks");
    (void)cli.get_int("blocks", 0);
  }
  EXPECT_EQ(cli.queried_count(), 1u);
  (void)cli.get("other", "");
  EXPECT_EQ(cli.queried_count(), 2u);
}

TEST(Cli, RejectUnknownPassesWhenAllQueried) {
  const Cli cli = make_cli({"--blocks=512", "--quick"});
  (void)cli.get_int("blocks", 0);
  (void)cli.get_bool("quick");
  cli.reject_unknown();  // must not abort
}

TEST(CliDeath, RejectUnknownAbortsOnUnqueriedFlag) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Cli cli = make_cli({"--typo=1"});
  EXPECT_DEATH(cli.reject_unknown(), "unknown flag");
}

// --help lists exactly the flags the program queried, each with the default
// it was queried with, and exits 0 in place of the unknown-flag abort.
TEST(Cli, HelpListsQueriedFlagsWithDefaults) {
  const Cli cli = make_cli({"--help"});
  (void)cli.get_int("blocks", 512);
  (void)cli.get_bool("quick");
  (void)cli.get("json", "out.json");
  (void)cli.get_double("min-speedup", 1.25);
  (void)cli.get_int("blocks", 7);  // a later default does not replace the first
  const std::string help = cli.help_text();
  EXPECT_NE(help.find("usage: prog"), std::string::npos) << help;
  EXPECT_NE(help.find("--blocks       default: 512\n"), std::string::npos)
      << help;
  EXPECT_NE(help.find("--quick        default: false\n"), std::string::npos)
      << help;
  EXPECT_NE(help.find("--json         default: \"out.json\"\n"),
            std::string::npos)
      << help;
  EXPECT_NE(help.find("--min-speedup  default: 1.25\n"), std::string::npos)
      << help;
  EXPECT_EQ(help.find("--help"), std::string::npos) << help;
}

TEST(CliDeath, HelpExitsZeroInsteadOfRejecting) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Cli cli = make_cli({"--help", "--typo=1"});
  (void)cli.get_int("blocks", 512);
  EXPECT_EXIT(cli.reject_unknown(), ::testing::ExitedWithCode(0), "");
}

TEST(CliDeath, MalformedIntegerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Cli cli = make_cli({"--blocks=12x"});
  EXPECT_DEATH((void)cli.get_int("blocks", 0), "expects an integer");
}

TEST(Cli, RangedIntegerAcceptsBoundsAndDefault) {
  const Cli cli = make_cli({"--lo=1", "--hi=2147483647"});
  EXPECT_EQ(cli.get_int("lo", 7, 1, INT_MAX), 1);
  EXPECT_EQ(cli.get_int("hi", 7, 1, INT_MAX), INT_MAX);
  EXPECT_EQ(cli.get_int("missing", 7, 1, INT_MAX), 7);
}

TEST(CliDeath, RangedIntegerRejectsValuesAnIntCastWouldWrap) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Cli cli = make_cli({"--nodes=4294967300", "--workers=-1"});
  EXPECT_DEATH((void)cli.get_int("nodes", 32, 1, INT_MAX),
               "flag --nodes must be in \\[1, 2147483647\\], got 4294967300");
  EXPECT_DEATH((void)cli.get_int("workers", 0, 0, INT_MAX),
               "flag --workers must be in \\[0, 2147483647\\], got -1");
}

// Scale::from_cli is the narrowing site every figure bench shares.
TEST(CliDeath, BenchScaleRejectsOutOfIntNodeCount) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Cli cli = make_cli({"--nodes=4294967300"});
  EXPECT_DEATH((void)presto::bench::Scale::from_cli(cli), "flag --nodes");
}

// The benches take their protocol sweep from the registry: no --protocol
// means every registered protocol in canonical order, so a newly registered
// protocol appears in every sweep without touching the bench binaries.
TEST(ProtocolCli, DefaultsToFullRegistry) {
  const Cli cli = make_cli({});
  const auto protos = presto::bench::protocols_from_cli(cli);
  ASSERT_EQ(protos.size(),
            static_cast<std::size_t>(presto::runtime::kNumProtocolKinds));
  for (int i = 0; i < presto::runtime::kNumProtocolKinds; ++i)
    EXPECT_EQ(protos[static_cast<std::size_t>(i)],
              presto::runtime::kAllProtocolKinds[i]);
}

// Every name protocol_kind_name() prints must round-trip back through the
// selector to exactly that protocol — the spelling in bench output is the
// spelling --protocol accepts.
TEST(ProtocolCli, EveryRegistryNameSelectsItsProtocol) {
  for (const auto kind : presto::runtime::kAllProtocolKinds) {
    const Cli cli = make_cli(
        {(std::string("--protocol=") +
          presto::runtime::protocol_kind_name(kind)).c_str()});
    const auto protos = presto::bench::protocols_from_cli(cli);
    ASSERT_EQ(protos.size(), 1u);
    EXPECT_EQ(protos.front(), kind);
  }
}

TEST(ProtocolCliDeath, UnknownProtocolNameAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Cli cli = make_cli({"--protocol=bogus"});
  // The abort message lists the valid names so a typo is self-correcting.
  EXPECT_DEATH((void)presto::bench::protocols_from_cli(cli),
               "unknown protocol 'bogus'.*stache.*ccached");
}

}  // namespace
