// One observation bus, two subscribers. runtime::System attaches the event
// tracer and the coherence oracle to the same trace::Hooks bus, behind a
// Fanout when both are on. Either subscriber must observe exactly what it
// observes alone: the trace digest with the oracle attached equals the
// tracer-only digest, the oracle's check counts equal an oracle-only run's,
// and a planted protocol bug still reaches the oracle with the tracer in
// front of it. Debug builds attach the oracle to every System; these tests
// pin the pairing in every build type by choosing the subscribers
// explicitly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "check/bughook.h"
#include "check/oracle.h"
#include "golden_workload.h"

using namespace presto;

namespace {

using runtime::ProtocolKind;

// Sets PRESTO_ORACLE for the scope, so System construction attaches no
// oracle of its own, and restores the previous value.
class NoDefaultOracle {
 public:
  NoDefaultOracle() {
    if (const char* v = std::getenv("PRESTO_ORACLE")) saved_ = v;
    setenv("PRESTO_ORACLE", "0", 1);
  }
  ~NoDefaultOracle() {
    if (saved_) {
      setenv("PRESTO_ORACLE", saved_->c_str(), 1);
    } else {
      unsetenv("PRESTO_ORACLE");
    }
  }
  NoDefaultOracle(const NoDefaultOracle&) = delete;
  NoDefaultOracle& operator=(const NoDefaultOracle&) = delete;

 private:
  std::optional<std::string> saved_;
};

struct Observed {
  trace::Digest digest;  // traced runs only
  std::uint64_t reads = 0, writes = 0, sends = 0, violations = 0;
};

// Runs the golden micro workload (4 nodes, 6 rounds, 32 B blocks) with the
// chosen subscribers on the bus.
Observed observe(ProtocolKind kind, bool traced, bool oracle) {
  const NoDefaultOracle guard;
  runtime::MachineConfig cfg = runtime::MachineConfig::cm5_blizzard(4, 32);
  cfg.trace.enabled = traced;
  runtime::System sys(cfg, kind);
  check::Oracle* o =
      oracle ? &sys.enable_oracle(check::FailMode::kRecord) : nullptr;
  testutil::drive_micro_workload(sys, /*rounds=*/6);
  Observed r;
  if (traced) r.digest = sys.tracer()->digest();
  if (o != nullptr) {
    r.reads = o->reads_checked();
    r.writes = o->writes_checked();
    r.sends = o->sends_checked();
    r.violations = o->violation_count();
  }
  return r;
}

class HookBusTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(HookBusTest, TraceDigestUnchangedByOracle) {
  const Observed alone = observe(GetParam(), /*traced=*/true, false);
  const Observed both = observe(GetParam(), /*traced=*/true, true);
  EXPECT_GT(alone.digest.events, 0u);
  EXPECT_EQ(both.digest, alone.digest);
  EXPECT_EQ(both.violations, 0u);
}

TEST_P(HookBusTest, OracleChecksUnchangedByTracer) {
  const Observed alone = observe(GetParam(), false, /*oracle=*/true);
  const Observed both = observe(GetParam(), /*traced=*/true, true);
  EXPECT_GT(alone.reads, 0u);
  EXPECT_GT(alone.writes, 0u);
  EXPECT_GT(alone.sends, 0u);
  EXPECT_EQ(both.reads, alone.reads);
  EXPECT_EQ(both.writes, alone.writes);
  EXPECT_EQ(both.sends, alone.sends);
}

// The lost-invalidation bug leaves stale ReadOnly copies behind; the oracle
// behind the tracer must still see the accesses that expose them.
TEST_P(HookBusTest, PlantedBugReachesOracleBehindTracer) {
  check::set_bug_hook("skip-invalidate", true);
  const Observed both = observe(GetParam(), /*traced=*/true, true);
  check::set_bug_hook("skip-invalidate", false);
  EXPECT_GT(both.violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Stache32AndPredictive32, HookBusTest,
    ::testing::Values(ProtocolKind::kStache, ProtocolKind::kPredictive),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) -> std::string {
      return info.param == ProtocolKind::kStache ? "Stache" : "Predictive";
    });

}  // namespace
