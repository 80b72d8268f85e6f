#include "common/cli.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "exp/cli_setup.hpp"

namespace hadfl {
namespace {

ArgParser parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(SplitCsvList, Basics) {
  EXPECT_TRUE(split_csv_list("").empty());
  EXPECT_EQ(split_csv_list("a"), (std::vector<std::string>{"a"}));
  EXPECT_EQ(split_csv_list("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv_list(" a , b "), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split_csv_list("a,,c"), (std::vector<std::string>{"a", "", "c"}));
}

TEST(ArgParser, KeyValueAndFlags) {
  const ArgParser args = parse({"--scheme=hadfl", "--verbose", "input.txt"});
  EXPECT_TRUE(args.has("scheme"));
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("model"));
  EXPECT_EQ(args.get("scheme"), "hadfl");
  EXPECT_EQ(args.get("verbose"), "");
  EXPECT_EQ(args.get("missing", "default"), "default");
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"input.txt"}));
}

TEST(ArgParser, NumericAccessors) {
  const ArgParser args = parse({"--epochs=12", "--scale=0.5"});
  EXPECT_EQ(args.get_int("epochs", 0), 12);
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 0.5);
  EXPECT_EQ(args.get_int("missing", 7), 7);
}

TEST(ArgParser, RejectsNonNumeric) {
  const ArgParser args = parse({"--epochs=twelve", "--scale=1.5"});
  EXPECT_THROW(args.get_int("epochs", 0), InvalidArgument);
  EXPECT_THROW(args.get_int("scale", 0), InvalidArgument);  // not integral
}

TEST(ArgParser, DoubleList) {
  const ArgParser args = parse({"--ratio=3,3,1,1"});
  EXPECT_EQ(args.get_double_list("ratio", {}),
            (std::vector<double>{3, 3, 1, 1}));
  EXPECT_EQ(args.get_double_list("missing", {2, 1}),
            (std::vector<double>{2, 1}));
  const ArgParser bad = parse({"--ratio=3,x"});
  EXPECT_THROW(bad.get_double_list("ratio", {}), InvalidArgument);
}

TEST(ArgParser, UnknownOptionDetection) {
  const ArgParser args = parse({"--scheme=hadfl", "--typo=1"});
  const auto unknown = args.unknown_options({"scheme", "model"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

// hadfl_run prints exp::backend_flag_error's message and exits 2 whenever
// it is non-empty; these pin the rejection surface for --backend/--transport.
TEST(BackendFlags, AcceptsKnownCombinations) {
  EXPECT_EQ(exp::backend_flag_error("hadfl", "sim", false, "tcp"), "");
  EXPECT_EQ(exp::backend_flag_error("hadfl", "rt", false, "tcp"), "");
  EXPECT_EQ(exp::backend_flag_error("hadfl", "net", true, "tcp"), "");
  EXPECT_EQ(exp::backend_flag_error("hadfl", "net", true, "uds"), "");
  EXPECT_EQ(exp::backend_flag_error("fedavg", "sim", false, "tcp"), "");
}

TEST(BackendFlags, RejectsUnknownBackend) {
  const std::string err = exp::backend_flag_error("hadfl", "mpi", false, "tcp");
  EXPECT_NE(err.find("unknown --backend: mpi"), std::string::npos);
  EXPECT_NE(err.find("want sim, rt, or net"), std::string::npos);
}

TEST(BackendFlags, RejectsUnknownTransport) {
  const std::string err =
      exp::backend_flag_error("hadfl", "net", true, "carrier-pigeon");
  EXPECT_NE(err.find("unknown --transport: carrier-pigeon"),
            std::string::npos);
  EXPECT_NE(err.find("want tcp or uds"), std::string::npos);
}

TEST(BackendFlags, TransportRequiresNetBackend) {
  EXPECT_EQ(exp::backend_flag_error("hadfl", "rt", true, "tcp"),
            "--transport requires --backend=net");
  // The implicit tcp default is fine on every backend.
  EXPECT_EQ(exp::backend_flag_error("hadfl", "rt", false, "tcp"), "");
}

TEST(BackendFlags, RuntimeBackendsRequireHadflScheme) {
  EXPECT_EQ(exp::backend_flag_error("fedavg", "rt", false, "tcp"),
            "--backend=rt only applies to --scheme=hadfl");
  EXPECT_EQ(exp::backend_flag_error("fedavg", "net", false, "tcp"),
            "--backend=net only applies to --scheme=hadfl");
}

// hadfl_run/hadfl_node print exp::sync_codec_flag_error's message and exit
// 2 on a bad --sync-codec or --topk-ratio (the backend_flag_error pattern).

TEST(SyncCodecFlags, AcceptsKnownCodecs) {
  EXPECT_EQ(exp::sync_codec_flag_error("none", 0.05), "");
  EXPECT_EQ(exp::sync_codec_flag_error("int8", 0.05), "");
  EXPECT_EQ(exp::sync_codec_flag_error("topk", 0.05), "");
  EXPECT_EQ(exp::sync_codec_flag_error("topk", 1.0), "");
}

TEST(SyncCodecFlags, RejectsUnknownCodec) {
  const std::string err = exp::sync_codec_flag_error("gzip", 0.05);
  EXPECT_EQ(err, "unknown --sync-codec: gzip (want none, int8, or topk)");
  EXPECT_THROW(exp::parse_sync_codec("gzip"), InvalidArgument);
}

TEST(SyncCodecFlags, RejectsOutOfRangeTopkRatio) {
  EXPECT_NE(exp::sync_codec_flag_error("topk", 0.0), "");
  EXPECT_NE(exp::sync_codec_flag_error("topk", -0.5), "");
  EXPECT_NE(exp::sync_codec_flag_error("topk", 1.5), "");
}

TEST(SyncCodecFlags, Int8BroadcastIsAnAliasForSyncCodecInt8) {
  EXPECT_EQ(exp::sync_codec_arg(parse({"--int8-broadcast"})), "int8");
  EXPECT_EQ(exp::sync_codec_arg(parse({"--sync-codec=topk"})), "topk");
  // An explicit --sync-codec wins over the legacy alias.
  EXPECT_EQ(
      exp::sync_codec_arg(parse({"--int8-broadcast", "--sync-codec=none"})),
      "none");
  EXPECT_EQ(exp::sync_codec_arg(parse({})), "none");
}

TEST(SyncCodecFlags, ParseMapsToTheSharedCodecEnum) {
  EXPECT_EQ(exp::parse_sync_codec("none"), core::SyncCompression::kNone);
  EXPECT_EQ(exp::parse_sync_codec("int8"), core::SyncCompression::kInt8);
  EXPECT_EQ(exp::parse_sync_codec("topk"), core::SyncCompression::kTopK);
}

// hadfl_run prints exp::fleet_flag_error's message and exits 2 whenever it
// is non-empty (the sync_codec_flag_error pattern).

TEST(FleetFlags, AcceptsConsistentCombinations) {
  EXPECT_EQ(exp::fleet_flag_error(parse({})), "");
  EXPECT_EQ(exp::fleet_flag_error(parse({"--fleet"})), "");
  EXPECT_EQ(exp::fleet_flag_error(parse(
                {"--fleet", "--fleet-devices=100000", "--fleet-cohort=64",
                 "--fleet-rounds=4", "--fleet-churn=0.05",
                 "--fleet-threads=8", "--fleet-momentum=0.9"})),
            "");
  // cohort >= K degrades to exact mode; the CLI lets the engine decide.
  EXPECT_EQ(exp::fleet_flag_error(parse(
                {"--fleet", "--fleet-devices=8", "--fleet-cohort=8"})),
            "");
  EXPECT_EQ(exp::fleet_flag_error(parse(
                {"--fleet", "--fleet-cohort=16", "--policy=top-k"})),
            "");
}

TEST(FleetFlags, FleetSubflagsRequireFleet) {
  const std::string err = exp::fleet_flag_error(parse({"--fleet-cohort=8"}));
  EXPECT_EQ(err, "--fleet-cohort requires --fleet");
  EXPECT_NE(exp::fleet_flag_error(parse({"--fleet-devices=100"})), "");
  EXPECT_NE(exp::fleet_flag_error(parse({"--fleet-threads=4"})), "");
  EXPECT_NE(exp::fleet_flag_error(parse({"--fleet-momentum=0.9"})), "");
}

TEST(FleetFlags, RejectsOutOfRangeValues) {
  EXPECT_NE(exp::fleet_flag_error(parse({"--fleet", "--fleet-devices=0"})),
            "");
  EXPECT_NE(exp::fleet_flag_error(parse({"--fleet", "--fleet-devices=-5"})),
            "");
  EXPECT_NE(exp::fleet_flag_error(parse({"--fleet", "--fleet-rounds=-1"})),
            "");
  EXPECT_NE(exp::fleet_flag_error(parse({"--fleet", "--fleet-threads=-2"})),
            "");
  EXPECT_NE(exp::fleet_flag_error(parse({"--fleet", "--fleet-churn=1.5"})),
            "");
  EXPECT_NE(exp::fleet_flag_error(parse({"--fleet", "--fleet-churn=-0.1"})),
            "");
  EXPECT_NE(
      exp::fleet_flag_error(parse({"--fleet", "--fleet-momentum=1.0"})), "");
  EXPECT_NE(
      exp::fleet_flag_error(parse({"--fleet", "--fleet-momentum=-0.1"})), "");
}

TEST(FleetFlags, SampledCohortMustCoverSelectCount) {
  const std::string err = exp::fleet_flag_error(
      parse({"--fleet", "--fleet-cohort=2", "--np=4"}));
  EXPECT_NE(err.find("--fleet-cohort=2"), std::string::npos);
  EXPECT_NE(err.find("--np=4"), std::string::npos);
  // Exact mode (cohort 0 or >= K) has no cohort/np constraint.
  EXPECT_EQ(exp::fleet_flag_error(parse({"--fleet", "--np=4"})), "");
  EXPECT_EQ(exp::fleet_flag_error(parse(
                {"--fleet", "--fleet-devices=4", "--fleet-cohort=4",
                 "--np=4"})),
            "");
}

TEST(FleetFlags, SampledCohortRejectsCodecAndAdaptive) {
  const std::string codec = exp::fleet_flag_error(
      parse({"--fleet", "--fleet-cohort=16", "--sync-codec=topk"}));
  EXPECT_NE(codec.find("topk"), std::string::npos);
  EXPECT_NE(exp::fleet_flag_error(
                parse({"--fleet", "--fleet-cohort=16", "--int8-broadcast"})),
            "");
  const std::string adaptive = exp::fleet_flag_error(
      parse({"--fleet", "--fleet-cohort=16", "--adaptive"}));
  EXPECT_NE(adaptive.find("--adaptive"), std::string::npos);
  // Exact mode (cohort 0 or >= K) runs both.
  EXPECT_EQ(exp::fleet_flag_error(parse(
                {"--fleet", "--sync-codec=int8", "--sync-chunks=4",
                 "--adaptive"})),
            "");
  EXPECT_EQ(exp::fleet_flag_error(parse(
                {"--fleet", "--fleet-devices=8", "--fleet-cohort=8",
                 "--sync-codec=topk", "--adaptive"})),
            "");
  EXPECT_EQ(exp::fleet_flag_error(parse(
                {"--fleet", "--fleet-cohort=16", "--sync-codec=none"})),
            "");
}

TEST(FleetFlags, ApplyHadflFlagsTranslatesEveryHadflFlag) {
  // One translation for the scenario path and the --fleet world.
  core::HadflConfig hadfl;
  exp::apply_hadfl_flags(
      parse({"--np=3", "--tsync=2", "--mix=0.6", "--group-size=4",
             "--policy=top-k", "--sync-codec=topk", "--topk-ratio=0.1",
             "--sync-chunks=3", "--adaptive", "--adaptive-tune=codec"}),
      hadfl);
  EXPECT_EQ(hadfl.strategy.select_count, 3u);
  EXPECT_EQ(hadfl.strategy.t_sync, 2);
  EXPECT_DOUBLE_EQ(hadfl.broadcast_mix_weight, 0.6);
  EXPECT_EQ(hadfl.grouping.group_size, 4u);
  EXPECT_EQ(hadfl.policy->name(), "top-k");
  EXPECT_EQ(hadfl.compression, core::SyncCompression::kTopK);
  EXPECT_DOUBLE_EQ(hadfl.top_k_ratio, 0.1);
  EXPECT_EQ(hadfl.sync_chunks, 3u);
  EXPECT_TRUE(hadfl.adaptive.enabled);
  EXPECT_TRUE(hadfl.adaptive.tune_codec);
  EXPECT_FALSE(hadfl.adaptive.tune_budgets);
}

TEST(FleetFlags, SampledCohortRestrictsPolicies) {
  const std::string err = exp::fleet_flag_error(
      parse({"--fleet", "--fleet-cohort=16", "--policy=uniform"}));
  EXPECT_NE(err.find("uniform"), std::string::npos);
  // Exact mode runs any policy the sim backend runs.
  EXPECT_EQ(exp::fleet_flag_error(parse({"--fleet", "--policy=uniform"})),
            "");
}

// hadfl_run prints exp::adaptive_flag_error's message and exits 2 whenever
// it is non-empty — the fleet_flag_error pattern for the adaptive
// controller's flag family.
TEST(AdaptiveFlags, AcceptsConsistentCombinations) {
  EXPECT_EQ(exp::adaptive_flag_error(parse({})), "");
  EXPECT_EQ(exp::adaptive_flag_error(parse({"--adaptive"})), "");
  EXPECT_EQ(exp::adaptive_flag_error(parse(
                {"--adaptive", "--adaptive-alpha=0.7",
                 "--adaptive-warmup=0", "--adaptive-tune=budgets,codec"})),
            "");
  // Codec flags seed the controller's round-0 plan — a valid combo.
  EXPECT_EQ(exp::adaptive_flag_error(parse(
                {"--adaptive", "--sync-codec=topk", "--sync-chunks=8"})),
            "");
}

TEST(AdaptiveFlags, SubflagsRequireAdaptive) {
  const std::string err =
      exp::adaptive_flag_error(parse({"--adaptive-alpha=0.5"}));
  EXPECT_NE(err.find("requires --adaptive"), std::string::npos);
  EXPECT_NE(exp::adaptive_flag_error(parse({"--adaptive-warmup=3"})), "");
  EXPECT_NE(exp::adaptive_flag_error(parse({"--adaptive-tune=codec"})), "");
}

TEST(AdaptiveFlags, RejectsNonHadflSchemes) {
  // Exact fleet mode runs the controller; fleet_flag_error rejects it with
  // a sampled cohort (FleetFlags.SampledCohortRejectsCodecAndAdaptive).
  EXPECT_EQ(exp::adaptive_flag_error(parse({"--adaptive", "--fleet"})), "");
  EXPECT_NE(exp::adaptive_flag_error(
                parse({"--adaptive", "--scheme=dfedavg"})),
            "");
  EXPECT_EQ(exp::adaptive_flag_error(parse({"--adaptive", "--scheme=hadfl"})),
            "");
}

TEST(AdaptiveFlags, RejectsOutOfRangeValues) {
  EXPECT_NE(
      exp::adaptive_flag_error(parse({"--adaptive", "--adaptive-alpha=0"})),
      "");
  EXPECT_NE(
      exp::adaptive_flag_error(parse({"--adaptive", "--adaptive-alpha=1.5"})),
      "");
  EXPECT_NE(exp::adaptive_flag_error(
                parse({"--adaptive", "--adaptive-warmup=-1"})),
            "");
  const std::string err = exp::adaptive_flag_error(
      parse({"--adaptive", "--adaptive-tune=budgets,frobnicate"}));
  EXPECT_NE(err.find("frobnicate"), std::string::npos);
}

TEST(DriftSpec, ParsesEveryKind) {
  EXPECT_TRUE(exp::parse_drift("", 4).empty());
  const auto events =
      exp::parse_drift("0:3:4.0,1:2:2.5:ramp:4,2:0:3.0:square:6:3", 4);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].device, 0u);
  EXPECT_EQ(events[0].from_round, 3u);
  EXPECT_DOUBLE_EQ(events[0].factor, 4.0);
  EXPECT_EQ(events[0].kind, sim::DriftKind::kStep);
  EXPECT_EQ(events[1].kind, sim::DriftKind::kRamp);
  EXPECT_EQ(events[1].ramp_rounds, 4u);
  EXPECT_EQ(events[2].kind, sim::DriftKind::kSquare);
  EXPECT_EQ(events[2].period, 6u);
  EXPECT_EQ(events[2].duty, 3u);
}

TEST(DriftSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(exp::parse_drift("0:3", 4), InvalidArgument);
  EXPECT_THROW(exp::parse_drift("9:3:4.0", 4), InvalidArgument);  // device
  EXPECT_THROW(exp::parse_drift("0:3:0", 4), InvalidArgument);    // factor
  EXPECT_THROW(exp::parse_drift("0:3:4.0:wave", 4), InvalidArgument);
  EXPECT_THROW(exp::parse_drift("0:3:4.0:ramp", 4), InvalidArgument);
  EXPECT_THROW(exp::parse_drift("0:3:4.0:ramp:0", 4), InvalidArgument);
  EXPECT_THROW(exp::parse_drift("0:3:4.0:square:4", 4), InvalidArgument);
  EXPECT_THROW(exp::parse_drift("0:3:4.0:square:4:9", 4), InvalidArgument);
  EXPECT_THROW(exp::parse_drift("0:3:4.0:step:2", 4), InvalidArgument);
}

}  // namespace
}  // namespace hadfl
