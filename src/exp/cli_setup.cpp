#include "exp/cli_setup.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "core/trainer.hpp"
#include "sim/network.hpp"

namespace hadfl::exp {

nn::Architecture parse_model(const std::string& name) {
  if (name == "mlp") return nn::Architecture::kMlp;
  if (name == "resnet18") return nn::Architecture::kResNet18Lite;
  if (name == "vgg16") return nn::Architecture::kVgg16Lite;
  throw InvalidArgument("unknown --model: " + name);
}

data::Partition parse_partition(const std::string& spec,
                                const data::Dataset& train,
                                std::size_t devices, Rng& rng) {
  if (spec == "iid") return data::partition_iid(train, devices, rng);
  if (spec.rfind("dirichlet:", 0) == 0) {
    const double alpha = std::atof(spec.c_str() + 10);
    return data::partition_dirichlet(train, devices, alpha, rng);
  }
  if (spec.rfind("shards:", 0) == 0) {
    const int shards = std::atoi(spec.c_str() + 7);
    return data::partition_shards(train, devices,
                                  static_cast<std::size_t>(shards), rng);
  }
  throw InvalidArgument("unknown --partition: " + spec);
}

core::SyncCompression parse_sync_codec(const std::string& name) {
  if (name == "none") return core::SyncCompression::kNone;
  if (name == "int8") return core::SyncCompression::kInt8;
  if (name == "topk") return core::SyncCompression::kTopK;
  throw InvalidArgument("unknown --sync-codec: " + name);
}

std::string sync_codec_arg(const ArgParser& args) {
  // --int8-broadcast predates --sync-codec and survives as an alias; an
  // explicit --sync-codec wins.
  if (args.has("sync-codec")) return args.get("sync-codec", "none");
  return args.has("int8-broadcast") ? "int8" : "none";
}

std::string sync_codec_flag_error(const std::string& codec,
                                  double topk_ratio) {
  if (codec != "none" && codec != "int8" && codec != "topk") {
    return "unknown --sync-codec: " + codec + " (want none, int8, or topk)";
  }
  if (!(topk_ratio > 0.0) || topk_ratio > 1.0) {
    return "--topk-ratio out of range (want 0 < ratio <= 1): " +
           std::to_string(topk_ratio);
  }
  return "";
}

std::string fleet_flag_error(const ArgParser& args) {
  static const std::vector<std::string> kFleetFlags{
      "fleet-devices", "fleet-cohort", "fleet-rounds",
      "fleet-churn",   "fleet-threads", "fleet-momentum"};
  if (!args.has("fleet")) {
    for (const std::string& flag : kFleetFlags) {
      if (args.has(flag)) {
        return "--" + flag + " requires --fleet";
      }
    }
    return "";
  }
  const int devices = args.get_int("fleet-devices", 1000);
  if (devices <= 0) {
    return "--fleet-devices must be positive: " + std::to_string(devices);
  }
  const int cohort = args.get_int("fleet-cohort", 0);
  if (cohort < 0) {
    return "--fleet-cohort must be non-negative: " + std::to_string(cohort);
  }
  const int rounds = args.get_int("fleet-rounds", 0);
  if (rounds < 0) {
    return "--fleet-rounds must be non-negative: " + std::to_string(rounds);
  }
  const int threads = args.get_int("fleet-threads", 0);
  if (threads < 0) {
    return "--fleet-threads must be non-negative: " + std::to_string(threads);
  }
  const double churn = args.get_double("fleet-churn", 0.0);
  if (churn < 0.0 || churn > 1.0) {
    return "--fleet-churn out of range (want 0 <= f <= 1): " +
           std::to_string(churn);
  }
  const double momentum = args.get_double("fleet-momentum", 0.0);
  if (momentum < 0.0 || momentum >= 1.0) {
    return "--fleet-momentum out of range (want 0 <= mu < 1): " +
           std::to_string(momentum);
  }
  const int np = args.get_int("np", 2);
  const bool sampled = cohort > 0 && cohort < devices;
  if (sampled && cohort < np) {
    return "--fleet-cohort=" + std::to_string(cohort) +
           " smaller than --np=" + std::to_string(np);
  }
  const std::string policy = args.get("policy", "gaussian-quartile");
  if (sampled && policy != "gaussian-quartile" && policy != "top-k") {
    return "--fleet-cohort supports --policy=gaussian-quartile|top-k; got " +
           policy;
  }
  // Untrained cohort devices keep no error-feedback residuals or measured
  // step times; exact mode (cohort 0 or >= devices) runs both.
  const std::string codec = sync_codec_arg(args);
  if (sampled && codec != "none") {
    return "--fleet-cohort=" + std::to_string(cohort) +
           " supports --sync-codec=none only; got " + codec;
  }
  if (sampled && args.has("adaptive")) {
    return "--adaptive requires the exact fleet mode (--fleet-cohort=0)";
  }
  return "";
}

std::string adaptive_flag_error(const ArgParser& args) {
  static const std::vector<std::string> kAdaptiveFlags{
      "adaptive-alpha", "adaptive-warmup", "adaptive-tune"};
  if (!args.has("adaptive")) {
    for (const std::string& flag : kAdaptiveFlags) {
      if (args.has(flag)) {
        return "--" + flag + " requires --adaptive";
      }
    }
    return "";
  }
  if (args.get("scheme", "hadfl") != "hadfl") {
    return "--adaptive only applies to --scheme=hadfl";
  }
  const double alpha = args.get_double("adaptive-alpha", 0.4);
  if (!(alpha > 0.0) || alpha > 1.0) {
    return "--adaptive-alpha out of range (want 0 < alpha <= 1): " +
           std::to_string(alpha);
  }
  const int warmup = args.get_int("adaptive-warmup", 2);
  if (warmup < 0) {
    return "--adaptive-warmup must be non-negative: " +
           std::to_string(warmup);
  }
  for (const std::string& knob :
       split_csv_list(args.get("adaptive-tune", "budgets,chunks,codec"))) {
    if (knob != "budgets" && knob != "chunks" && knob != "codec") {
      return "unknown --adaptive-tune knob: " + knob +
             " (want budgets, chunks, codec)";
    }
  }
  return "";
}

std::vector<sim::DriftEvent> parse_drift(const std::string& spec,
                                         std::size_t num_devices) {
  std::vector<sim::DriftEvent> events;
  if (spec.empty()) return events;
  for (const std::string& piece : split_csv_list(spec)) {
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (start <= piece.size()) {
      const std::size_t colon = piece.find(':', start);
      if (colon == std::string::npos) {
        fields.push_back(piece.substr(start));
        break;
      }
      fields.push_back(piece.substr(start, colon - start));
      start = colon + 1;
    }
    const std::string want =
        " (want DEV:ROUND:FACTOR[:step|ramp:R|square:P:D])";
    if (fields.size() < 3) {
      throw InvalidArgument("bad --drift spec: " + piece + want);
    }
    sim::DriftEvent event;
    event.device = static_cast<std::size_t>(std::atol(fields[0].c_str()));
    event.from_round = static_cast<std::size_t>(std::atol(fields[1].c_str()));
    event.factor = std::atof(fields[2].c_str());
    if (event.device >= num_devices) {
      throw InvalidArgument("--drift device out of range: " + piece);
    }
    if (!(event.factor > 0.0)) {
      throw InvalidArgument("--drift factor must be positive: " + piece);
    }
    const std::string kind = fields.size() > 3 ? fields[3] : "step";
    if (kind == "step") {
      if (fields.size() > 4) {
        throw InvalidArgument("bad --drift spec: " + piece + want);
      }
      event.kind = sim::DriftKind::kStep;
    } else if (kind == "ramp") {
      if (fields.size() != 5) {
        throw InvalidArgument("--drift ramp needs a round count: " + piece +
                              want);
      }
      event.kind = sim::DriftKind::kRamp;
      event.ramp_rounds =
          static_cast<std::size_t>(std::atol(fields[4].c_str()));
      if (event.ramp_rounds == 0) {
        throw InvalidArgument("--drift ramp rounds must be positive: " +
                              piece);
      }
    } else if (kind == "square") {
      if (fields.size() != 6) {
        throw InvalidArgument("--drift square needs period and duty: " +
                              piece + want);
      }
      event.kind = sim::DriftKind::kSquare;
      event.period = static_cast<std::size_t>(std::atol(fields[4].c_str()));
      event.duty = static_cast<std::size_t>(std::atol(fields[5].c_str()));
      if (event.period == 0 || event.duty == 0 ||
          event.duty > event.period) {
        throw InvalidArgument(
            "--drift square wants 0 < duty <= period: " + piece);
      }
    } else {
      throw InvalidArgument("unknown --drift kind: " + kind + want);
    }
    events.push_back(event);
  }
  return events;
}

fl::SchemeContext RunSetup::context() const {
  const fl::SchemeContext base = env->context();
  return fl::SchemeContext{base.cluster, base.network,  base.train,
                           base.test,    partition,     base.make_model,
                           base.config,  base.comm_state_bytes};
}

void apply_hadfl_flags(const ArgParser& args, core::HadflConfig& hadfl) {
  hadfl.strategy.select_count =
      static_cast<std::size_t>(args.get_int("np", 2));
  hadfl.strategy.t_sync = args.get_int("tsync", 1);
  hadfl.broadcast_mix_weight = args.get_double("mix", 0.8);
  hadfl.policy =
      core::make_selection_policy(args.get("policy", "gaussian-quartile"));
  const int group_size = args.get_int("group-size", 0);
  if (group_size > 0) {
    hadfl.grouping.group_size = static_cast<std::size_t>(group_size);
  }
  // Codec knobs live on the hadfl config so the sim, rt, and net backends
  // all encode the same chunks from the same settings.
  hadfl.compression = parse_sync_codec(sync_codec_arg(args));
  hadfl.top_k_ratio = args.get_double("topk-ratio", hadfl.top_k_ratio);
  hadfl.sync_chunks =
      static_cast<std::size_t>(args.get_int("sync-chunks", 0));
  // Adaptive-control knobs (src/ctrl). Off by default; with the flag off
  // no controller is built and every backend runs bit-identical to the
  // static path. The --sync-codec/--sync-chunks values above become the
  // controller's round-0 seed when it is on.
  hadfl.adaptive.enabled = args.has("adaptive");
  if (hadfl.adaptive.enabled) {
    ctrl::AdaptiveConfig& a = hadfl.adaptive;
    a.step_time_alpha = args.get_double("adaptive-alpha", a.step_time_alpha);
    a.warmup_rounds = static_cast<std::size_t>(args.get_int(
        "adaptive-warmup", static_cast<int>(a.warmup_rounds)));
    const std::vector<std::string> knobs =
        split_csv_list(args.get("adaptive-tune", "budgets,chunks,codec"));
    a.tune_budgets = a.tune_chunks = a.tune_codec = false;
    for (const std::string& knob : knobs) {
      if (knob == "budgets") a.tune_budgets = true;
      if (knob == "chunks") a.tune_chunks = true;
      if (knob == "codec") a.tune_codec = true;
    }
  }
}

RunSetup make_run_setup(const ArgParser& args) {
  RunSetup setup;
  setup.scenario = paper_scenario(
      parse_model(args.get("model", "mlp")),
      args.get_double_list("ratio", {3, 3, 1, 1}),
      args.get_double("scale", 1.0),
      static_cast<std::uint64_t>(args.get_int("seed", 7)));
  Scenario& s = setup.scenario;
  s.train.total_epochs = args.get_int("epochs", 16);
  s.jitter_std = args.get_double("jitter", 0.0);
  apply_hadfl_flags(args, s.hadfl);
  if (args.get("network", "pcie") == "wan") {
    s.network = sim::NetworkModel::wan();
  }

  setup.env = std::make_unique<Environment>(s);
  // The partition stream is pinned: Rng(seed ^ 0x5151), drawn exactly once.
  Rng part_rng(s.train.seed ^ 0x5151u);
  setup.partition =
      parse_partition(args.get("partition", "iid"), setup.env->train(),
                      s.num_devices(), part_rng);
  return setup;
}

rt::RtConfig make_rt_config(const ArgParser& args, const Scenario& scenario) {
  rt::RtConfig config;
  config.hadfl = scenario.hadfl;
  config.timing = args.has("wallclock") ? rt::TimingMode::kWallclock
                                        : rt::TimingMode::kVirtual;
  config.time_scale = args.get_double("time-scale", 0.0);
  config.compute_throttle = args.get_double("throttle", 0.0);
  const std::string die = args.get("die", "");
  if (!die.empty()) {
    rt::FaultPlan plan;
    if (std::sscanf(die.c_str(), "%zu:%zu:%zu", &plan.device, &plan.round,
                    &plan.after_steps) != 3) {
      throw InvalidArgument("bad --die spec (want DEV:ROUND:STEP): " + die);
    }
    if (plan.device >= scenario.num_devices()) {
      throw InvalidArgument("--die device out of range: " + die);
    }
    config.faults.push_back(plan);
  }
  return config;
}

std::vector<std::string> scenario_forward_args(const ArgParser& args) {
  // Value flags a node needs verbatim; --die and --drift are intentionally
  // absent — fault/drift injection is coordinator-side state (deaths reach
  // workers via Command::die_after; drift only alters budget arithmetic).
  static const char* const kValueKeys[] = {
      "model", "ratio",     "epochs",  "scale",  "seed",
      "np",    "tsync",     "policy",  "mix",    "group-size",
      "partition", "network", "jitter", "throttle", "sync-chunks",
      "sync-codec", "topk-ratio",
      "adaptive-alpha", "adaptive-warmup", "adaptive-tune"};
  static const char* const kFlagKeys[] = {"wallclock", "int8-broadcast",
                                          "adaptive"};
  std::vector<std::string> out;
  for (const char* key : kValueKeys) {
    if (args.has(key)) out.push_back("--" + std::string(key) + "=" +
                                     args.get(key));
  }
  for (const char* key : kFlagKeys) {
    if (args.has(key)) out.push_back("--" + std::string(key));
  }
  return out;
}

std::string backend_flag_error(const std::string& scheme,
                               const std::string& backend,
                               bool has_transport,
                               const std::string& transport) {
  if (backend != "sim" && backend != "rt" && backend != "net") {
    return "unknown --backend: " + backend + " (want sim, rt, or net)";
  }
  if (transport != "tcp" && transport != "uds") {
    return "unknown --transport: " + transport + " (want tcp or uds)";
  }
  if (has_transport && backend != "net") {
    return "--transport requires --backend=net";
  }
  if (backend != "sim" && scheme != "hadfl") {
    return "--backend=" + backend + " only applies to --scheme=hadfl";
  }
  return "";
}

std::uint64_t state_hash(std::span<const float> state) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (float x : state) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (bits >> shift) & 0xffu;
      h *= 0x100000001b3ULL;  // FNV prime
    }
  }
  return h;
}

}  // namespace hadfl::exp
