#include "common.hpp"

#include <iostream>

namespace shmd::bench {

void add_common_flags(util::CliParser& cli) {
  cli.add_flag("malware", "number of malware programs in the corpus", "1200");
  cli.add_flag("benign", "number of benign programs in the corpus", "240");
  cli.add_flag("trace-length", "instructions traced per program", "32768");
  cli.add_flag("epochs", "training epochs for detector networks", "150");
  cli.add_flag("attack-samples", "malware programs attacked per measurement", "100");
  cli.add_flag("repeats", "repeats for mean/std aggregation", "5");
  cli.add_flag("rotations", "3-fold cross-validation rotations to run (1..3)", "3");
  cli.add_flag("workers", "scoring-service worker threads (0 = all cores)", "0");
  cli.add_flag("seed", "master seed for the corpus", "12648430");  // 0xC0FFEE
  cli.add_flag("csv", "write the result table to this CSV file", "");
  cli.add_bool("paper-scale", "use the paper's full 3000/600 corpus and 50 repeats");
  cli.add_bool("quick", "tiny corpus for smoke runs");
}

BenchConfig config_from_cli(const util::CliParser& cli) {
  BenchConfig cfg;
  cfg.dataset.corpus.n_malware = static_cast<std::size_t>(cli.get_int("malware"));
  cfg.dataset.corpus.n_benign = static_cast<std::size_t>(cli.get_int("benign"));
  cfg.dataset.corpus.master_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  cfg.dataset.trace_length = static_cast<std::size_t>(cli.get_int("trace-length"));
  cfg.train.train.epochs = cli.get_int("epochs");
  cfg.attack_samples = static_cast<std::size_t>(cli.get_int("attack-samples"));
  cfg.repeats = cli.get_int("repeats");
  cfg.rotations = cli.get_int("rotations");
  cfg.workers = static_cast<std::size_t>(cli.get_int("workers"));
  if (cli.get_bool("paper-scale")) {
    cfg.dataset.corpus.n_malware = 3000;
    cfg.dataset.corpus.n_benign = 600;
    cfg.repeats = 50;
    cfg.attack_samples = 400;
  }
  if (cli.get_bool("quick")) {
    cfg.dataset.corpus.n_malware = 300;
    cfg.dataset.corpus.n_benign = 60;
    cfg.dataset.trace_length = 16384;
    cfg.train.train.epochs = 80;
    cfg.repeats = 2;
    cfg.rotations = 1;
    cfg.attack_samples = 40;
  }
  if (const std::string path = cli.get("csv"); !path.empty()) cfg.csv_path = path;
  return cfg;
}

std::optional<BenchConfig> parse_bench_args(int argc, const char* const* argv,
                                            util::CliParser& cli) {
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return std::nullopt;
  if (cli.get_int("workers") < 0) {
    std::cerr << "error: --workers must be >= 0 (0 = all cores)\n";
    return std::nullopt;
  }
  return config_from_cli(cli);
}

void emit(const util::Table& table, const BenchConfig& config) {
  table.print(std::cout);
  if (config.csv_path) {
    table.save_csv(*config.csv_path);
    std::printf("(csv written to %s)\n", config.csv_path->c_str());
  }
}

trace::FeatureConfig victim_config(const trace::Dataset& ds) {
  return trace::FeatureConfig{trace::FeatureView::kInsnCategory, ds.config().periods.front()};
}

attack::EvasionConfig make_evasion_config(const trace::Dataset& ds,
                                          const trace::FoldSplit& folds) {
  attack::EvasionConfig cfg;
  cfg.mimicry_mix =
      attack::benign_category_mix(ds, folds.attacker_training, ds.config().periods.front());
  return cfg;
}

std::vector<std::size_t> malware_subset(const trace::Dataset& ds,
                                        const trace::FoldSplit& folds, std::size_t limit) {
  std::vector<std::size_t> out;
  for (std::size_t idx : folds.testing) {
    if (out.size() >= limit) break;
    if (ds.samples()[idx].malware()) out.push_back(idx);
  }
  return out;
}

}  // namespace shmd::bench
