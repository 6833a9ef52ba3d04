// EvRec end-to-end benchmark (see ../README.md). One process runs one
// workload:
//
//   evrec_perfbench --workload recommend|recommend_cold --seed N
//                   --seconds S --trace 0|1 --cache-dir DIR [--smoke]
//   evrec_perfbench --prepare-model --cache-dir DIR
//
// A run sets the system up kSetups times, runs the refresh job, then
// serves the seeded request stream for S seconds.
// Its last stdout line is "RESULT {json}": correct, attempted, failed and
// the metrics by name (end-to-end ones untraced, per-layer ones traced).
// Exit codes: 0 done and correct, 1 a check failed, 2 bad usage, 3 the
// model cache is missing.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common/bench_profile.h"
#include "common.h"
#include "stats.h"

namespace perfbench {

evrec::baseline::FeatureConfig FullFeatures() {
  evrec::baseline::FeatureConfig f;
  f.base = true;
  f.cf = true;
  f.rep_vectors = true;
  f.rep_score = true;
  return f;
}

evrec::baseline::FeatureConfig BaselineFeatures() {
  evrec::baseline::FeatureConfig f;
  f.base = true;
  f.cf = true;
  return f;
}

evrec::pipeline::PipelineConfig ServingConfig(const std::string& cache_dir) {
  evrec::pipeline::PipelineConfig cfg = evrec::bench::BenchProfile();
  cfg.cache_dir = cache_dir;
  cfg.threads = kWorkers;
  return cfg;
}

evrec::pipeline::PipelineConfig RefreshConfig() {
  evrec::pipeline::PipelineConfig cfg = evrec::bench::BenchProfile();
  cfg.cache_dir.clear();
  cfg.threads = kWorkers;
  cfg.rep.max_epochs = kRefreshEpochs;
  cfg.rep.early_stop_patience = kRefreshEpochs + 1;
  return cfg;
}

namespace {

bool HasCachedModel(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("evrec_repmodel_", 0) == 0 &&
        name.size() > 4 && name.compare(name.size() - 4, 4, ".bin") == 0) {
      return true;
    }
  }
  return false;
}

// One set-up: Prepare, load the cached model, precompute every vector,
// build the serving bundle (both combiners) and the IVF index; then
// prepare the refresh pipeline. Returns nullptr when the model had to be
// trained instead of loaded.
std::unique_ptr<System> SetUp(const Options& options, RunRecord* record) {
  auto system = std::make_unique<System>();
  system->serving = std::make_unique<evrec::pipeline::TwoStagePipeline>(
      ServingConfig(options.cache_dir));
  system->serving->Prepare();
  if (system->serving->TrainRepresentation().epochs_run != 0) return nullptr;
  const double t = Now();
  system->serving->ComputeRepVectors();
  record->precompute_samples.push_back(Now() - t);
  system->bundle =
      evrec::pipeline::BuildServingBundle(*system->serving, FullFeatures());
  system->index.Build(system->serving->event_rep_block(),
                      evrec::ann::IvfConfig{});
  system->refresh =
      std::make_unique<evrec::pipeline::TwoStagePipeline>(RefreshConfig());
  system->refresh->Prepare();
  return system;
}

// The served combiners keep the paper's Table-1 ordering on week 6.
void CheckServingCombiners(const System& system, RunRecord* record) {
  const auto& pipe = *system.serving;
  auto auc = [&](const evrec::gbdt::GbdtModel& model,
                 const evrec::baseline::FeatureConfig& features) {
    evrec::gbdt::DataMatrix x;
    std::vector<float> y;
    system.bundle.assembler->Assemble(pipe.dataset().eval, features, &x, &y);
    return RankSumAuc(model.PredictProbabilities(x), y);
  };
  const double primary = auc(system.bundle.primary, FullFeatures());
  const double fallback = auc(system.bundle.fallback, BaselineFeatures());
  std::printf("serving model: week-6 AUC full %.4f vs baseline %.4f\n",
              primary, fallback);
  record->Check(primary > fallback,
                "served full combiner does not beat the baseline one");
}

// Trains the serving model into the cache. Training gives the same bits at
// any thread count, so this one-time job uses up to four cores.
int PrepareModel(const std::string& cache_dir) {
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  evrec::pipeline::PipelineConfig cfg = ServingConfig(cache_dir);
  cfg.threads = threads;
  evrec::pipeline::TwoStagePipeline pipe(cfg);
  pipe.Prepare();
  const double t = Now();
  const evrec::model::TrainStats stats = pipe.TrainRepresentation();
  std::printf("model: %d epochs trained in %.1fs at %d threads into %s\n",
              stats.epochs_run, Now() - t, threads, cache_dir.c_str());
  if (!HasCachedModel(cache_dir)) {
    std::fprintf(stderr, "model was not written to %s\n", cache_dir.c_str());
    return 3;
  }
  return 0;
}

void PrintResult(const RunRecord& record) {
  std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"metrics\": {",
              record.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(record.attempted),
              static_cast<unsigned long long>(record.failed));
  const char* sep = "";
  for (const auto& [name, value] : record.metrics) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: evrec_perfbench --workload recommend|recommend_cold "
               "--seed N --seconds S --trace 0|1 --cache-dir DIR "
               "[--smoke]\n"
               "       evrec_perfbench --prepare-model --cache-dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool prepare_model = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--prepare-model") {
      prepare_model = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "1") == 0;
    } else if (arg == "--cache-dir" && has_value) {
      options.cache_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (options.cache_dir.empty()) return Usage();
  if (prepare_model) return PrepareModel(options.cache_dir);
  const bool cold = options.workload == "recommend_cold";
  if (!cold && options.workload != "recommend") return Usage();
  if (!HasCachedModel(options.cache_dir)) {
    std::fprintf(stderr, "no cached model in %s (run --prepare-model)\n",
                 options.cache_dir.c_str());
    return 3;
  }

  RunRecord record;
  std::vector<double> setup_s;
  std::unique_ptr<System> system;
  const int setups = options.smoke ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    system.reset();
    const double t = Now();
    system = SetUp(options, &record);
    setup_s.push_back(Now() - t);
    if (system == nullptr) {
      std::fprintf(stderr, "set-up trained the model instead of loading "
                           "it from %s\n",
                   options.cache_dir.c_str());
      return 3;
    }
  }
  std::printf("set-up: %d times, median %.4fs\n", setups, Median(setup_s));
  CheckServingCombiners(*system, &record);
  RunRefresh(*system, options, &record);
  RunServing(*system, options, cold, &record);

  if (!options.trace) {
    record.metrics["setup_s"] = Median(setup_s);
    record.metrics["precompute_s"] = Median(record.precompute_samples);
    record.metrics["combiner_s"] = Median(record.combiner_samples);
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    record.metrics["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) /
                                    1024.0;  // ru_maxrss is in KiB
  }
  auto print_samples = [](const char* name, const std::vector<double>& v) {
    std::printf("samples %s:", name);
    for (double x : v) std::printf(" %.4f", x);
    std::printf("\n");
  };
  print_samples("setup_s", setup_s);
  print_samples("precompute_s", record.precompute_samples);
  print_samples("combiner_s", record.combiner_samples);
  for (const std::string& e : record.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::fflush(stdout);
  PrintResult(record);
  return record.errors.empty() ? 0 : 1;
}
