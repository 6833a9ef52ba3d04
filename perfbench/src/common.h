// Shared pieces of the EvRec end-to-end benchmark (see ../README.md): the
// fixed workload constants, the system under test as one set-up builds it,
// and the run-wide result record the workloads fill in.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "evrec/ann/ivf_index.h"
#include "evrec/pipeline/pipeline.h"
#include "evrec/pipeline/serving.h"

namespace perfbench {

// Worker threads of both pipelines' pools (vector precompute and the
// refresh job's data-parallel training). Two halves those phases' wall
// time against one worker, so a run stays near 40 s, and leaves the rest
// of a 4-core machine to its other load.
constexpr int kWorkers = 2;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// Epochs of the refresh job (early stopping off); epoch_s is the median of
// their wall times.
constexpr int kRefreshEpochs = 3;

// Request make-up: retrieval depth K uniform in [kMinK, kMaxK], IVF over
// 16 lists probing kNprobe, eval-week days.
constexpr int kMinK = 100;
constexpr int kMaxK = 1000;
constexpr int kNprobe = 4;
constexpr int kFirstEvalDay = 35;
constexpr int kLastEvalDay = 41;
// recommend_cold: event vectors invalidated before every request, and the
// requesting user's vector before every kUserInvalidateEvery-th request.
constexpr int kColdInvalidations = 20;
constexpr int kUserInvalidateEvery = 10;
// Large enough that no candidate degrades on a loaded machine.
constexpr int64_t kBudgetMicros = 60LL * 1000 * 1000;
// Requests served before timing starts (not counted, still checked).
constexpr int kWarmupRequests = 50;
// The latency tail reported, and the samples that must lie beyond it.
constexpr double kTailQuantile = 0.99;
constexpr size_t kTailBeyond = 10;

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // one set-up and a 40-request floor
  std::string cache_dir;
};

// Everything one set-up builds: the serving system over the cached
// bench-profile model, and the (prepared, untrained) refresh pipeline.
// Member order matters: the bundle points into `serving` and must die
// first.
struct System {
  std::unique_ptr<evrec::pipeline::TwoStagePipeline> serving;
  evrec::pipeline::ServingBundle bundle;
  evrec::ann::IvfIndex index;
  std::unique_ptr<evrec::pipeline::TwoStagePipeline> refresh;
};

// What a run reports. Checks append to `errors`; any entry makes the run
// incorrect.
struct RunRecord {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
  // ComputeRepVectors wall times (every set-up's, the refresh job's and
  // its repeats'); precompute_s is their median.
  std::vector<double> precompute_samples;
  // Wall times of EvaluateFeatureConfig(full) on the refresh pipeline (the
  // job's fit and its repeats); combiner_s is their median.
  std::vector<double> combiner_samples;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

evrec::baseline::FeatureConfig FullFeatures();
evrec::baseline::FeatureConfig BaselineFeatures();

// The bench profile with this benchmark's cache directory and workers.
evrec::pipeline::PipelineConfig ServingConfig(const std::string& cache_dir);
// The bench profile trained from scratch for kRefreshEpochs, no cache.
evrec::pipeline::PipelineConfig RefreshConfig();

// The offline refresh job on system.refresh: train, precompute, fit and
// evaluate both combiners, then repeat the precompute and the full
// combiner fit for more precompute_s and combiner_s samples. Fills epoch_s
// and auc and the precompute and combiner samples; with trace, replays a
// sample of minibatches, vector recomputes and the combiner fit and fills
// the training per-layer metrics instead.
void RunRefresh(System& system, const Options& options, RunRecord* record);

// The seeded request stream of `recommend` or `recommend_cold`, served by
// one closed-loop client for options.seconds and then on to its request
// floor. Runs the deferred checks and fills the request metrics, or with
// trace the serving per-layer metrics from the replay of every timed
// request's stages.
void RunServing(System& system, const Options& options, bool cold,
                RunRecord* record);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
