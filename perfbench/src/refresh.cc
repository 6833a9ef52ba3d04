// The offline refresh job every run performs: train the joint model for
// kRefreshEpochs with TwoStagePipeline::TrainRepresentation, precompute
// every vector, then fit and evaluate the full-feature and baseline-only
// combiners; then repeat the precompute and the full combiner fit for more
// samples of their wall times. Traced runs additionally replay a fixed
// sample of minibatches through the tower and model calls, and the combiner
// fit through the assembler and GBDT calls.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "evrec/model/joint_model.h"
#include "evrec/serve/vector_store.h"
#include "evrec/util/math_util.h"
#include "evrec/util/rng.h"
#include "evrec/util/string_util.h"
#include "stats.h"

namespace perfbench {
namespace {

using evrec::StrFormat;
using evrec::model::JointModel;
using evrec::model::Tower;

// Minibatches replayed per traced run, and the fixed seed choosing them.
constexpr int kReplayBatches = 48;
constexpr uint64_t kReplaySeed = 4242;
// Events whose vector the traced run recomputes and rewrites.
constexpr int kForwardSample = 256;
// Repeats of the job's tail, each kPrecomputeRepeats ComputeRepVectors
// calls and one full combiner fit: a 0.6 s call's wall time swings by a
// quarter from one call to the next on a shared machine, so precompute_s
// and combiner_s take the median of many.
constexpr int kTailRepeats = 2;
constexpr int kPrecomputeRepeats = 3;

struct TowerTimes {
  double bank_s = 0, head_s = 0;
  uint64_t bank_calls = 0, head_calls = 0;
};

// Tower::Forward through its public parts: every extraction bank, the
// frozen standardization, then the head. The replay checks the resulting
// similarity against JointModel::Similarity, so a change in how a tower
// composes its parts shows as a failed check, not as wrong timings.
void ForwardTower(const Tower& tower,
                  const std::vector<evrec::text::EncodedText>& inputs,
                  Tower::Context* ctx, TowerTimes* times) {
  ctx->banks.resize(static_cast<size_t>(tower.num_banks()));
  ctx->concat.assign(static_cast<size_t>(tower.concat_dim()), 0.0f);
  size_t offset = 0;
  for (int i = 0; i < tower.num_banks(); ++i) {
    const double t = Now();
    tower.bank(i).Forward(inputs[static_cast<size_t>(i)],
                          &ctx->banks[static_cast<size_t>(i)]);
    times->bank_s += Now() - t;
    ++times->bank_calls;
    const auto& out = ctx->banks[static_cast<size_t>(i)].output;
    std::copy(out.begin(), out.end(),
              ctx->concat.begin() + static_cast<long>(offset));
    offset += out.size();
  }
  tower.normalizer().Forward(ctx->concat.data(), ctx->concat.data());
  const double t = Now();
  tower.head().Forward(ctx->concat.data(), &ctx->head);
  times->head_s += Now() - t;
  ++times->head_calls;
}

// Replays kReplayBatches minibatches of the trainer's inner loop serially
// on a freshly initialized model: forward both towers, accumulate each
// pair's gradient into its shard buffer, fold the shards in order, step.
// `epoch_s` is a measured 1-worker epoch, which the scaled stages plus
// trainer.unattributed add up to.
void ReplayTraining(const evrec::pipeline::TwoStagePipeline& pipe,
                    double epoch_s, RunRecord* record) {
  const auto& cfg = pipe.config();
  const auto& enc = pipe.encoders();
  const auto& data = pipe.rep_data();
  JointModel model(cfg.rep, enc.UserTextVocab(), enc.UserCategoricalVocab(),
                   enc.EventTextVocab());
  evrec::Rng init_rng(cfg.rep.seed, /*stream=*/5);
  model.RandomInit(init_rng);
  model.CalibrateNormalizers(data);

  std::vector<evrec::model::RepPair> pairs = data.pairs;
  evrec::Rng sample_rng(kReplaySeed, /*stream=*/1);
  sample_rng.Shuffle(pairs);
  const size_t batch = static_cast<size_t>(std::max(1, cfg.rep.batch_size));
  pairs.resize(std::min(pairs.size(), batch * kReplayBatches));
  const int shards = std::max(1, cfg.grad_shards);
  std::vector<JointModel::GradBuffer> grads;
  for (int s = 0; s < shards; ++s) grads.push_back(model.MakeGradBuffer());

  JointModel::PairContext ctx, check_ctx;
  TowerTimes towers;
  double backward_s = 0, fold_s = 0, step_s = 0, check_s = 0;
  size_t mismatched = 0;
  const double start = Now();
  for (size_t b = 0; b < pairs.size(); b += batch) {
    const size_t end = std::min(b + batch, pairs.size());
    for (size_t i = b; i < end; ++i) {
      const auto& p = pairs[i];
      const auto& user = data.user_inputs[static_cast<size_t>(p.user)];
      const auto& event = data.event_inputs[static_cast<size_t>(p.event)];
      ForwardTower(model.user_tower(), user, &ctx.user, &towers);
      ForwardTower(model.event_tower(), event, &ctx.event, &towers);
      ctx.similarity = evrec::CosineSimilarity(
          ctx.user.head.rep.data(), ctx.event.head.rep.data(),
          static_cast<int>(ctx.user.head.rep.size()));
      if (i == b) {
        const double t = Now();
        if (model.Similarity(user, event, &check_ctx) != ctx.similarity) {
          ++mismatched;
        }
        check_s += Now() - t;
      }
      const double t = Now();
      model.AccumulatePairGradient(ctx, p.label, p.weight,
                                   &grads[(i - b) % static_cast<size_t>(
                                                        shards)]);
      backward_s += Now() - t;
    }
    double t = Now();
    for (auto& g : grads) model.AccumulateGradients(&g);
    fold_s += Now() - t;
    t = Now();
    model.Step(cfg.rep.learning_rate / static_cast<float>(end - b));
    step_s += Now() - t;
  }
  const double wall = Now() - start - check_s;
  record->Check(mismatched == 0,
                "replayed tower forward differs from JointModel::Similarity");

  const double batches =
      std::ceil(static_cast<double>(pairs.size()) / static_cast<double>(batch));
  const double staged =
      towers.bank_s + towers.head_s + backward_s + fold_s + step_s;
  // An epoch trains on the pairs left after the validation hold-out.
  const double epoch_pairs = static_cast<double>(data.pairs.size()) *
                             (1.0 - cfg.rep.validation_fraction);
  const double epoch_batches =
      std::ceil(epoch_pairs / static_cast<double>(batch));
  const double scale = epoch_batches / batches;
  const double unattributed = epoch_s - wall * scale;
  std::printf("epoch breakdown (s): a measured 1-worker epoch, stages "
              "replayed serially on %.0f minibatches and scaled to the "
              "epoch's %.0f:\n",
              batches, epoch_batches);
  std::printf("  %-28s %10.4f\n", "epoch (measured)", epoch_s);
  std::printf("  %-28s %10.4f\n", "model.bank_forward",
              towers.bank_s * scale);
  std::printf("  %-28s %10.4f\n", "model.head_forward",
              towers.head_s * scale);
  std::printf("  %-28s %10.4f\n", "model.pair_backward", backward_s * scale);
  std::printf("  %-28s %10.4f\n", "model.grad_fold", fold_s * scale);
  std::printf("  %-28s %10.4f\n", "model.step", step_s * scale);
  std::printf("  %-28s %10.4f  (concat, norm, cosine, timers)\n",
              "replay.other", (wall - staged) * scale);
  std::printf("  %-28s %10.4f  (validation pass, spans, shard "
              "bookkeeping)\n",
              "trainer.unattributed", unattributed);
  std::printf("  stages + unattributed = %.4f s = epoch\n",
              wall * scale + unattributed);
  record->metrics["model.bank_forward_us"] =
      towers.bank_s * 1e6 / static_cast<double>(towers.bank_calls);
  record->metrics["model.head_forward_us"] =
      towers.head_s * 1e6 / static_cast<double>(towers.head_calls);
  record->metrics["model.pair_backward_us"] =
      backward_s * 1e6 / static_cast<double>(pairs.size());
  record->metrics["model.grad_fold_us"] = fold_s * 1e6 / batches;
  record->metrics["model.step_us"] = step_s * 1e6 / batches;
  record->metrics["trainer.unattributed_s"] = unattributed;
}

// Recomputes a fixed sample of event vectors with the refreshed model and
// writes them back through the serving store adapter, as an event edit
// does. Each recomputed vector must equal the precomputed one.
void ReplayPrecompute(evrec::pipeline::TwoStagePipeline& pipe,
                      RunRecord* record) {
  const auto& data = pipe.rep_data();
  const int n = std::min(kForwardSample, data.num_events());
  std::vector<std::vector<float>> vecs(static_cast<size_t>(n));
  double t = Now();
  for (int e = 0; e < n; ++e) {
    vecs[static_cast<size_t>(e)] =
        pipe.rep_model().EventVector(data.event_inputs[static_cast<size_t>(e)]);
  }
  const double forward_s = Now() - t;
  evrec::serve::RepCacheVectorStore store(&pipe.mutable_rep_cache());
  t = Now();
  for (int e = 0; e < n; ++e) {
    store.Put(evrec::store::EntityKind::kEvent, e,
              vecs[static_cast<size_t>(e)]);
  }
  const double put_s = Now() - t;
  int mismatched = 0;
  for (int e = 0; e < n; ++e) {
    const size_t i = static_cast<size_t>(e);
    if (vecs[i] != pipe.event_reps()[i]) {
      ++mismatched;
    }
  }
  record->Check(mismatched == 0,
                StrFormat("%d recomputed event vectors differ from the "
                          "precomputed ones",
                          mismatched));
  record->metrics["model.event_forward_us"] = forward_s * 1e6 / n;
  record->metrics["store.put_ns"] = put_s * 1e9 / n;
}

// Replays EvaluateFeatureConfig(full): assemble the week-5 rows, fit the
// GBDT, assemble and score the week-6 rows. The refit must reproduce the
// job's combiner exactly.
void ReplayCombiner(evrec::pipeline::TwoStagePipeline& pipe,
                    const evrec::gbdt::GbdtModel& job_model,
                    double combiner_s, RunRecord* record) {
  evrec::baseline::FeatureAssembler assembler(
      pipe.feature_index(), &pipe.user_reps(), &pipe.event_reps());
  const auto& dataset = pipe.dataset();
  evrec::gbdt::DataMatrix train_x, eval_x;
  std::vector<float> train_y, eval_y;
  double t = Now();
  assembler.Assemble(dataset.combiner_train, FullFeatures(), &train_x,
                     &train_y);
  const double assemble_train_s = Now() - t;
  t = Now();
  evrec::gbdt::GbdtModel model;
  model.Train(train_x, train_y, pipe.config().gbdt);
  const double fit_s = Now() - t;
  t = Now();
  assembler.Assemble(dataset.eval, FullFeatures(), &eval_x, &eval_y);
  const double assemble_eval_s = Now() - t;
  t = Now();
  const std::vector<double> probs = model.PredictProbabilities(eval_x);
  const double predict_s = Now() - t;
  record->Check(probs == job_model.PredictProbabilities(eval_x),
                "refitted combiner differs from the refresh job's");
  const double rows =
      static_cast<double>(dataset.combiner_train.size() + dataset.eval.size());
  const double staged =
      assemble_train_s + fit_s + assemble_eval_s + predict_s;
  std::printf("combiner replay (s), against the job's combiner_s %.4f:\n",
              combiner_s);
  std::printf("  %-28s %10.4f  (%.0f rows)\n", "baseline.assemble",
              assemble_train_s + assemble_eval_s, rows);
  std::printf("  %-28s %10.4f\n", "gbdt.fit", fit_s);
  std::printf("  %-28s %10.4f\n", "gbdt.predict", predict_s);
  std::printf("  %-28s %10.4f  (metrics, logging)\n", "unattributed",
              combiner_s - staged);
  record->metrics["baseline.assemble_us_per_row"] =
      (assemble_train_s + assemble_eval_s) * 1e6 / rows;
  record->metrics["gbdt.fit_s"] = fit_s;
}

// Repeats the job's tail on the trained pipeline: invalidate every vector
// and ComputeRepVectors, kPrecomputeRepeats times, then fit and evaluate
// the full-feature combiner again, which must give the job's AUC.
void RepeatTail(evrec::pipeline::TwoStagePipeline& pipe, double job_auc,
                RunRecord* record) {
  evrec::store::RepVectorCache& cache = pipe.mutable_rep_cache();
  for (int i = 0; i < kPrecomputeRepeats; ++i) {
    // Every vector changed: drop them all, so ComputeRepVectors recomputes
    // each one through the towers as the job's first call did.
    for (int u = 0; u < pipe.dataset().num_users(); ++u) {
      cache.Invalidate(evrec::store::EntityKind::kUser, u);
    }
    for (int e = 0; e < pipe.dataset().num_events(); ++e) {
      cache.Invalidate(evrec::store::EntityKind::kEvent, e);
    }
    const double t = Now();
    pipe.ComputeRepVectors();
    record->precompute_samples.push_back(Now() - t);
  }
  const double t = Now();
  const evrec::pipeline::EvalResult full =
      pipe.EvaluateFeatureConfig(FullFeatures());
  record->combiner_samples.push_back(Now() - t);
  record->Check(full.auc == job_auc,
                "a repeated precompute and combiner fit gave another AUC "
                "than the job's");
}

}  // namespace

void RunRefresh(System& system, const Options& options, RunRecord* record) {
  evrec::pipeline::TwoStagePipeline& pipe = *system.refresh;
  const double start = Now();
  const evrec::model::TrainStats stats = pipe.TrainRepresentation();
  const double train_s = Now() - start;
  record->Check(stats.epochs_run == kRefreshEpochs && !stats.interrupted &&
                    !stats.diverged &&
                    stats.epoch_micros.size() == stats.train_loss.size(),
                StrFormat("refresh trained %d epochs, want %d",
                          stats.epochs_run, kRefreshEpochs));
  for (size_t e = 0; e < stats.train_loss.size(); ++e) {
    ++record->attempted;
    if (!std::isfinite(stats.train_loss[e])) ++record->failed;
    if (e > 0) {
      record->Check(stats.train_loss[e] < stats.train_loss[e - 1],
                    StrFormat("epoch %zu loss did not fall", e));
    }
  }
  std::vector<double> epoch_s;
  for (double us : stats.epoch_micros) epoch_s.push_back(us * 1e-6);
  const double median_epoch_s = epoch_s.empty() ? train_s : Median(epoch_s);

  double t = Now();
  pipe.ComputeRepVectors();
  const double precompute_s = Now() - t;
  t = Now();
  evrec::gbdt::GbdtModel full_model;
  const evrec::pipeline::EvalResult full =
      pipe.EvaluateFeatureConfig(FullFeatures(), &full_model);
  const double combiner_s = Now() - t;
  t = Now();
  const evrec::pipeline::EvalResult base =
      pipe.EvaluateFeatureConfig(BaselineFeatures());
  const double baseline_s = Now() - t;
  const double job_s = Now() - start;

  // The reported AUC against this benchmark's own rank-sum AUC of the same
  // combiner's week-6 scores, and the paper's Table-1 ordering.
  evrec::baseline::FeatureAssembler assembler(
      pipe.feature_index(), &pipe.user_reps(), &pipe.event_reps());
  evrec::gbdt::DataMatrix eval_x;
  std::vector<float> eval_y;
  assembler.Assemble(pipe.dataset().eval, FullFeatures(), &eval_x, &eval_y);
  const double own_auc =
      RankSumAuc(full_model.PredictProbabilities(eval_x), eval_y);
  record->Check(std::fabs(own_auc - full.auc) <= 1e-9,
                StrFormat("pipeline AUC %.12f != rank-sum AUC %.12f",
                          full.auc, own_auc));
  record->Check(full.auc > base.auc,
                StrFormat("full combiner AUC %.4f does not beat baseline "
                          "%.4f",
                          full.auc, base.auc));

  std::printf("refresh: %d epochs at %d workers, losses", stats.epochs_run,
              kWorkers);
  for (double l : stats.train_loss) std::printf(" %.6f", l);
  std::printf(", epoch times (s)");
  for (double s : epoch_s) std::printf(" %.4f", s);
  std::printf("; AUC full %.4f vs baseline %.4f\n", full.auc, base.auc);
  std::printf("refresh job (s): train %.4f + precompute %.4f + combiner "
              "%.4f + baseline combiner %.4f + unattributed %.4f = %.4f\n",
              train_s, precompute_s, combiner_s, baseline_s,
              job_s - train_s - precompute_s - combiner_s - baseline_s,
              job_s);

  record->precompute_samples.push_back(precompute_s);
  record->combiner_samples.push_back(combiner_s);
  for (int i = 0; i < kTailRepeats; ++i) RepeatTail(pipe, full.auc, record);
  if (!options.trace) {
    record->metrics["epoch_s"] = median_epoch_s;
    record->metrics["auc"] = full.auc;
    return;
  }

  // Thread-count independence: the first epoch's loss at one worker
  // equals the job's, bit for bit. That serial epoch is also the wall time
  // the serial training replay is set against.
  evrec::pipeline::PipelineConfig serial_cfg = RefreshConfig();
  serial_cfg.threads = 1;
  serial_cfg.rep.max_epochs = 1;
  evrec::pipeline::TwoStagePipeline serial(serial_cfg);
  serial.Prepare();
  const evrec::model::TrainStats serial_stats = serial.TrainRepresentation();
  const bool have_serial = !serial_stats.train_loss.empty() &&
                           !serial_stats.epoch_micros.empty();
  record->Check(have_serial && !stats.train_loss.empty() &&
                    serial_stats.train_loss[0] == stats.train_loss[0],
                StrFormat("first-epoch loss at 1 worker differs from the "
                          "job's at %d",
                          kWorkers));
  if (have_serial) {
    ReplayTraining(pipe, serial_stats.epoch_micros[0] * 1e-6, record);
  }

  ReplayPrecompute(pipe, record);
  ReplayCombiner(pipe, full_model, combiner_s, record);
}

}  // namespace perfbench
