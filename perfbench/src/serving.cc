// The serving workloads: a closed loop with one client that retrieves
// candidates from the IVF index and ranks them with
// RecommendationService::Rank. `recommend` serves from a fully cached
// store; `recommend_cold` first invalidates a seeded set of vectors, so a
// steady share of lookups miss and are recomputed through the towers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "evrec/baseline/base_features.h"
#include "evrec/baseline/cf_features.h"
#include "evrec/obs/trace.h"
#include "evrec/serve/service.h"
#include "evrec/util/clock.h"
#include "evrec/util/rng.h"
#include "evrec/util/string_util.h"
#include "stats.h"

namespace perfbench {
namespace {

using evrec::StrFormat;
using evrec::serve::RankedCandidate;
using evrec::serve::RankResponse;
using evrec::store::EntityKind;

struct Request {
  int user = 0;
  int day = 0;
  int k = 0;
};

class RequestStream {
 public:
  RequestStream(uint64_t seed, int num_users)
      : rng_(seed, /*stream=*/101), num_users_(num_users) {}

  Request Next() {
    Request r;
    r.user = rng_.UniformInt(0, num_users_ - 1);
    r.day = rng_.UniformInt(kFirstEvalDay, kLastEvalDay);
    r.k = rng_.UniformInt(kMinK, kMaxK);
    return r;
  }

 private:
  evrec::Rng rng_;
  int num_users_;
};

// One served candidate, kept for the offline bit-identity check.
struct ServedScore {
  int user = 0;
  int event = 0;
  int day = 0;
  double score = 0.0;
};

bool RankedBefore(const RankedCandidate& a, const RankedCandidate& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.event < b.event;
}

// The ranking is a permutation of the candidates, with finite scores in
// descending order and ties broken by ascending event id.
void CheckRanking(const std::vector<int>& candidates,
                  const RankResponse& response, RunRecord* record) {
  std::vector<int> served;
  served.reserve(response.ranking.size());
  for (const RankedCandidate& rc : response.ranking) {
    served.push_back(rc.event);
    if (!std::isfinite(rc.score)) {
      record->Check(false, StrFormat("non-finite score for event %d",
                                     rc.event));
      return;
    }
  }
  std::vector<int> expected = candidates;
  std::sort(served.begin(), served.end());
  std::sort(expected.begin(), expected.end());
  record->Check(served == expected,
                "ranking is not a permutation of the candidates");
  for (size_t i = 1; i < response.ranking.size(); ++i) {
    if (!RankedBefore(response.ranking[i - 1], response.ranking[i])) {
      record->Check(false, "ranking is not in (score desc, id asc) order");
      return;
    }
  }
}

// IvfIndex::SearchExact against this file's own brute-force cosine top-k:
// the i-th exact result must have the i-th best brute-force score, up to
// float rounding (so ties may swap), and report that score.
void CheckExactSearch(const evrec::ann::IvfIndex& index,
                      const std::vector<std::vector<float>>& vectors,
                      const std::vector<float>& query, int k,
                      RunRecord* record) {
  constexpr double kTolerance = 1e-5;
  auto cosine = [&](const std::vector<float>& v) {
    double dot = 0.0, qq = 0.0, vv = 0.0;
    for (size_t j = 0; j < query.size(); ++j) {
      dot += static_cast<double>(query[j]) * v[j];
      qq += static_cast<double>(query[j]) * query[j];
      vv += static_cast<double>(v[j]) * v[j];
    }
    return qq > 0.0 && vv > 0.0 ? dot / std::sqrt(qq * vv) : 0.0;
  };
  std::vector<double> score(vectors.size());
  for (size_t e = 0; e < vectors.size(); ++e) score[e] = cosine(vectors[e]);
  std::vector<double> best = score;
  std::sort(best.begin(), best.end(), std::greater<double>());
  const auto exact = index.SearchExact(query, k);
  const size_t want = std::min(static_cast<size_t>(k), vectors.size());
  if (exact.size() != want) {
    record->Check(false, StrFormat("SearchExact returned %zu of %zu",
                                   exact.size(), want));
    return;
  }
  std::vector<bool> seen(vectors.size(), false);
  for (size_t i = 0; i < exact.size(); ++i) {
    const int id = exact[i].id;
    const bool ok = id >= 0 && static_cast<size_t>(id) < vectors.size() &&
                    !seen[static_cast<size_t>(id)] &&
                    std::fabs(score[static_cast<size_t>(id)] - best[i]) <=
                        kTolerance &&
                    std::fabs(score[static_cast<size_t>(id)] -
                              exact[i].score) <= kTolerance;
    if (!ok) {
      record->Check(false, StrFormat("SearchExact rank %zu (event %d) "
                                     "disagrees with brute force",
                                     i, id));
      return;
    }
    seen[static_cast<size_t>(id)] = true;
  }
}

// Replays one request's ranking stages through the public calls Rank makes
// and accumulates their times. Traced runs only.
class StageReplay {
 public:
  explicit StageReplay(System& system)
      : system_(system),
        base_(system.serving->feature_index()),
        cf_(system.serving->feature_index()),
        num_features_(system.bundle.assembler->NumFeatures(
            system.bundle.primary_features)) {}

  // `missing_events` / `user_missing`: what the store lacked when Rank ran
  // (Rank has since written it back); the replay invalidates it again so
  // it takes the same miss path.
  void Replay(const Request& r, const std::vector<int>& ids,
              const std::vector<int>& missing_events, bool user_missing,
              const RankResponse& response, RunRecord* record) {
    evrec::serve::VectorStore* store = system_.bundle.store.get();
    evrec::store::RepVectorCache& cache =
        system_.serving->mutable_rep_cache();
    if (user_missing) cache.Invalidate(EntityKind::kUser, r.user);
    for (int e : missing_events) cache.Invalidate(EntityKind::kEvent, e);
    const size_t n = ids.size();

    // store.get: the user's and every candidate's vector.
    double t = Now();
    auto user_vec = store->Get(EntityKind::kUser, r.user);
    fetched_.clear();
    for (int e : ids) fetched_.push_back(store->Get(EntityKind::kEvent, e));
    get_s += Now() - t;
    lookups += n + 1;
    event_lookups += n;

    // serve.recompute and store.put for whatever missed.
    std::vector<float> user_rep;
    std::vector<size_t> miss;
    uint64_t request_misses = user_vec.ok() ? 0 : 1;
    for (size_t c = 0; c < n; ++c) {
      if (!fetched_[c].ok()) miss.push_back(c);
    }
    event_misses += miss.size();
    request_misses += miss.size();
    const bool user_miss = !user_vec.ok();
    t = Now();
    if (user_miss) {
      user_vec = system_.bundle.recompute(EntityKind::kUser, r.user);
    }
    for (size_t c : miss) {
      fetched_[c] = system_.bundle.recompute(EntityKind::kEvent, ids[c]);
    }
    recompute_s += Now() - t;
    t = Now();
    if (user_miss) store->Put(EntityKind::kUser, r.user, *user_vec);
    for (size_t c : miss) store->Put(EntityKind::kEvent, ids[c], *fetched_[c]);
    put_s += Now() - t;
    record->Check(request_misses == response.stats.store_misses,
                  StrFormat("replay missed %llu lookups, Rank %llu",
                            static_cast<unsigned long long>(request_misses),
                            static_cast<unsigned long long>(
                                response.stats.store_misses)));
    user_rep = *user_vec;

    // baseline.row: each row starts empty (ExtractRow* appends).
    const auto& assembler = *system_.bundle.assembler;
    const auto& features = system_.bundle.primary_features;
    if (rows_.size() < n) rows_.resize(n);
    t = Now();
    for (size_t c = 0; c < n; ++c) {
      rows_[c].clear();
      assembler.ExtractRowWithReps(r.user, ids[c], r.day, features,
                                   &user_rep, &*fetched_[c], &rows_[c]);
    }
    row_s += Now() - t;
    rows += n;
    for (size_t c = 0; c < n; ++c) {
      if (static_cast<int>(rows_[c].size()) != num_features_) {
        record->Check(false, StrFormat("replayed row has %zu features, "
                                       "want %d",
                                       rows_[c].size(), num_features_));
        return;
      }
    }
    // baseline.base / baseline.cf: the two extractor blocks of that row.
    t = Now();
    for (size_t c = 0; c < n; ++c) {
      scratch_.clear();
      base_.Extract(r.user, ids[c], r.day, &scratch_);
    }
    base_s += Now() - t;
    t = Now();
    for (size_t c = 0; c < n; ++c) {
      scratch_.clear();
      cf_.Extract(r.user, ids[c], r.day, &scratch_);
    }
    cf_s += Now() - t;

    // gbdt.predict
    scores_.resize(n);
    t = Now();
    for (size_t c = 0; c < n; ++c) {
      scores_[c] = system_.bundle.primary.PredictProbability(rows_[c].data());
    }
    predict_s += Now() - t;

    // sort
    ranked_.resize(n);
    for (size_t c = 0; c < n; ++c) {
      ranked_[c].event = ids[c];
      ranked_[c].score = scores_[c];
      ranked_[c].tier = 1;
    }
    t = Now();
    std::sort(ranked_.begin(), ranked_.end(), RankedBefore);
    sort_s += Now() - t;
    candidates += n;
    ++requests;

    bool same = ranked_.size() == response.ranking.size();
    for (size_t i = 0; same && i < n; ++i) {
      same = ranked_[i].event == response.ranking[i].event &&
             ranked_[i].score == response.ranking[i].score;
    }
    record->Check(same, "replayed ranking differs from Rank's");
  }

  double get_s = 0, recompute_s = 0, put_s = 0, row_s = 0, base_s = 0,
         cf_s = 0, predict_s = 0, sort_s = 0;
  uint64_t requests = 0, candidates = 0, lookups = 0, event_lookups = 0,
           event_misses = 0, rows = 0;

 private:
  System& system_;
  evrec::baseline::BaseFeatureExtractor base_;
  evrec::baseline::CfFeatureExtractor cf_;
  int num_features_;
  std::vector<evrec::StatusOr<std::vector<float>>> fetched_;
  std::vector<std::vector<float>> rows_;
  std::vector<float> scratch_;
  std::vector<double> scores_;
  std::vector<RankedCandidate> ranked_;
};

// Served scores must equal the offline path (Assemble over the pipeline's
// precomputed vectors + PredictProbabilities) bit for bit. Checked in
// chunks, so the check adds little to the run's peak RSS.
void CheckOfflineScores(System& system,
                        const std::vector<ServedScore>& served,
                        RunRecord* record) {
  constexpr size_t kChunk = 4096;
  size_t mismatches = 0;
  std::vector<evrec::simnet::Impression> impressions;
  evrec::gbdt::DataMatrix x;
  std::vector<float> labels;
  for (size_t begin = 0; begin < served.size(); begin += kChunk) {
    const size_t end = std::min(served.size(), begin + kChunk);
    impressions.clear();
    for (size_t i = begin; i < end; ++i) {
      evrec::simnet::Impression imp;
      imp.user = served[i].user;
      imp.event = served[i].event;
      imp.day = served[i].day;
      impressions.push_back(imp);
    }
    system.bundle.assembler->Assemble(impressions,
                                      system.bundle.primary_features, &x,
                                      &labels);
    const std::vector<double> offline =
        system.bundle.primary.PredictProbabilities(x);
    for (size_t i = begin; i < end; ++i) {
      if (offline[i - begin] != served[i].score) ++mismatches;
    }
  }
  record->Check(mismatches == 0,
                StrFormat("%zu of %zu served scores differ from the offline "
                          "path",
                          mismatches, served.size()));
}

// One run's serving loop: the request stream, its checks and its timings.
struct Session {
  Session(System& sys, const Options& opts, bool is_cold, RunRecord* rec)
      : system(sys), options(opts), cold(is_cold), record(rec),
        service(sys.bundle.MakeBackends(&clock),
                evrec::serve::ServiceConfig{}),
        pipe(*sys.serving), cache(sys.serving->mutable_rep_cache()),
        stream(opts.seed, sys.serving->dataset().num_users()),
        invalidation_rng(opts.seed, /*stream=*/102),
        sample_rng(opts.seed, /*stream=*/103), replay(sys) {}

  void ServeOne(bool measured);

  System& system;
  const Options& options;
  const bool cold;
  RunRecord* record;
  evrec::SystemClock clock;
  evrec::serve::RecommendationService service;
  const evrec::pipeline::TwoStagePipeline& pipe;
  evrec::store::RepVectorCache& cache;
  RequestStream stream;
  evrec::Rng invalidation_rng;
  // Seeded sample of requests for the offline-score and exact-search
  // checks (about one in kCheckEvery).
  evrec::Rng sample_rng;
  static constexpr uint32_t kCheckEvery = 32;
  int index = 0;

  std::vector<double> latency_us, candidate_counts;
  std::vector<ServedScore> check_scores;
  std::vector<Request> check_requests;
  uint64_t tier2 = 0, served_candidates = 0;
  StageReplay replay;
  double wall_s = 0, search_s = 0, rank_s = 0;
};

void Session::ServeOne(bool measured) {
  const Request r = stream.Next();
  if (cold) {
    const int num_events = pipe.dataset().num_events();
    for (int i = 0; i < kColdInvalidations; ++i) {
      cache.Invalidate(EntityKind::kEvent,
                       invalidation_rng.UniformInt(0, num_events - 1));
    }
    if (index % kUserInvalidateEvery == 0) {
      cache.Invalidate(EntityKind::kUser, r.user);
    }
  }
  ++index;
  const std::vector<float>& query =
      pipe.user_reps()[static_cast<size_t>(r.user)];
  const double t0 = Now();
  const auto hits = system.index.Search(query, r.k, kNprobe);
  const double t_search = Now();
  std::vector<int> ids;
  ids.reserve(hits.size());
  for (const auto& h : hits) ids.push_back(h.id);
  const double t1 = Now();
  // Traced runs note what the store lacks, untimed, so the replay can
  // take the same miss path after Rank has repaired it.
  std::vector<int> missing;
  bool user_missing = false;
  if (options.trace && measured) {
    std::vector<float> probe;
    user_missing = !cache.TryGet(EntityKind::kUser, r.user, &probe);
    for (int e : ids) {
      if (!cache.TryGet(EntityKind::kEvent, e, &probe)) missing.push_back(e);
    }
  }
  const double t1_rank = Now();
  const RankResponse response =
      service.Rank(r.user, ids, r.day, kBudgetMicros);
  const double t2 = Now();
  const double request_s = (t1 - t0) + (t2 - t1_rank);

  const int max_tier = cold ? 2 : 1;
  bool degraded = false;
  for (const RankedCandidate& rc : response.ranking) {
    if (rc.tier > max_tier) degraded = true;
    if (rc.tier == 2) {
      check_scores.push_back({r.user, rc.event, r.day, rc.score});
      if (measured) ++tier2;
    }
  }
  CheckRanking(ids, response, record);
  if (sample_rng.UniformU32(kCheckEvery) == 0) {
    check_requests.push_back(r);
    for (const RankedCandidate& rc : response.ranking) {
      if (rc.tier == 1) {
        check_scores.push_back({r.user, rc.event, r.day, rc.score});
      }
    }
  }
  if (!measured) {
    record->Check(!degraded, "a warm-up request was served below tier " +
                                 std::to_string(max_tier));
    return;
  }
  ++record->attempted;
  if (degraded) ++record->failed;
  latency_us.push_back(request_s * 1e6);
  candidate_counts.push_back(static_cast<double>(ids.size()));
  served_candidates += ids.size();
  if (options.trace) {
    wall_s += request_s;
    search_s += t_search - t0;
    rank_s += t2 - t1_rank;
    replay.Replay(r, ids, missing, user_missing, response, record);
  }
}

}  // namespace

void RunServing(System& system, const Options& options, bool cold,
                RunRecord* record) {
  Session st(system, options, cold, record);
  for (int i = 0; i < kWarmupRequests; ++i) st.ServeOne(false);
  const size_t min_requests =
      options.trace ? 100
                    : (options.smoke ? 40
                                     : MinSamplesForTail(kTailQuantile,
                                                         kTailBeyond));
  const uint64_t dropped_before = evrec::obs::TraceLog::Global()->dropped();
  const double start = Now();
  while (Now() - start < options.seconds ||
         st.latency_us.size() < min_requests) {
    st.ServeOne(true);
  }
  const double loop_s = Now() - start;
  const uint64_t dropped =
      evrec::obs::TraceLog::Global()->dropped() - dropped_before;

  CheckOfflineScores(system, st.check_scores, record);
  double recall = 0.0;
  for (const Request& r : st.check_requests) {
    const auto& query = st.pipe.user_reps()[static_cast<size_t>(r.user)];
    CheckExactSearch(system.index, st.pipe.event_reps(), query, r.k,
                     record);
    recall += system.index.RecallAtK(query, kMinK, kNprobe);
  }
  if (!st.check_requests.empty()) {
    recall /= static_cast<double>(st.check_requests.size());
  }

  const std::vector<double>& latency_us = st.latency_us;
  const size_t n = latency_us.size();
  double total_us = 0.0;
  for (double us : latency_us) total_us += us;
  std::printf("serving: %zu requests in %.2fs (one closed-loop client), "
              "%zu checked offline, %llu tier-2 candidates (%.1f%%)\n",
              n, loop_s, st.check_requests.size(),
              static_cast<unsigned long long>(st.tier2),
              st.served_candidates > 0
                  ? 100.0 * static_cast<double>(st.tier2) /
                        static_cast<double>(st.served_candidates)
                  : 0.0);
  std::printf("serving: candidates per request min %.0f p50 %.0f p99 %.0f "
              "max %.0f (K uniform in [%d, %d], nprobe %d)\n",
              Quantile(st.candidate_counts, 1e-9),
              Quantile(st.candidate_counts, 0.5),
              Quantile(st.candidate_counts, 0.99),
              Quantile(st.candidate_counts, 1.0), kMinK, kMaxK, kNprobe);
  std::printf("serving: p99 has %zu samples beyond it; trace.dropped grew "
              "by %llu spans\n",
              SamplesBeyond(n, kTailQuantile),
              static_cast<unsigned long long>(dropped));

  if (!options.trace) {
    record->metrics["request_p50_us"] = Quantile(latency_us, 0.5);
    record->metrics["request_p99_us"] = Quantile(latency_us, kTailQuantile);
    record->metrics["requests_per_s"] =
        static_cast<double>(n) / (total_us * 1e-6);
    return;
  }

  // Stage breakdown of the same requests: the replayed stages account for
  // Rank, and the rest of Rank is serve.unattributed.
  const StageReplay& s = st.replay;
  const double replayed = s.get_s + s.recompute_s + s.put_s + s.row_s +
                          s.predict_s + s.sort_s;
  const double rank_unattributed = st.rank_s - replayed;
  const double loop_unattributed = st.wall_s - st.search_s - st.rank_s;
  const double per_req = 1e6 / static_cast<double>(s.requests);
  std::printf("breakdown per request (us), %llu requests, %.1f candidates "
              "each:\n",
              static_cast<unsigned long long>(s.requests),
              static_cast<double>(s.candidates) /
                  static_cast<double>(s.requests));
  std::printf("  %-28s %10.2f\n", "wall", st.wall_s * per_req);
  std::printf("  %-28s %10.2f\n", "ann.search", st.search_s * per_req);
  std::printf("  %-28s %10.2f\n", "serve.rank", st.rank_s * per_req);
  std::printf("    %-26s %10.2f\n", "store.get", s.get_s * per_req);
  std::printf("    %-26s %10.2f\n", "serve.recompute",
              s.recompute_s * per_req);
  std::printf("    %-26s %10.2f\n", "store.put", s.put_s * per_req);
  std::printf("    %-26s %10.2f  (base %.2f, cf %.2f)\n", "baseline.row",
              s.row_s * per_req, s.base_s * per_req, s.cf_s * per_req);
  std::printf("    %-26s %10.2f\n", "gbdt.predict", s.predict_s * per_req);
  std::printf("    %-26s %10.2f\n", "sort", s.sort_s * per_req);
  std::printf("    %-26s %10.2f\n", "serve.unattributed",
              rank_unattributed * per_req);
  std::printf("  %-28s %10.2f\n", "unattributed",
              loop_unattributed * per_req);
  std::printf("  stages + unattributed = %.2f us = wall\n",
              (st.search_s + replayed + rank_unattributed +
               loop_unattributed) *
                  per_req);

  const double cands = static_cast<double>(s.candidates);
  record->metrics["ann.search_us"] = st.search_s * per_req;
  record->metrics["ann.recall_at_k"] = recall;
  std::printf("ann.recall_at_k: K=%d, nprobe %d, mean over %zu queries\n",
              kMinK, kNprobe, st.check_requests.size());
  record->metrics["store.get_ns"] =
      s.get_s * 1e9 / static_cast<double>(s.lookups);
  record->metrics["store.event_miss_ratio"] =
      static_cast<double>(s.event_misses) /
      static_cast<double>(s.event_lookups);
  std::printf("store.event_miss_ratio: %llu misses / %llu event lookups\n",
              static_cast<unsigned long long>(s.event_misses),
              static_cast<unsigned long long>(s.event_lookups));
  record->metrics["baseline.row_ns"] =
      s.row_s * 1e9 / static_cast<double>(s.rows);
  record->metrics["baseline.base_ns"] =
      s.base_s * 1e9 / static_cast<double>(s.rows);
  record->metrics["baseline.cf_ns"] =
      s.cf_s * 1e9 / static_cast<double>(s.rows);
  record->metrics["gbdt.predict_ns_per_row"] =
      s.predict_s * 1e9 / static_cast<double>(s.rows);
  record->metrics["serve.rank_ns_per_cand"] = st.rank_s * 1e9 / cands;
  record->metrics["serve.unattributed_ns_per_cand"] =
      rank_unattributed * 1e9 / cands;
  record->metrics["obs.spans_dropped_per_req"] =
      static_cast<double>(dropped) / static_cast<double>(n);
}

}  // namespace perfbench
