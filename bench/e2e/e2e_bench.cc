// End-to-end benchmark program: one process runs one workload through the
// library's public entry points and writes the raw measurements (per-rep
// wall times, per-call latency samples, counts, and, when traced, the
// per-layer ledger) as one JSON object. bench/e2e/run_bench.py turns them
// into metrics; bench/e2e/README.md says what each workload is for.
//
//   e2e_bench --workload=campaign_sf100 --seed=42 --seconds=10
//       --out=result.json [--traced=1 --trace_json=trace.json] [--quick=1]
//
// Untraced runs set up once, run one warm-up rep, then time reps until
// `--seconds` have passed and at least `--min_reps` ran. Between reps they
// set up again, timed like the first (setup_s), at least `--setups` times
// in all. Traced runs set up once untraced and once traced, then
// alternate untraced and traced reps for the same budget, so the ratio of
// their medians is the tracing overhead and the traced reps fill the
// per-layer ledger (layer_timing.h).
//
// Every rep is checked: labels against ground truth the benchmark captures
// itself, counts against the first rep (determinism, and traced against
// untraced), and each traced decomposition against the public entry point
// it mirrors. A failed check counts as a failed op; the JSON is still
// written and the process exits 1.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/e2e/layer_timing.h"
#include "common/serialize.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/labeling_order.h"
#include "core/labeling_session.h"
#include "core/session_checkpoint.h"
#include "crowd/faults.h"
#include "crowd/orchestrator.h"
#include "datagen/dataset.h"
#include "datagen/paper_dataset.h"
#include "datagen/streaming_generator.h"
#include "eval/metrics.h"
#include "eval/workbench.h"
#include "obs/metrics.h"
#include "obs/tracing.h"
#include "serve/resolution_service.h"
#include "simjoin/candidate_generator.h"
#include "simjoin/sharded_join.h"
#include "simjoin/similarity_measure.h"
#include "simjoin/token_dictionary.h"
#include "text/tokenize.h"

namespace crowdjoin::e2e {
namespace {

// Load comes from one process with at most this many busy threads: the
// join and labeling pools, or the serving writer plus its readers.
constexpr int kThreads = 4;

// Untraced runs spend at least this share of their reps' time on timed
// setups (see Main).
constexpr double kSetupShare = 0.2;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// The process's peak resident set, from VmHWM. (getrusage's ru_maxrss
// survives exec on Linux, so it would report the launching process's peak
// whenever that is larger.)
double PeakRssMiB() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

// Minimal JSON object writer. Timings keep all their digits.
class Json {
 public:
  Json& Num(std::string_view key, double value) {
    Key(key);
    AppendDouble(value, "%.17g");
    return *this;
  }
  Json& Str(std::string_view key, std::string_view value) {
    Key(key);
    AppendString(value);
    return *this;
  }
  Json& Nums(std::string_view key, const std::vector<double>& values) {
    Key(key);
    body_ += '[';
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) body_ += ',';
      AppendDouble(values[i], "%.17g");
    }
    body_ += ']';
    return *this;
  }
  // Per-rep latency samples; six significant digits keep the file small.
  Json& Samples(std::string_view key,
                const std::vector<std::vector<double>>& per_rep) {
    Key(key);
    body_ += '[';
    for (size_t r = 0; r < per_rep.size(); ++r) {
      if (r > 0) body_ += ',';
      body_ += '[';
      for (size_t i = 0; i < per_rep[r].size(); ++i) {
        if (i > 0) body_ += ',';
        AppendDouble(per_rep[r][i], "%.6g");
      }
      body_ += ']';
    }
    body_ += ']';
    return *this;
  }
  Json& Strs(std::string_view key, const std::vector<std::string>& values) {
    Key(key);
    body_ += '[';
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) body_ += ',';
      AppendString(values[i]);
    }
    body_ += ']';
    return *this;
  }
  Json& Obj(std::string_view key, const Json& value) {
    Key(key);
    body_ += value.str();
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(std::string_view key) {
    if (!body_.empty()) body_ += ',';
    AppendString(key);
    body_ += ':';
  }
  void AppendString(std::string_view value) {
    body_ += '"';
    for (char c : value) {
      if (c == '"' || c == '\\') body_ += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) body_ += c;
    }
    body_ += '"';
  }
  void AppendDouble(double value, const char* format) {
    if (!std::isfinite(value)) {
      body_ += "null";
      return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), format, value);
    body_ += buf;
  }

  std::string body_;
};

// The text a record joins under: every field, space-terminated — what the
// library's candidate generator and the serving benchmark tokenize.
std::string RecordText(const Record& record) {
  std::string text;
  for (const std::string& field : record.fields) {
    text += field;
    text += ' ';
  }
  return text;
}

Label Truth(const std::vector<int32_t>& entities, ObjectId a, ObjectId b) {
  return entities[static_cast<size_t>(a)] == entities[static_cast<size_t>(b)]
             ? Label::kMatching
             : Label::kNonMatching;
}

bool InRange(const std::vector<int32_t>& entities, ObjectId a, ObjectId b) {
  return a >= 0 && b >= 0 && static_cast<size_t>(a) < entities.size() &&
         static_cast<size_t>(b) < entities.size();
}

// ---------------------------------------------------------------------------
// Workload interface and shared bookkeeping
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  int min_reps = 3;
  int setups = 3;
  bool traced = false;
  bool quick = false;
  std::string out;
  std::string trace_json;
  std::string tmp_dir = ".";
};

class Workload {
 public:
  explicit Workload(const Options& options) : options_(options) {}
  virtual ~Workload() = default;

  /// Builds the inputs every rep reads (timed as setup_s).
  virtual void Setup() = 0;
  /// The traced build of the same inputs (default: Setup under the ledger).
  virtual void SetupTraced() { Setup(); }
  /// One repetition; returns the seconds of the measured work alone (the
  /// checks that follow are not timed). `traced` selects the decomposed,
  /// ledger-timed path.
  virtual double Rep(bool traced) = 0;
  /// Traced-only probes after the traced reps; returns their seconds.
  virtual double Probe() { return 0.0; }
  /// Drops the per-call samples recorded so far (the warm-up rep's).
  virtual void DropSamples() {}
  /// Counts, per-call samples and workload-specific numbers.
  virtual void Report(Json& out) const = 0;

  int64_t ops() const { return ops_; }
  int64_t failed_ops() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 protected:
  using Counts = std::map<std::string, double>;

  // One checked operation: counts toward `ops`, and toward `failed_ops`
  // (keeping the reason) when `ok` is false.
  void Op(bool ok, const std::string& what) { Ops(1, ok ? 0 : 1, what); }
  void Ops(int64_t attempted, int64_t failed, const std::string& what) {
    ops_ += attempted;
    failed_ += failed;
    if (failed > 0 && failures_.size() < 20) failures_.push_back(what);
  }

  // Counts and the candidate checksum must repeat exactly from rep to rep,
  // traced or not; the first rep's values are the reference.
  void CheckCounts(const Counts& counts, const char* path) {
    if (reference_.empty()) {
      reference_ = counts;
      return;
    }
    for (const auto& [name, value] : counts) {
      const auto it = reference_.find(name);
      Op(it != reference_.end() && it->second == value,
         StrFormat("%s rep: %s=%.17g differs from the first rep", path,
                   name.c_str(), value));
    }
  }
  void CheckChecksum(uint64_t checksum, const char* path) {
    if (!has_checksum_) {
      checksum_ = checksum;
      has_checksum_ = true;
      return;
    }
    Op(checksum == checksum_,
       StrFormat("%s rep: candidate checksum differs from the first rep",
                 path));
  }

  void ReportCounts(Json& out) const {
    Json counts;
    for (const auto& [name, value] : reference_) counts.Num(name, value);
    if (has_checksum_) {
      counts.Str("checksum",
                 StrFormat("%016llx",
                           static_cast<unsigned long long>(checksum_)));
    }
    out.Obj("counts", counts);
  }

  const Options& options_;

 private:
  int64_t ops_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
  Counts reference_;
  uint64_t checksum_ = 0;
  bool has_checksum_ = false;
};

double Micros(const WallTimer& timer) { return timer.ElapsedSeconds() * 1e6; }

// ---------------------------------------------------------------------------
// campaign_sf100 / stream_sf100: datagen -> ingest -> sharded join ->
// expected order -> round-parallel labeling, materialized or round by round
// ---------------------------------------------------------------------------

class CampaignWorkload : public Workload {
 public:
  CampaignWorkload(const Options& options, bool streamed)
      : Workload(options),
        streamed_(streamed),
        scale_(options.quick ? 10 : 100) {}

  void Setup() override {
    PaperDatasetConfig config;
    config.seed = options_.seed;
    source_ = std::make_unique<StreamingPaperSource>(config, scale_);
    // The benchmark's own ground truth, from a separate datagen pass:
    // every label the campaign produces is checked against it.
    TimedRecordSource timed(*source_);
    entities_.clear();
    entities_.reserve(static_cast<size_t>(source_->meta().total_records));
    StreamedRecord record;
    timed.Reset();
    while (timed.Next(&record)) entities_.push_back(record.entity);
    Op(source_->status().ok(), "setup: record stream failed");
  }

  double Rep(bool traced) override {
    const std::string checkpoint = streamed_ ? FreshCheckpointPath() : "";
    Counts counts;
    double seconds = 0.0;
    if (!traced) {
      seconds = RunEntryPoint(checkpoint, counts);
    } else if (streamed_) {
      seconds = RunStreamDecomposed(checkpoint, counts);
    } else {
      seconds = RunCampaignDecomposed(counts);
    }
    if (streamed_) {
      VerifyCheckpoint(checkpoint, counts);
      std::error_code ignored;
      std::filesystem::remove(checkpoint, ignored);
    }
    CheckCounts(counts, traced ? "traced" : "untraced");
    return seconds;
  }

  void Report(Json& out) const override {
    ReportCounts(out);
    Json layer;
    layer.Num("tokens", static_cast<double>(num_tokens_))
        .Num("probe_cpu_s", Seconds(probe_cpu_ns_))
        .Num("probe_wall_s", Seconds(probe_wall_ns_))
        .Num("checkpoint_writes", static_cast<double>(checkpoint_writes_))
        .Num("checkpoint_bytes", static_cast<double>(checkpoint_bytes_))
        .Num("fault_attempts", static_cast<double>(fault_attempts_.load()));
    out.Obj("layer_extras", layer);
  }

 private:
  StreamingCampaignConfig MakeConfig(const std::string& checkpoint) const {
    StreamingCampaignConfig config;
    config.candidates.token_join_threshold = kThreshold;
    config.candidates.min_likelihood = kThreshold;
    config.sharding.num_shards = 16;
    config.sharding.num_threads = kThreads;
    config.crowd.num_threads = kThreads;
    if (streamed_) {
      config.label_tasks_per_round = 16;
      config.crowd.faults.seed = 7;
      config.crowd.faults.abandonment_rate = 0.05;
      config.checkpoint.path = checkpoint;
      config.checkpoint.every_rounds = 1;
      config.checkpoint.fingerprint = Fingerprint64(
          StrFormat("e2e|stream|scale=%d|seed=%llu", scale_,
                    static_cast<unsigned long long>(options_.seed)));
    }
    return config;
  }

  // Each rep writes a fresh checkpoint file, deleted first: resuming a
  // finished campaign would measure nothing.
  std::string FreshCheckpointPath() {
    const std::string path =
        (std::filesystem::path(options_.tmp_dir) /
         StrFormat("stream-%d-%d.ckpt", static_cast<int>(getpid()),
                   ++checkpoint_seq_))
            .string();
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
    return path;
  }

  // The public entry point, as a user runs it (the untraced reps).
  double RunEntryPoint(const std::string& checkpoint, Counts& counts) {
    const StreamingCampaignConfig config = MakeConfig(checkpoint);
    const WallTimer watch;
    Result<StreamingCampaignStats> stats =
        RunStreamingCampaign(*source_, nullptr, config);
    const double seconds = watch.ElapsedSeconds();
    Op(stats.ok(), "RunStreamingCampaign: " + stats.status().ToString());
    if (!stats.ok()) return seconds;
    Op(stats->entity_of == entities_,
       "campaign ground truth differs from the benchmark's datagen pass");
    if (!streamed_) {
      VerifyCandidates(stats->candidates, stats->labeling, "untraced");
    }
    VerifyReport(stats->labeling, stats->num_candidates, counts);
    return seconds;
  }

  // campaign_sf100 rebuilt from the calls RunStreamingCampaign makes, each
  // one timed: WordTokens -> AddDocument -> ShardedSelfJoiner::Add ->
  // MakeCursor -> NextBatch -> MakeLabelingOrder -> LabelingSession::Run.
  double RunCampaignDecomposed(Counts& counts) {
    const WallTimer watch;
    TimedRecordSource source(*source_);
    TokenDictionary dictionary;
    dictionary.Reserve(static_cast<size_t>(source.meta().total_records));
    ShardedSelfJoiner joiner(16);
    std::vector<ObjectId> ids;
    std::vector<int32_t> entity_of;
    StreamedRecord record;
    source.Reset();
    while (source.Next(&record)) {
      std::vector<std::string> tokens;
      {
        Timed timed(Site::kTextTokenize);
        tokens = WordTokens(RecordText(record.record));
      }
      num_tokens_ += static_cast<int64_t>(tokens.size());
      MeasureDoc doc;
      {
        Timed timed(Site::kSimjoinDictionary);
        doc.tokens = dictionary.AddDocument(tokens);
      }
      doc.size = static_cast<int32_t>(doc.tokens.size());
      {
        Timed timed(Site::kSimjoinShardAdd);
        joiner.Add(doc);
      }
      ids.push_back(record.record.id);
      entity_of.push_back(record.entity);
    }

    ThreadPool pool(kThreads);
    Result<ShardedJoinCursor> cursor = [&] {
      Timed timed(Site::kSimjoinIndexBuild);
      return joiner.MakeCursor(dictionary, SimilarityMeasure::Jaccard(),
                               kThreshold, &pool);
    }();
    if (!cursor.ok()) {
      Op(false, "MakeCursor: " + cursor.status().ToString());
      return watch.ElapsedSeconds();
    }
    // One batch of every task: the order RunStreamingCampaign's join
    // produces, which the likelihood order breaks ties by.
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t wall0 = obs::NowNs();
    Result<std::vector<ScoredPair>> joined = [&] {
      Timed timed(Site::kSimjoinProbe);
      return cursor->NextBatch(cursor->num_tasks(), &pool);
    }();
    probe_wall_ns_ += obs::NowNs() - wall0;
    probe_cpu_ns_ += ProcessCpuNs() - cpu0;
    if (!joined.ok()) {
      Op(false, "NextBatch: " + joined.status().ToString());
      return watch.ElapsedSeconds();
    }
    CandidateSet candidates;
    candidates.reserve(joined->size());
    for (const ScoredPair& pair : *joined) {
      if (pair.score < kThreshold) continue;
      candidates.push_back({ids[static_cast<size_t>(pair.left)],
                            ids[static_cast<size_t>(pair.right)],
                            pair.score});
    }

    const GroundTruthOracle truth(entity_of);
    Rng order_rng(CrowdConfig{}.seed);
    Result<std::vector<int32_t>> order = [&] {
      Timed timed(Site::kCoreOrder);
      return MakeLabelingOrder(candidates, OrderKind::kExpected, &truth,
                               &order_rng);
    }();
    if (!order.ok()) {
      Op(false, "MakeLabelingOrder: " + order.status().ToString());
      return watch.ElapsedSeconds();
    }
    LabelingSessionOptions session_options;
    session_options.schedule = SchedulePolicy::kRoundParallel;
    session_options.num_threads = kThreads;
    LabelingSession session(session_options);
    GroundTruthOracle oracle = truth;
    TimedOracle timed_oracle(oracle);
    Result<LabelingReport> report = [&] {
      Timed timed(Site::kCoreRun);
      return session.Run(candidates, *order, timed_oracle);
    }();
    const double seconds = watch.ElapsedSeconds();

    Op(source.status().ok() && entity_of == entities_,
       "traced ingest: ground truth differs from the datagen pass");
    Op(report.ok(), "LabelingSession::Run: " + report.status().ToString());
    if (!report.ok()) return seconds;
    VerifyCandidates(candidates, *report, "traced");
    VerifyReport(*report, static_cast<int64_t>(candidates.size()), counts);
    return seconds;
  }

  // stream_sf100 rebuilt around the feed RunStreamingCampaign opens: the
  // feed goes behind a timing CandidateStream, the oracle and the fault
  // model behind timing decorators, and RunStream drives them.
  double RunStreamDecomposed(const std::string& checkpoint, Counts& counts) {
    const StreamingCampaignConfig config = MakeConfig(checkpoint);
    const WallTimer watch;
    TimedRecordSource source(*source_);
    StreamingCandidateFeed::Options feed_options;
    feed_options.candidates = config.candidates;
    feed_options.sharding = config.sharding;
    feed_options.tasks_per_round = config.label_tasks_per_round;
    Result<std::unique_ptr<StreamingCandidateFeed>> feed = [&] {
      Timed timed(Site::kSimjoinFeedOpen);
      return StreamingCandidateFeed::Open(source, feed_options);
    }();
    if (!feed.ok()) {
      Op(false, "StreamingCandidateFeed::Open: " + feed.status().ToString());
      return watch.ElapsedSeconds();
    }

    const GroundTruthOracle truth((*feed)->entity_of());
    Rng order_rng(config.crowd.seed);
    LabelingSessionOptions session_options;
    session_options.schedule = SchedulePolicy::kRoundParallel;
    session_options.num_threads = config.crowd.num_threads;
    const FaultInjector injector(config.crowd.faults);
    session_options.attempt_fault =
        TimeFaults(injector.AsAttemptFaultFn(), &fault_attempts_);
    session_options.retry = config.crowd.retry;
    if (session_options.retry.seed == 0) {
      session_options.retry.seed = config.crowd.seed;
    }
    SessionCheckpointOptions checkpoint_options = config.checkpoint;
    checkpoint_options.after_write = [this, &checkpoint](int64_t) {
      ++checkpoint_writes_;
      std::error_code error;
      const auto bytes = std::filesystem::file_size(checkpoint, error);
      if (!error) checkpoint_bytes_ += static_cast<int64_t>(bytes);
    };
    LabelingSession session(session_options);
    GroundTruthOracle oracle = truth;
    TimedOracle timed_oracle(oracle);
    TimedCandidateStream stream(**feed);
    Result<LabelingReport> report = [&] {
      Timed timed(Site::kCoreRunStream);
      return session.RunStream(stream, config.order, timed_oracle, &truth,
                               &order_rng, &checkpoint_options);
    }();
    const double seconds = watch.ElapsedSeconds();
    probe_wall_ns_ += stream.wall_ns();
    probe_cpu_ns_ += stream.cpu_ns();

    Op((*feed)->entity_of() == entities_,
       "traced feed: ground truth differs from the datagen pass");
    Op(report.ok(), "RunStream: " + report.status().ToString());
    if (!report.ok()) return seconds;
    Op(stream.num_pairs() == (*feed)->num_candidates(),
       "timed stream saw a different candidate count than the feed");
    CheckChecksum(stream.checksum(), "traced");
    VerifyReport(*report, (*feed)->num_candidates(), counts);
    return seconds;
  }

  // Every materialized candidate passes the join threshold and carries the
  // ground-truth label; the order-independent checksum pins the set.
  void VerifyCandidates(const CandidateSet& candidates,
                        const LabelingReport& report, const char* path) {
    bool ok = report.outcomes.size() == candidates.size();
    uint64_t checksum = 0;
    for (size_t i = 0; ok && i < candidates.size(); ++i) {
      const CandidatePair& pair = candidates[i];
      const std::optional<PairOutcome>& outcome = report.outcomes[i];
      ok = InRange(entities_, pair.a, pair.b) && pair.a != pair.b &&
           pair.likelihood >= kThreshold && pair.likelihood <= 1.0 &&
           outcome.has_value() &&
           outcome->label == Truth(entities_, pair.a, pair.b);
      checksum += PairHash(pair);
    }
    Op(ok, StrFormat("%s rep: a candidate fails the threshold or carries "
                     "a wrong label",
                     path));
    CheckChecksum(checksum, path);
  }

  void VerifyReport(const LabelingReport& report, int64_t num_candidates,
                    Counts& counts) {
    Op(report.num_candidates == num_candidates &&
           report.num_crowdsourced + report.num_deduced == num_candidates &&
           report.num_unlabeled == 0 && report.num_conflicts == 0 &&
           static_cast<int64_t>(report.outcomes.size()) == num_candidates,
       "labeling report does not account for every candidate");
    counts["candidates"] = static_cast<double>(num_candidates);
    counts["crowd_asks"] = static_cast<double>(report.num_crowdsourced);
    counts["deduced"] = static_cast<double>(report.num_deduced);
    counts["rounds"] = static_cast<double>(
        streamed_ ? report.num_stream_rounds
                  : static_cast<int64_t>(
                        report.crowdsourced_per_iteration.size()));
  }

  // The last round's checkpoint covers the whole campaign, and every crowd
  // answer logged in it is the ground truth: faults delay answers, they
  // never change them.
  void VerifyCheckpoint(const std::string& path, Counts& counts) {
    Result<SessionCheckpointState> state = LoadSessionCheckpoint(path);
    Op(state.ok(), "checkpoint unreadable: " + state.status().ToString());
    if (!state.ok()) return;
    bool labels_ok = true;
    for (const LoggedEdge& edge : state->edge_log) {
      labels_ok = labels_ok && InRange(entities_, edge.a, edge.b) &&
                  edge.label == Truth(entities_, edge.a, edge.b);
    }
    Op(labels_ok, "a checkpointed crowd answer differs from ground truth");
    Op(static_cast<double>(state->completed_rounds) == counts["rounds"] &&
           static_cast<double>(state->num_crowdsourced) ==
               counts["crowd_asks"] &&
           static_cast<double>(state->num_deduced) == counts["deduced"],
       "the final checkpoint does not match the campaign report");
  }

  static constexpr double kThreshold = 0.7;

  const bool streamed_;
  const int32_t scale_;
  std::unique_ptr<StreamingPaperSource> source_;
  std::vector<int32_t> entities_;
  int checkpoint_seq_ = 0;
  int64_t num_tokens_ = 0;
  int64_t probe_cpu_ns_ = 0;
  int64_t probe_wall_ns_ = 0;
  int64_t checkpoint_writes_ = 0;
  int64_t checkpoint_bytes_ = 0;
  std::atomic<int64_t> fault_attempts_{0};
};

// ---------------------------------------------------------------------------
// instant_planner: the AMT cost planner's transitive campaigns on the paper
// workbench (instant-decision publishing over the simulated crowd)
// ---------------------------------------------------------------------------

class InstantWorkload : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    Result<ExperimentInput> input = MakePaperExperimentInput(kWorkbenchSeed);
    Op(input.ok(), "MakePaperExperimentInput: " + input.status().ToString());
    if (!input.ok()) return;
    truth_ = std::make_unique<GroundTruthOracle>(
        MakeGroundTruthOracle(input->dataset));
    pairs_ = FilterByThreshold(input->candidates, kThreshold);
    Result<std::vector<int32_t>> order = MakeLabelingOrder(
        pairs_, OrderKind::kExpected, truth_.get(), nullptr);
    Op(order.ok(), "MakeLabelingOrder: " + order.status().ToString());
    if (order.ok()) order_ = *std::move(order);
    CheckChecksum(PairsChecksum(), "setup");
  }

  // MakePaperExperimentInput split into its datagen, text and simjoin
  // calls (the workbench's own settings); must build the same pairs.
  void SetupTraced() override {
    PaperDatasetConfig config;
    config.seed = kWorkbenchSeed;
    StreamingPaperSource stream(config, 1);
    TimedRecordSource source(stream);
    Result<Dataset> dataset = [&] {
      Timed timed(Site::kDatagenGenerate);
      return MaterializeDataset(source);
    }();
    Op(dataset.ok(), "MaterializeDataset: " + dataset.status().ToString());
    if (!dataset.ok()) return;
    RecordScorer scorer = [&] {
      Timed timed(Site::kTextFitScorer);
      RecordScorer fitted = MakePaperScorer();
      fitted.FitTfIdf(dataset->records);
      return fitted;
    }();
    CandidateGeneratorOptions generator;
    generator.token_join_threshold = 0.08;
    generator.min_likelihood = 0.10;
    generator.likelihood_noise_stddev = 0.12;
    generator.noise_seed = kWorkbenchSeed ^ 0x9E3779B9u;
    Result<CandidateSet> candidates = [&] {
      Timed timed(Site::kSimjoinGenerate);
      return GenerateCandidates(dataset->records, nullptr, scorer,
                                generator);
    }();
    Op(candidates.ok(),
       "GenerateCandidates: " + candidates.status().ToString());
    if (!candidates.ok()) return;
    truth_ = std::make_unique<GroundTruthOracle>(
        MakeGroundTruthOracle(*dataset));
    pairs_ = FilterByThreshold(*candidates, kThreshold);
    Result<std::vector<int32_t>> order = [&] {
      Timed timed(Site::kCoreOrder);
      return MakeLabelingOrder(pairs_, OrderKind::kExpected, truth_.get(),
                               nullptr);
    }();
    Op(order.ok(), "MakeLabelingOrder: " + order.status().ToString());
    if (order.ok()) order_ = *std::move(order);
    CheckChecksum(PairsChecksum(), "traced setup");
  }

  double Rep(bool /*traced*/) override {
    struct Campaign {
      CrowdConfig config;
      Result<AmtRunStats> stats = Status(StatusCode::kInternal, "not run");
    };
    std::vector<Campaign> campaigns;
    // Each campaign draws its own crowd from the seed: the rescan cost
    // grows faster than the asks, so one shared crowd would swing all four
    // campaigns the same way.
    uint64_t crowd_seed = options_.seed;
    for (int draw = 0; draw < (options_.quick ? 1 : kCrowdDraws); ++draw) {
      for (int workers : options_.quick ? std::vector<int>{10}
                                        : std::vector<int>{10, 40}) {
        for (double error : options_.quick
                                ? std::vector<double>{0.05}
                                : std::vector<double>{0.05, 0.20}) {
          Campaign campaign;
          campaign.config.seed = SplitMix64(crowd_seed);
          campaign.config.num_workers = workers;
          campaign.config.assignments_per_hit = 3;
          campaign.config.false_negative_rate = error;
          campaign.config.false_positive_rate = error;
          campaigns.push_back(std::move(campaign));
        }
      }
    }
    const WallTimer watch;
    for (Campaign& campaign : campaigns) {
      Timed timed(Site::kCrowdAmtCampaign);
      campaign.stats =
          RunTransitiveAmt(pairs_, order_, campaign.config, *truth_);
    }
    const double seconds = watch.ElapsedSeconds();

    Counts counts;
    double f_sum = 0.0;
    for (const Campaign& campaign : campaigns) {
      Op(campaign.stats.ok(),
         "RunTransitiveAmt: " + campaign.stats.status().ToString());
      if (!campaign.stats.ok()) continue;
      const AmtRunStats& stats = *campaign.stats;
      const QualityMetrics quality =
          ComputeQuality(pairs_, stats.final_labels, *truth_);
      Op(stats.final_labels.size() == pairs_.size() &&
             stats.num_crowdsourced_pairs + stats.num_deduced_pairs ==
                 static_cast<int64_t>(pairs_.size()) &&
             quality.f_measure > 0.0 && quality.f_measure <= 1.0,
         "an AMT campaign left pairs unlabeled or scored no F-measure");
      counts["crowd_asks"] += static_cast<double>(stats.num_crowdsourced_pairs);
      counts["deduced"] += static_cast<double>(stats.num_deduced_pairs);
      counts["hits"] += static_cast<double>(stats.num_hits);
      counts["sim_hours"] += stats.total_hours;
      f_sum += quality.f_measure;
    }
    counts["candidates"] = static_cast<double>(pairs_.size());
    counts["campaigns"] = static_cast<double>(campaigns.size());
    counts["f_measure"] = f_sum / static_cast<double>(campaigns.size());
    CheckCounts(counts, "rep");
    return seconds;
  }

  // The instant-decision protocol driven directly, FIFO, with ground-truth
  // answers: times every OnPairLabeled rescan on the planner's pairs.
  double Probe() override {
    LabelingSessionOptions session_options;
    session_options.schedule = SchedulePolicy::kInstantDecision;
    LabelingSession session(session_options);
    std::vector<double> samples;
    const WallTimer watch;
    Result<std::vector<int32_t>> initial = [&] {
      Timed timed(Site::kCoreInstantStart);
      return session.Start(&pairs_, order_);
    }();
    bool ok = initial.ok();
    std::deque<int32_t> queue;
    if (ok) queue.assign(initial->begin(), initial->end());
    while (ok && !queue.empty()) {
      const int32_t pos = queue.front();
      queue.pop_front();
      const CandidatePair& pair = pairs_[static_cast<size_t>(pos)];
      const Label label = truth_->Truth(pair.a, pair.b);
      const WallTimer call;
      Result<std::vector<int32_t>> fresh = [&] {
        Timed timed(Site::kCoreInstantLabel);
        return session.OnPairLabeled(pos, label);
      }();
      samples.push_back(Micros(call));
      ok = fresh.ok();
      if (ok) queue.insert(queue.end(), fresh->begin(), fresh->end());
    }
    Result<LabelingReport> report = [&] {
      Timed timed(Site::kCoreInstantFinish);
      return session.Finish();
    }();
    const double seconds = watch.ElapsedSeconds();
    ok = ok && report.ok() && report->outcomes.size() == pairs_.size() &&
         report->num_crowdsourced == static_cast<int64_t>(samples.size());
    for (size_t i = 0; ok && i < pairs_.size(); ++i) {
      ok = report->outcomes[i].has_value() &&
           report->outcomes[i]->label ==
               truth_->Truth(pairs_[i].a, pairs_[i].b);
    }
    Op(ok, "instant probe: a label differs from ground truth");
    on_label_us_.push_back(std::move(samples));
    return seconds;
  }

  void Report(Json& out) const override {
    ReportCounts(out);
    Json samples;
    samples.Samples("instant_on_label_us", on_label_us_);
    out.Obj("samples", samples);
  }

 private:
  uint64_t PairsChecksum() const {
    uint64_t checksum = 0;
    for (const CandidatePair& pair : pairs_) checksum += PairHash(pair);
    return checksum;
  }

  static constexpr double kThreshold = 0.4;
  static constexpr int kCrowdDraws = 2;
  // One fixed workbench, as the paper plans over one fixed dataset; the
  // seed drives the simulated crowd. (A one-block corpus regenerated per
  // seed swings the campaigns' cost by +-25%, which would drown any change
  // the benchmark is meant to see.)
  static constexpr uint64_t kWorkbenchSeed = 42;

  std::unique_ptr<GroundTruthOracle> truth_;
  CandidateSet pairs_;
  std::vector<int32_t> order_;
  std::vector<std::vector<double>> on_label_us_;
};

// ---------------------------------------------------------------------------
// serve_sf10: one closed-loop writer (ingest + label from ground truth)
// beside open-loop readers on the resolution service
// ---------------------------------------------------------------------------

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(const Options& options)
      : Workload(options), scale_(options.quick ? 1 : 10) {}

  void Setup() override {
    PaperDatasetConfig config;
    config.seed = options_.seed;
    StreamingPaperSource stream(config, scale_);
    TimedRecordSource source(stream);
    texts_.clear();
    entities_.clear();
    StreamedRecord record;
    while (source.Next(&record)) {
      texts_.push_back(RecordText(record.record));
      entities_.push_back(record.entity);
    }
    Op(source.status().ok() && !texts_.empty(), "setup: record stream failed");
  }

  double Rep(bool traced) override {
    ResolutionServiceOptions service_options;
    service_options.threshold = 0.5;
    service_options.top_k = 10;
    ResolutionService service(service_options);
    const size_t n = texts_.size();

    std::atomic<size_t> ingested{0};
    std::atomic<bool> stop{false};
    std::vector<ReaderLog> logs(kReaders);
    std::vector<std::thread> readers;
    const int64_t start_ns = obs::NowNs();
    for (size_t t = 0; t < kReaders; ++t) {
      // Each reader walks the corpus from its own offset.
      readers.emplace_back([&, t] {
        ReadLoop(service, t * n / kReaders, start_ns, traced, ingested, stop,
                 logs[t]);
      });
    }

    std::vector<double> ingest_ms;
    std::vector<double> deduce_us;
    std::vector<double> on_label_us;
    ingest_ms.reserve(n);
    std::vector<std::pair<ObjectId, ObjectId>> pairs;
    int64_t labels = 0;
    const WallTimer watch;
    for (size_t i = 0; i < n; ++i) {
      const WallTimer ingest;
      IngestResult result = [&] {
        Timed timed(Site::kServeIngest);
        return service.Ingest(texts_[i]);
      }();
      ingest_ms.push_back(ingest.ElapsedMillis());
      ingested.store(i + 1, std::memory_order_release);
      for (const ServeCandidate& candidate : result.candidates) {
        pairs.emplace_back(result.id, candidate.id);
        const WallTimer deduce;
        const Deduction deduction = [&] {
          Timed timed(Site::kServeDeduce);
          return service.DeducePair(result.id, candidate.id);
        }();
        if (traced) deduce_us.push_back(Micros(deduce));
        if (deduction != Deduction::kUndeduced) continue;
        const Label label = InRange(entities_, result.id, candidate.id)
                                ? Truth(entities_, result.id, candidate.id)
                                : Label::kNonMatching;
        const WallTimer on_label;
        {
          Timed timed(Site::kServeOnLabel);
          service.OnPairLabeled(result.id, candidate.id, label);
        }
        if (traced) on_label_us.push_back(Micros(on_label));
        ++labels;
      }
    }
    const double seconds = watch.ElapsedSeconds();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& reader : readers) reader.join();

    // One sample list per rep and metric, across all readers.
    Ops(static_cast<int64_t>(n), 0, "");
    ReaderLog merged;
    for (const ReaderLog& log : logs) {
      Ops(log.queries, log.bad,
          "a reader query missed its own record or resolved an invalid "
          "cluster");
      for (auto [from, to] :
           {std::pair{&log.latency_ms, &merged.latency_ms},
            std::pair{&log.late_ms, &merged.late_ms},
            std::pair{&log.service_us, &merged.service_us},
            std::pair{&log.resolve_us, &merged.resolve_us}}) {
        to->insert(to->end(), from->begin(), from->end());
      }
    }
    ingest_ms_.push_back(std::move(ingest_ms));
    query_ms_.push_back(std::move(merged.latency_ms));
    late_ms_.push_back(std::move(merged.late_ms));
    if (traced) {
      deduce_us_.push_back(std::move(deduce_us));
      on_label_us_.push_back(std::move(on_label_us));
      query_service_us_.push_back(std::move(merged.service_us));
      resolve_us_.push_back(std::move(merged.resolve_us));
    }

    // Every candidate pair the writer saw is now decided, and decided
    // right: labels came from ground truth and deductions follow them.
    int64_t wrong = 0;
    for (const auto& [a, b] : pairs) {
      const Deduction deduction = service.DeducePair(a, b);
      const bool matching = InRange(entities_, a, b) &&
                            Truth(entities_, a, b) == Label::kMatching;
      if (deduction !=
          (matching ? Deduction::kMatching : Deduction::kNonMatching)) {
        ++wrong;
      }
    }
    const ServeStats stats = service.Stats();
    Op(wrong == 0 && stats.num_records == static_cast<int64_t>(n),
       StrFormat("%lld candidate pairs resolved against ground truth",
                 static_cast<long long>(wrong)));
    Counts counts;
    counts["candidates"] = static_cast<double>(pairs.size());
    counts["crowd_asks"] = static_cast<double>(labels);
    counts["clusters"] = static_cast<double>(stats.num_clusters);
    counts["records"] = static_cast<double>(n);
    CheckCounts(counts, traced ? "traced" : "untraced");
    return seconds;
  }

  void DropSamples() override {
    for (std::vector<std::vector<double>>* samples :
         {&ingest_ms_, &query_ms_, &late_ms_, &deduce_us_, &on_label_us_,
          &query_service_us_, &resolve_us_}) {
      samples->clear();
    }
  }

  void Report(Json& out) const override {
    ReportCounts(out);
    Json samples;
    samples.Samples("ingest_ms", ingest_ms_)
        .Samples("query_ms", query_ms_)
        .Samples("gen_late_ms", late_ms_)
        .Samples("deduce_us", deduce_us_)
        .Samples("on_label_us", on_label_us_)
        .Samples("query_service_us", query_service_us_)
        .Samples("resolve_us", resolve_us_);
    out.Obj("samples", samples);
  }

 private:
  struct ReaderLog {
    std::vector<double> latency_ms;  // from the scheduled send time
    std::vector<double> late_ms;     // how late the schedule ran
    std::vector<double> service_us;  // query + resolves, no queueing
    std::vector<double> resolve_us;
    int64_t queries = 0;
    int64_t bad = 0;
  };

  // Open loop: query k is due at start + k * period whatever happened to
  // query k - 1, so a stall shows up in the latency of the ones after it.
  void ReadLoop(const ResolutionService& service, size_t pos, int64_t start_ns,
                bool traced, const std::atomic<size_t>& ingested,
                const std::atomic<bool>& stop, ReaderLog& log) const {
    const size_t n = texts_.size();
    int64_t due_ns = start_ns;
    while (!stop.load(std::memory_order_relaxed)) {
      const int64_t now_ns = obs::NowNs();
      if (now_ns < due_ns) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now_ns));
      }
      const int64_t begin_ns = obs::NowNs();
      const size_t known = ingested.load(std::memory_order_acquire);
      const std::vector<ServeCandidate> candidates = [&] {
        Timed timed(Site::kServeQuery);
        return service.QueryCandidates(texts_[pos]);
      }();
      // A record already ingested finds itself, at similarity exactly 1.
      bool ok = pos >= known ||
                (!candidates.empty() && candidates.front().similarity == 1.0);
      for (const ServeCandidate& candidate : candidates) {
        const WallTimer resolve;
        const ObjectId cluster = [&] {
          Timed timed(Site::kServeResolve);
          return service.ResolveCluster(candidate.id);
        }();
        if (traced) log.resolve_us.push_back(Micros(resolve));
        ok = ok && cluster >= 0 && static_cast<size_t>(cluster) < n;
      }
      const int64_t end_ns = obs::NowNs();
      log.latency_ms.push_back(static_cast<double>(end_ns - due_ns) * 1e-6);
      log.late_ms.push_back(static_cast<double>(begin_ns - due_ns) * 1e-6);
      if (traced) {
        log.service_us.push_back(static_cast<double>(end_ns - begin_ns) *
                                 1e-3);
      }
      ++log.queries;
      if (!ok) ++log.bad;
      due_ns += kReaderPeriodNs;
      pos = pos + 1 == n ? 0 : pos + 1;
    }
  }

  // Two readers at 250 queries/s each sit below the rate at which reads
  // starve the writer (README, "The serving cliff"), so the numbers repeat.
  static constexpr size_t kReaders = 2;
  static constexpr int64_t kReaderPeriodNs = 4'000'000;

  const int32_t scale_;
  std::vector<std::string> texts_;
  std::vector<int32_t> entities_;
  std::vector<std::vector<double>> ingest_ms_;
  std::vector<std::vector<double>> query_ms_;
  std::vector<std::vector<double>> late_ms_;
  std::vector<std::vector<double>> deduce_us_;
  std::vector<std::vector<double>> on_label_us_;
  std::vector<std::vector<double>> query_service_us_;
  std::vector<std::vector<double>> resolve_us_;
};

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload=NAME --out=PATH "
               "[--seed=N] [--seconds=S] [--min_reps=N] [--setups=N] "
               "[--traced=0|1] [--quick=0|1] [--tmp_dir=DIR] "
               "[--trace_json=PATH]\n",
               problem.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Usage("bad argument '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    const auto number = [&] {
      const double parsed = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(parsed >= 0)) {
        Usage("bad value for --" + key);
      }
      return parsed;
    };
    if (key == "workload") {
      options.workload = value;
    } else if (key == "seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("bad value for --seed");
    } else if (key == "seconds") {
      options.seconds = number();
    } else if (key == "min_reps") {
      options.min_reps = std::max(1, static_cast<int>(number()));
    } else if (key == "setups") {
      options.setups = std::max(1, static_cast<int>(number()));
    } else if (key == "traced") {
      options.traced = number() != 0;
    } else if (key == "quick") {
      options.quick = number() != 0;
    } else if (key == "out") {
      options.out = value;
    } else if (key == "trace_json") {
      options.trace_json = value;
    } else if (key == "tmp_dir") {
      options.tmp_dir = value;
    } else {
      Usage("unknown flag --" + key);
    }
  }
  if (options.out.empty()) Usage("--out is required");
  return options;
}

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "campaign_sf100") {
    return std::make_unique<CampaignWorkload>(options, /*streamed=*/false);
  }
  if (options.workload == "stream_sf100") {
    return std::make_unique<CampaignWorkload>(options, /*streamed=*/true);
  }
  if (options.workload == "instant_planner") {
    return std::make_unique<InstantWorkload>(options);
  }
  if (options.workload == "serve_sf10") {
    return std::make_unique<ServeWorkload>(options);
  }
  Usage("unknown workload '" + options.workload + "'");
}

Json LedgerJson(double wall_s) {
  Ledger& ledger = Ledger::Get();
  Json layers;
  for (int l = 0; l < kNumLayers; ++l) {
    layers.Num(LayerName(static_cast<Layer>(l)),
               Seconds(ledger.workload_self_ns(static_cast<Layer>(l))));
  }
  Json sites;
  for (int s = 0; s < kNumSites; ++s) {
    const Ledger::SiteTotals& totals = ledger.site(static_cast<Site>(s));
    if (totals.calls.load() == 0) continue;
    Json site;
    site.Num("calls", static_cast<double>(totals.calls.load()))
        .Num("wall_s", Seconds(totals.wall_ns.load()))
        .Num("self_s", Seconds(totals.self_ns.load()));
    sites.Obj(SiteName(static_cast<Site>(s)), site);
  }
  Json out;
  out.Num("wall_s", wall_s).Obj("layers", layers).Obj("sites", sites);
  return out;
}

// Library counters and histogram sums the traced reps moved.
struct ObsTotals {
  double pool_task_wait_s = 0;
  double pool_task_run_s = 0;
  double pool_tasks = 0;
  double prefilter_candidates = 0;
  double pairs_emitted = 0;

  static ObsTotals Read() {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    const auto counter = [&](std::string_view name) {
      const obs::CounterSample* sample = snapshot.FindCounter(name);
      return sample == nullptr ? 0.0 : static_cast<double>(sample->value);
    };
    const auto histogram_sum_s = [&](std::string_view name) {
      const obs::HistogramSample* sample = snapshot.FindHistogram(name);
      return sample == nullptr ? 0.0 : static_cast<double>(sample->sum) * 1e-6;
    };
    ObsTotals totals;
    totals.pool_task_wait_s = histogram_sum_s("pool.task_wait_us");
    totals.pool_task_run_s = histogram_sum_s("pool.task_run_us");
    totals.pool_tasks = counter("pool.tasks_total");
    totals.prefilter_candidates =
        counter("simjoin.prefilter_candidates_total");
    totals.pairs_emitted = counter("simjoin.pairs_emitted_total");
    return totals;
  }

  void AddDelta(const ObsTotals& before, const ObsTotals& after) {
    pool_task_wait_s += after.pool_task_wait_s - before.pool_task_wait_s;
    pool_task_run_s += after.pool_task_run_s - before.pool_task_run_s;
    pool_tasks += after.pool_tasks - before.pool_tasks;
    prefilter_candidates +=
        after.prefilter_candidates - before.prefilter_candidates;
    pairs_emitted += after.pairs_emitted - before.pairs_emitted;
  }

  Json ToJson() const {
    Json out;
    out.Num("pool_task_wait_s", pool_task_wait_s)
        .Num("pool_task_run_s", pool_task_run_s)
        .Num("pool_tasks", pool_tasks)
        .Num("prefilter_candidates", prefilter_candidates)
        .Num("pairs_emitted", pairs_emitted);
    return out;
  }
};

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const size_t written = std::fwrite(content.data(), 1, content.size(), file);
  return std::fclose(file) == 0 && written == content.size();
}

int Main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  Ledger::MarkWorkloadThread();
  Json out;
  out.Str("workload", options.workload)
      .Num("seed", static_cast<double>(options.seed))
      .Num("quick", options.quick ? 1 : 0)
      .Num("traced", options.traced ? 1 : 0)
      .Num("threads", kThreads);

  const auto elapsed_s = [start_ns = obs::NowNs()] {
    return Seconds(obs::NowNs() - start_ns);
  };
  if (!options.traced) {
    // The machine's speed for single-threaded work wanders by a quarter
    // from one few-second stretch to the next, so setups are spread over
    // the whole run instead of timed back to back: after each rep the
    // workload is set up again until setups have taken kSetupShare of the
    // reps' time, and at least `--setups` times in all.
    std::vector<double> setup_s;
    double setup_total_s = 0.0;
    const auto timed_setup = [&] {
      const WallTimer watch;
      workload->Setup();
      setup_s.push_back(watch.ElapsedSeconds());
      setup_total_s += setup_s.back();
    };
    timed_setup();
    const double warmup_s = workload->Rep(false);
    workload->DropSamples();
    const double begin_s = elapsed_s();
    std::vector<double> reps;
    double reps_total_s = 0.0;
    while (static_cast<int>(reps.size()) < options.min_reps ||
           elapsed_s() - begin_s < options.seconds) {
      reps.push_back(workload->Rep(false));
      reps_total_s += reps.back();
      while (setup_total_s < kSetupShare * reps_total_s) timed_setup();
    }
    while (static_cast<int>(setup_s.size()) < options.setups) timed_setup();
    out.Nums("setup_s", setup_s)
        .Num("warmup_s", warmup_s)
        .Nums("campaign_s", reps);
  } else {
    Ledger& ledger = Ledger::Get();
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    recorder.SetRingCapacity(size_t{1} << 21);
    const auto set_tracing = [&](bool on) {
      ledger.SetEnabled(on);
      recorder.SetEnabled(on);
    };
    workload->Setup();
    set_tracing(true);
    const WallTimer setup_watch;
    workload->SetupTraced();
    const double setup_wall_s = setup_watch.ElapsedSeconds();
    set_tracing(false);
    out.Obj("setup_ledger", LedgerJson(setup_wall_s));
    ledger.Reset();

    const double warmup_s = workload->Rep(false);
    workload->DropSamples();
    const double begin_s = elapsed_s();
    std::vector<double> untraced;
    std::vector<double> traced;
    ObsTotals obs_totals;
    while (static_cast<int>(traced.size()) < options.min_reps ||
           elapsed_s() - begin_s < options.seconds) {
      untraced.push_back(workload->Rep(false));
      recorder.Clear();
      const ObsTotals before = ObsTotals::Read();
      set_tracing(true);
      traced.push_back(workload->Rep(true));
      set_tracing(false);
      obs_totals.AddDelta(before, ObsTotals::Read());
    }
    set_tracing(true);
    const double probe_s = workload->Probe();
    set_tracing(false);
    double ledger_wall_s = probe_s;
    for (double s : traced) ledger_wall_s += s;
    out.Num("warmup_s", warmup_s)
        .Nums("campaign_s", untraced)
        .Nums("traced_campaign_s", traced)
        .Num("probe_s", probe_s)
        .Obj("ledger", LedgerJson(ledger_wall_s))
        .Obj("obs", obs_totals.ToJson());
    if (!options.trace_json.empty() &&
        !WriteFile(options.trace_json, recorder.ToChromeTraceJson())) {
      std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                   options.trace_json.c_str());
      return 2;
    }
  }

  workload->Report(out);
  out.Num("peak_rss_mib", PeakRssMiB())
      .Num("ops", static_cast<double>(workload->ops()))
      .Num("failed_ops", static_cast<double>(workload->failed_ops()))
      .Strs("failures", workload->failures());
  if (!WriteFile(options.out, out.str() + "\n")) {
    std::fprintf(stderr, "e2e_bench: cannot write %s\n", options.out.c_str());
    return 2;
  }
  for (const std::string& failure : workload->failures()) {
    std::fprintf(stderr, "e2e_bench: FAILED: %s\n", failure.c_str());
  }
  return workload->failed_ops() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace crowdjoin::e2e

int main(int argc, char** argv) { return crowdjoin::e2e::Main(argc, argv); }
