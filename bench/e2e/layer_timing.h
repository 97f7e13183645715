// Per-layer timing from outside the library: every public call the
// end-to-end benchmark makes into a module is wrapped in a `Timed` scope,
// and the decorators below route the library's own call-backs (record
// pulls, candidate rounds, oracle asks, fault coins) through the same
// scopes. Nothing under src/ is touched; the library's obs spans and
// counters keep running beside these.
//
// A `Timed` scope, while the ledger is enabled, adds its wall time to its
// call site and its *self* time (wall minus nested timed calls on the same
// thread) to the site's layer, and records an obs::Span so the exported
// Perfetto trace shows the same boundaries. With the ledger disabled a
// scope costs one relaxed load, so untraced runs measure the library
// alone.

#ifndef CROWDJOIN_BENCH_E2E_LAYER_TIMING_H_
#define CROWDJOIN_BENCH_E2E_LAYER_TIMING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>

#include "core/labeling_session.h"
#include "core/oracle.h"
#include "core/retry_policy.h"
#include "datagen/record_source.h"
#include "obs/tracing.h"

namespace crowdjoin::e2e {

/// The library modules the benchmark calls into.
enum class Layer : int { kDatagen, kText, kSimjoin, kCore, kCrowd, kServe };
inline constexpr int kNumLayers = 6;

/// Every timed public call site. Names double as span names.
enum class Site : int {
  kDatagenNext,        // RecordSource::Next
  kDatagenGenerate,    // MaterializeDataset (workbench dataset)
  kTextTokenize,       // record text + WordTokens
  kTextFitScorer,      // MakePaperScorer + RecordScorer::FitTfIdf
  kSimjoinDictionary,  // TokenDictionary::AddDocument
  kSimjoinShardAdd,    // ShardedSelfJoiner::Add
  kSimjoinIndexBuild,  // ShardedSelfJoiner::MakeCursor
  kSimjoinProbe,       // ShardedJoinCursor::NextBatch
  kSimjoinFeedOpen,    // StreamingCandidateFeed::Open
  kSimjoinNextRound,   // CandidateStream::NextRound (the feed)
  kSimjoinGenerate,    // GenerateCandidates (workbench candidates)
  kCoreOrder,          // MakeLabelingOrder
  kCoreRun,            // LabelingSession::Run
  kCoreRunStream,      // LabelingSession::RunStream
  kCoreInstantStart,   // LabelingSession::Start
  kCoreInstantLabel,   // LabelingSession::OnPairLabeled
  kCoreInstantFinish,  // LabelingSession::Finish
  kCrowdOracle,        // LabelOracle::GetLabel
  kCrowdFault,         // AttemptFaultFn
  kCrowdAmtCampaign,   // RunTransitiveAmt
  kServeIngest,        // ResolutionService::Ingest
  kServeOnLabel,       // ResolutionService::OnPairLabeled
  kServeDeduce,        // ResolutionService::DeducePair
  kServeQuery,         // ResolutionService::QueryCandidates
  kServeResolve,       // ResolutionService::ResolveCluster
};
inline constexpr int kNumSites = 25;

const char* LayerName(Layer layer);
const char* SiteName(Site site);
Layer SiteLayer(Site site);

/// Process-wide accumulators behind every `Timed` scope.
class Ledger {
 public:
  struct SiteTotals {
    std::atomic<int64_t> calls{0};
    std::atomic<int64_t> wall_ns{0};  // inclusive, summed over threads
    std::atomic<int64_t> self_ns{0};  // minus nested timed calls
  };

  static Ledger& Get();

  /// Zeroes every accumulator.
  void Reset();

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Marks the calling thread as the one driving the workload. Only its
  /// self time partitions the wall clock into layers; calls made from pool
  /// or reader threads are reported per site but overlap that wall.
  static void MarkWorkloadThread();

  SiteTotals& site(Site s) { return sites_[static_cast<size_t>(s)]; }
  int64_t workload_self_ns(Layer layer) const {
    return layer_self_ns_[static_cast<size_t>(layer)].load(
        std::memory_order_relaxed);
  }

 private:
  friend class Timed;

  std::atomic<bool> enabled_{false};
  std::array<SiteTotals, kNumSites> sites_;
  std::array<std::atomic<int64_t>, kNumLayers> layer_self_ns_{};
};

/// RAII scope around one public call (see the file comment). Must be
/// destroyed on the thread that created it, in LIFO order.
class Timed {
 public:
  explicit Timed(Site site);
  ~Timed();

  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Site site_;
  bool active_;
  int64_t start_ns_ = 0;
  int64_t child_ns_ = 0;
  Timed* parent_ = nullptr;
  std::optional<obs::Span> span_;
};

/// `RecordSource` decorator timing every `Next` as datagen work.
class TimedRecordSource : public RecordSource {
 public:
  explicit TimedRecordSource(RecordSource& inner) : inner_(inner) {}

  const StreamMeta& meta() const override { return inner_.meta(); }
  bool Next(StreamedRecord* out) override;
  void Reset() override { inner_.Reset(); }
  Status status() const override { return inner_.status(); }

 private:
  RecordSource& inner_;
};

/// Order-independent checksum of a candidate set over (a, b, likelihood):
/// the sum of per-pair hashes, so a streamed set and a materialized one
/// compare equal whatever order their rounds arrive in.
uint64_t PairHash(const CandidatePair& pair);

/// CPU time of the whole process (all threads), in nanoseconds.
int64_t ProcessCpuNs();

/// `CandidateStream` decorator timing every `NextRound` as simjoin work
/// (wall, and process CPU to expose the join's parallelism) and
/// checksumming what passes through.
class TimedCandidateStream : public CandidateStream {
 public:
  explicit TimedCandidateStream(CandidateStream& inner) : inner_(inner) {}

  Result<CandidateSet> NextRound() override;

  uint64_t checksum() const { return checksum_; }
  int64_t num_pairs() const { return num_pairs_; }
  int64_t wall_ns() const { return wall_ns_; }
  int64_t cpu_ns() const { return cpu_ns_; }

 private:
  CandidateStream& inner_;
  uint64_t checksum_ = 0;
  int64_t num_pairs_ = 0;
  int64_t wall_ns_ = 0;
  int64_t cpu_ns_ = 0;
};

/// `LabelOracle` decorator timing every ask as crowd work. Keeps the inner
/// oracle's batch safety; all its state is atomic, so round-parallel
/// labeling over it stays race-free and byte-identical.
class TimedOracle : public LabelOracle {
 public:
  explicit TimedOracle(LabelOracle& inner) : inner_(inner) {}

  Label GetLabel(ObjectId a, ObjectId b) override;
  bool IsBatchSafe() const override { return inner_.IsBatchSafe(); }

 private:
  LabelOracle& inner_;
};

/// Wraps a fault model so every attempt coin is timed as crowd work and
/// counted in `*attempts`. A null `inner` stays null (no fault model).
AttemptFaultFn TimeFaults(AttemptFaultFn inner,
                          std::atomic<int64_t>* attempts);

}  // namespace crowdjoin::e2e

#endif  // CROWDJOIN_BENCH_E2E_LAYER_TIMING_H_
