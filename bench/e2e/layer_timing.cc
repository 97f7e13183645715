#include "bench/e2e/layer_timing.h"

#include <time.h>

#include <cstring>
#include <iterator>
#include <utility>

#include "common/rng.h"
#include "obs/metrics.h"

namespace crowdjoin::e2e {

namespace {

struct SiteInfo {
  const char* name;
  Layer layer;
};

// Indexed by Site; span names must be literals (obs::Span keeps pointers).
constexpr SiteInfo kSiteInfo[] = {
    {"datagen.next", Layer::kDatagen},
    {"datagen.materialize", Layer::kDatagen},
    {"text.tokenize", Layer::kText},
    {"text.fit_scorer", Layer::kText},
    {"simjoin.dictionary", Layer::kSimjoin},
    {"simjoin.shard_add", Layer::kSimjoin},
    {"simjoin.index_build", Layer::kSimjoin},
    {"simjoin.probe", Layer::kSimjoin},
    {"simjoin.feed_open", Layer::kSimjoin},
    {"simjoin.next_round", Layer::kSimjoin},
    {"simjoin.generate", Layer::kSimjoin},
    {"core.order", Layer::kCore},
    {"core.run", Layer::kCore},
    {"core.run_stream", Layer::kCore},
    {"core.instant_start", Layer::kCore},
    {"core.instant_on_label", Layer::kCore},
    {"core.instant_finish", Layer::kCore},
    {"crowd.oracle", Layer::kCrowd},
    {"crowd.fault", Layer::kCrowd},
    {"crowd.amt_campaign", Layer::kCrowd},
    {"serve.ingest", Layer::kServe},
    {"serve.on_label", Layer::kServe},
    {"serve.deduce", Layer::kServe},
    {"serve.query", Layer::kServe},
    {"serve.resolve", Layer::kServe},
};

constexpr const char* kLayerNames[] = {"datagen", "text",  "simjoin",
                                       "core",    "crowd", "serve"};

static_assert(std::size(kSiteInfo) == kNumSites, "one entry per Site");
static_assert(std::size(kLayerNames) == kNumLayers, "one name per Layer");

thread_local Timed* tl_top = nullptr;
thread_local bool tl_workload_thread = false;

}  // namespace

const char* LayerName(Layer layer) {
  return kLayerNames[static_cast<int>(layer)];
}
const char* SiteName(Site site) {
  return kSiteInfo[static_cast<int>(site)].name;
}
Layer SiteLayer(Site site) { return kSiteInfo[static_cast<int>(site)].layer; }

Ledger& Ledger::Get() {
  static Ledger ledger;
  return ledger;
}

void Ledger::Reset() {
  for (SiteTotals& totals : sites_) {
    totals.calls.store(0, std::memory_order_relaxed);
    totals.wall_ns.store(0, std::memory_order_relaxed);
    totals.self_ns.store(0, std::memory_order_relaxed);
  }
  for (std::atomic<int64_t>& self : layer_self_ns_) {
    self.store(0, std::memory_order_relaxed);
  }
}

void Ledger::MarkWorkloadThread() { tl_workload_thread = true; }

Timed::Timed(Site site)
    : site_(site), active_(Ledger::Get().enabled()) {
  if (!active_) return;
  // The span is opened and closed inside [start, end), so its cost lands in
  // this call's self time rather than in unattributed gaps between calls.
  start_ns_ = obs::NowNs();
  parent_ = tl_top;
  tl_top = this;
  span_.emplace(SiteName(site), LayerName(SiteLayer(site)));
}

Timed::~Timed() {
  if (!active_) return;
  span_.reset();
  const int64_t wall = obs::NowNs() - start_ns_;
  const int64_t self = wall - child_ns_;
  tl_top = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += wall;
  Ledger& ledger = Ledger::Get();
  Ledger::SiteTotals& totals = ledger.site(site_);
  totals.calls.fetch_add(1, std::memory_order_relaxed);
  totals.wall_ns.fetch_add(wall, std::memory_order_relaxed);
  totals.self_ns.fetch_add(self, std::memory_order_relaxed);
  if (tl_workload_thread) {
    ledger.layer_self_ns_[static_cast<size_t>(SiteLayer(site_))].fetch_add(
        self, std::memory_order_relaxed);
  }
}

bool TimedRecordSource::Next(StreamedRecord* out) {
  Timed timed(Site::kDatagenNext);
  return inner_.Next(out);
}

uint64_t PairHash(const CandidatePair& pair) {
  uint64_t bits = 0;
  std::memcpy(&bits, &pair.likelihood, sizeof(bits));
  uint64_t state = (static_cast<uint64_t>(static_cast<uint32_t>(pair.a))
                    << 32) |
                   static_cast<uint32_t>(pair.b);
  uint64_t h = SplitMix64(state);
  state = h ^ bits;
  return SplitMix64(state);
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

Result<CandidateSet> TimedCandidateStream::NextRound() {
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t wall0 = obs::NowNs();
  Result<CandidateSet> round = [&] {
    Timed timed(Site::kSimjoinNextRound);
    return inner_.NextRound();
  }();
  wall_ns_ += obs::NowNs() - wall0;
  cpu_ns_ += ProcessCpuNs() - cpu0;
  if (round.ok()) {
    for (const CandidatePair& pair : *round) {
      checksum_ += PairHash(pair);
    }
    num_pairs_ += static_cast<int64_t>(round->size());
  }
  return round;
}

Label TimedOracle::GetLabel(ObjectId a, ObjectId b) {
  Timed timed(Site::kCrowdOracle);
  ++num_queries_;
  return inner_.GetLabel(a, b);
}

AttemptFaultFn TimeFaults(AttemptFaultFn inner,
                          std::atomic<int64_t>* attempts) {
  if (!inner) return inner;
  return [inner = std::move(inner), attempts](ObjectId a, ObjectId b,
                                              int attempt) {
    Timed timed(Site::kCrowdFault);
    attempts->fetch_add(1, std::memory_order_relaxed);
    return inner(a, b, attempt);
  };
}

}  // namespace crowdjoin::e2e
