#include "datagen/streaming_generator.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "datagen/cluster_distribution.h"
#include "datagen/perturb.h"
#include "datagen/wordlists.h"

namespace crowdjoin {

uint64_t BlockSeed(uint64_t base_seed, int32_t block) {
  if (block == 0) return base_seed;
  uint64_t state =
      base_seed ^ (0x9E3779B97F4A7C15ull * static_cast<uint64_t>(block));
  return SplitMix64(state);
}

namespace {

// ---------------------------------------------------------------------------
// Block-ahead generation. Every block is a pure function of its seed, so the
// blocks of a stream are generated independently on the shared generator
// pool and handed out in block order; record ids and entity ids are
// block-local until the reader adds the running offsets. The stream is
// therefore byte-identical for every worker count, and a one-block stream
// runs the same block function inline.
// ---------------------------------------------------------------------------

/// One generated block in flat form: the fields of every record back to
/// back in `bytes`, with `field_ends[r * num_fields + f]` the end offset of
/// field f of record r.
struct BlockBuffer {
  std::string bytes;
  std::vector<size_t> field_ends;
  std::vector<int32_t> entity;  // block-local entity of each record
  std::vector<uint8_t> side;
  int32_t num_entities = 0;
  Status status;

  size_t num_records() const { return entity.size(); }

  void Clear() {
    bytes.clear();
    field_ends.clear();
    entity.clear();
    side.clear();
    num_entities = 0;
    status = Status::OK();
  }

  void Append(const std::vector<std::string>& fields, int32_t record_entity,
              uint8_t record_side) {
    for (const std::string& field : fields) {
      bytes += field;
      field_ends.push_back(bytes.size());
    }
    entity.push_back(record_entity);
    side.push_back(record_side);
  }
};

/// Generates the block with seed `seed` into the cleared `out`, or stops
/// early once `cancel` is set (the partial block is then discarded). A
/// sampling error goes to `out->status`.
using BlockFn = std::function<void(uint64_t seed,
                                   const std::atomic<bool>& cancel,
                                   BlockBuffer* out)>;

/// The reader side of a block-seeded stream: keeps a bounded window of
/// blocks in flight on the shared pool (or generates inline), and turns
/// each block's flat buffer into records, adding the running record-id and
/// entity-id offsets. Buffers are allocated here, on the reader's thread,
/// and recycled from block to block.
class BlockStream {
 public:
  BlockStream(uint64_t base_seed, int32_t scale_factor,
              int32_t records_per_block, size_t num_fields, BlockFn generate)
      : base_seed_(base_seed),
        scale_factor_(scale_factor),
        records_per_block_(records_per_block),
        num_fields_(num_fields),
        generate_(std::move(generate)) {
    const int workers = ThreadPool::HardwareThreads();
    if (scale_factor_ > 1 && workers > 1) {
      pool_ = &SharedPool();
      // A block per worker plus two queued, so a worker that finishes
      // early finds the next block waiting; twice the worker count was no
      // faster on 4 cores and held more buffers.
      window_size_ = static_cast<size_t>(workers + 2);
    }
    Reset();
  }

  ~BlockStream() { Stop(); }

  BlockStream(const BlockStream&) = delete;
  BlockStream& operator=(const BlockStream&) = delete;

  /// Rewinds to the first record of block 0; blocks still in flight are
  /// cancelled and waited for. Generation restarts on the next `Next`.
  void Reset() {
    Stop();
    status_ = Status::OK();
    done_ = false;
    next_block_ = 0;
    record_ = 0;
    id_offset_ = 0;
    entity_offset_ = 0;
    if (scale_factor_ < 1) {
      Fail(Status::InvalidArgument("scale_factor must be >= 1"));
    } else if (static_cast<int64_t>(scale_factor_) * records_per_block_ - 1 >
               std::numeric_limits<ObjectId>::max()) {
      Fail(Status::InvalidArgument(
          "scale_factor x total_records overflows the record ids"));
    }
  }

  bool Next(StreamedRecord* out) {
    while (!done_) {
      Refill();
      if (window_.empty()) {
        done_ = true;  // every block delivered
        break;
      }
      Slot& slot = *window_.front();
      if (slot.done.valid()) slot.done.get();  // rethrows a task's exception
      const BlockBuffer& block = slot.buffer;
      if (!block.status.ok()) {
        Fail(block.status);
        break;
      }
      if (record_ < block.num_records()) {
        Emit(block, out);
        return true;
      }
      id_offset_ += static_cast<ObjectId>(block.num_records());
      entity_offset_ += block.num_entities;
      record_ = 0;
      free_.push_back(std::move(window_.front()));
      window_.pop_front();
    }
    return false;
  }

  const Status& status() const { return status_; }

 private:
  // Presizes a new buffer's bytes (both datasets average ~26 bytes per
  // field), so the reader's thread allocates it rather than a worker.
  static constexpr size_t kFieldBytesHint = 32;

  struct Slot {
    BlockBuffer buffer;
    std::future<void> done;  // invalid when generated inline
  };

  // Ends the stream with `status`, dropping whatever is still in flight.
  void Fail(Status status) {
    Stop();
    status_ = std::move(status);
    done_ = true;
  }

  // Cancels the blocks in flight, waits for them, and recycles their slots.
  void Stop() {
    cancel_.store(true, std::memory_order_relaxed);
    for (std::unique_ptr<Slot>& slot : window_) {
      if (slot->done.valid()) slot->done.wait();
      free_.push_back(std::move(slot));
    }
    window_.clear();
    cancel_.store(false, std::memory_order_relaxed);
  }

  // Starts blocks until the window is full or every block has started.
  void Refill() {
    while (window_.size() < window_size_ && next_block_ < scale_factor_) {
      std::unique_ptr<Slot> slot;
      if (free_.empty()) {
        slot = std::make_unique<Slot>();
        const auto records =
            static_cast<size_t>(std::max(records_per_block_, 0));
        slot->buffer.bytes.reserve(records * num_fields_ * kFieldBytesHint);
        slot->buffer.field_ends.reserve(records * num_fields_);
        slot->buffer.entity.reserve(records);
        slot->buffer.side.reserve(records);
      } else {
        slot = std::move(free_.back());
        free_.pop_back();
        slot->buffer.Clear();
      }
      const uint64_t seed = BlockSeed(base_seed_, next_block_++);
      BlockBuffer* buffer = &slot->buffer;
      if (pool_ == nullptr) {
        generate_(seed, cancel_, buffer);
      } else {
        // The slot outlives the task: Stop() waits before any slot is
        // reused or freed.
        slot->done = pool_->Submit(
            [this, seed, buffer] { generate_(seed, cancel_, buffer); });
      }
      window_.push_back(std::move(slot));
    }
  }

  void Emit(const BlockBuffer& block, StreamedRecord* out) {
    out->record.id = id_offset_ + static_cast<ObjectId>(record_);
    out->record.fields.resize(num_fields_);
    const size_t first = record_ * num_fields_;
    size_t begin = first == 0 ? 0 : block.field_ends[first - 1];
    for (size_t f = 0; f < num_fields_; ++f) {
      const size_t end = block.field_ends[first + f];
      out->record.fields[f].assign(block.bytes, begin, end - begin);
      begin = end;
    }
    out->entity = entity_offset_ + block.entity[record_];
    out->side = block.side[record_];
    ++record_;
  }

  const uint64_t base_seed_;
  const int32_t scale_factor_;
  const int32_t records_per_block_;
  const size_t num_fields_;
  const BlockFn generate_;
  ThreadPool* pool_ = nullptr;  // null: generate inline, one block at a time
  size_t window_size_ = 1;
  std::atomic<bool> cancel_{false};

  Status status_;
  bool done_ = false;
  int32_t next_block_ = 0;  // next block to start
  std::deque<std::unique_ptr<Slot>> window_;  // front: the block being read
  std::vector<std::unique_ptr<Slot>> free_;
  size_t record_ = 0;  // next record of the front block
  ObjectId id_offset_ = 0;
  int32_t entity_offset_ = 0;
};

// ---------------------------------------------------------------------------
// Paper entity/record construction. This is the single home of the
// generation logic: the batch GeneratePaperDataset drains a 1x stream, so
// the RNG consumption order below defines both paths.
// ---------------------------------------------------------------------------

// Schema field indexes for the Paper dataset.
constexpr int kAuthor = 0;
constexpr int kTitle = 1;
constexpr int kVenue = 2;
constexpr int kDate = 3;
constexpr int kPages = 4;

// A pronounceable rare token (consonant-vowel alternation) used to give
// each publication title a discriminative word, the way real titles carry
// system names and coined terms.
std::string RareToken(Rng& rng) {
  static constexpr char kConsonants[] = "bcdfghjklmnpqrstvwz";
  static constexpr char kVowels[] = "aeiou";
  const size_t length = 5 + rng.Index(4);
  std::string token;
  token.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    if (i % 2 == 0) {
      token += kConsonants[rng.Index(sizeof(kConsonants) - 1)];
    } else {
      token += kVowels[rng.Index(sizeof(kVowels) - 1)];
    }
  }
  return token;
}

struct PaperEntity {
  std::vector<std::string> authors;  // "first last"
  std::string title;
  size_t venue_index = 0;
  int year = 0;
  int first_page = 0;
  int last_page = 0;
};

PaperEntity MakePaperEntity(Rng& rng, const ZipfSampler& title_sampler) {
  const auto& first_names = wordlists::FirstNames();
  const auto& last_names = wordlists::LastNames();
  const auto& title_words = wordlists::TitleWords();

  PaperEntity entity;
  const size_t num_authors = 1 + rng.Index(3);
  for (size_t i = 0; i < num_authors; ++i) {
    std::string name(first_names[rng.Index(first_names.size())]);
    name += ' ';
    name += last_names[rng.Index(last_names.size())];
    entity.authors.push_back(std::move(name));
  }
  const size_t title_length = 5 + rng.Index(5);
  std::vector<std::string> words;
  for (size_t i = 0; i < title_length; ++i) {
    // Zipf-weighted draw: common words recur across entities, which gives
    // non-matching pairs graded, non-zero similarity.
    const size_t w = static_cast<size_t>(title_sampler.Sample(rng)) - 1;
    words.emplace_back(title_words[w]);
  }
  if (rng.Bernoulli(0.8)) {
    words.insert(words.begin() + static_cast<std::ptrdiff_t>(
                                     rng.Index(words.size() + 1)),
                 RareToken(rng));
  }
  entity.title = Join(words, " ");
  entity.venue_index = rng.Index(wordlists::Venues().size());
  entity.year = 1988 + static_cast<int>(rng.Index(17));
  entity.first_page = 1 + static_cast<int>(rng.Index(500));
  entity.last_page = entity.first_page + 8 + static_cast<int>(rng.Index(20));
  return entity;
}

// Fills the five fields of one record of `entity`; a missing field is left
// empty.
void MakePaperRecord(const PaperEntity& entity, bool canonical,
                     const PaperDatasetConfig& config, Corruptor& corruptor,
                     Rng& rng, std::vector<std::string>& fields) {
  for (std::string& field : fields) field.clear();

  // Author field.
  std::vector<std::string> authors = entity.authors;
  if (!canonical) {
    if (authors.size() > 1 && rng.Bernoulli(config.author_drop_prob)) {
      authors.erase(authors.begin() +
                    static_cast<std::ptrdiff_t>(rng.Index(authors.size())));
    }
    for (auto& author : authors) {
      if (rng.Bernoulli(config.author_initial_prob)) {
        author = corruptor.InitialForm(author);
      }
    }
  }
  fields[kAuthor] = Join(authors, " and ");

  // Title field.
  fields[kTitle] =
      canonical ? entity.title : corruptor.CorruptText(entity.title);

  // Venue field: full name or abbreviation.
  const auto& venue = wordlists::Venues()[entity.venue_index];
  const bool abbreviate = !canonical && rng.Bernoulli(config.venue_abbrev_prob);
  fields[kVenue] = std::string(abbreviate ? venue.second : venue.first);
  if (!canonical && rng.Bernoulli(0.15)) {
    fields[kVenue] = corruptor.CorruptText(fields[kVenue]);
  }

  // Date field.
  if (canonical || !rng.Bernoulli(config.year_missing_prob)) {
    int year = entity.year;
    if (!canonical && rng.Bernoulli(config.year_off_by_one_prob)) {
      year += rng.Bernoulli(0.5) ? 1 : -1;
    }
    fields[kDate] = StrFormat("%d", year);
  }

  // Pages field.
  if (canonical || !rng.Bernoulli(config.pages_missing_prob)) {
    if (!canonical && rng.Bernoulli(0.3)) {
      fields[kPages] =
          StrFormat("pages %d %d", entity.first_page, entity.last_page);
    } else {
      fields[kPages] = StrFormat("%d-%d", entity.first_page, entity.last_page);
    }
  }
}

// ---------------------------------------------------------------------------
// Product entity/record construction (bipartite; see paper note above).
// ---------------------------------------------------------------------------

// Schema field indexes for the Product dataset.
constexpr int kName = 0;
constexpr int kPrice = 1;

struct ProductEntity {
  std::string brand;
  std::string model;  // e.g. "kx-3200b"
  std::vector<std::string> nouns;
  std::vector<std::string> adjectives;
  double price = 0.0;
};

std::string MakeModelCode(Rng& rng) {
  static constexpr char kLetters[] = "abcdefghijklmnopqrstuvwxyz";
  std::string code;
  const size_t prefix_len = 2 + rng.Index(2);
  for (size_t i = 0; i < prefix_len; ++i) {
    code += kLetters[rng.Index(26)];
  }
  code += '-';
  const size_t digits = 2 + rng.Index(3);
  for (size_t i = 0; i < digits; ++i) {
    code += static_cast<char>('0' + rng.Index(10));
  }
  if (rng.Bernoulli(0.4)) code += kLetters[rng.Index(26)];
  return code;
}

ProductEntity MakeProductEntity(Rng& rng) {
  const auto& brands = wordlists::Brands();
  const auto& nouns = wordlists::ProductNouns();
  const auto& adjectives = wordlists::ProductAdjectives();

  ProductEntity entity;
  entity.brand = std::string(brands[rng.Index(brands.size())]);
  entity.model = MakeModelCode(rng);
  const size_t num_nouns = 1 + rng.Index(2);
  for (size_t i = 0; i < num_nouns; ++i) {
    entity.nouns.emplace_back(nouns[rng.Index(nouns.size())]);
  }
  const size_t num_adjectives = 2 + rng.Index(3);
  for (size_t i = 0; i < num_adjectives; ++i) {
    entity.adjectives.emplace_back(adjectives[rng.Index(adjectives.size())]);
  }
  entity.price = 10.0 + rng.UniformDouble() * 1990.0;
  return entity;
}

// Fills the two fields of one record of `entity` as listed on `side`; a
// missing price is left empty.
void MakeProductRecord(const ProductEntity& entity, uint8_t side,
                       bool canonical, const ProductDatasetConfig& config,
                       Corruptor& corruptor, Rng& rng,
                       std::vector<std::string>& fields) {
  for (std::string& field : fields) field.clear();

  std::string model = entity.model;
  bool include_model = true;
  if (!canonical) {
    if (rng.Bernoulli(config.drop_model_prob)) include_model = false;
    if (include_model && rng.Bernoulli(config.reformat_model_prob)) {
      // Strip the dash so the code tokenizes as one word instead of two.
      std::string compact;
      for (char c : model) {
        if (c != '-') compact += c;
      }
      model = compact;
    }
  }

  // Retailer-specific word order: side 0 leads with brand + model; side 1
  // leads with the description.
  std::vector<std::string> words;
  if (side == 0) {
    words.push_back(entity.brand);
    if (include_model) words.push_back(model);
    words.insert(words.end(), entity.adjectives.begin(),
                 entity.adjectives.end());
    words.insert(words.end(), entity.nouns.begin(), entity.nouns.end());
  } else {
    words.insert(words.end(), entity.adjectives.begin(),
                 entity.adjectives.end());
    words.insert(words.end(), entity.nouns.begin(), entity.nouns.end());
    words.push_back(entity.brand);
    if (include_model) words.push_back(model);
  }
  std::string name = Join(words, " ");
  if (!canonical) name = corruptor.CorruptText(name);
  fields[kName] = std::move(name);

  if (!rng.Bernoulli(config.price_missing_prob)) {
    const double price =
        canonical ? entity.price
                  : corruptor.JitterNumber(entity.price, config.price_jitter);
    fields[kPrice] = StrFormat("%.2f", price);
  }
}

// ---------------------------------------------------------------------------
// Block functions: one whole block from its seed, drawing every value from
// one block-seeded RNG in the historical order (cluster-size plan first,
// then entity by entity), so 1x streams stay byte-identical to the batch
// generators.
// ---------------------------------------------------------------------------

void GeneratePaperBlock(const PaperDatasetConfig& config,
                        const ZipfSampler& title_sampler, uint64_t seed,
                        const std::atomic<bool>& cancel, BlockBuffer* out) {
  Rng rng(seed);
  Result<std::vector<int32_t>> sizes =
      SamplePowerLawClusterSizes(config.clusters, rng);
  if (!sizes.ok()) {
    out->status = sizes.status();
    return;
  }
  Corruptor corruptor(config.corruption, &rng);
  std::vector<std::string> fields(5);
  out->num_entities = static_cast<int32_t>(sizes->size());
  for (int32_t e = 0; e < out->num_entities; ++e) {
    if (cancel.load(std::memory_order_relaxed)) return;
    const PaperEntity entity = MakePaperEntity(rng, title_sampler);
    for (int32_t r = 0; r < (*sizes)[e]; ++r) {
      MakePaperRecord(entity, /*canonical=*/r == 0, config, corruptor, rng,
                      fields);
      out->Append(fields, e, /*record_side=*/0);
    }
  }
}

void GenerateProductBlock(const ProductDatasetConfig& config, uint64_t seed,
                          const std::atomic<bool>& cancel, BlockBuffer* out) {
  Rng rng(seed);
  Result<std::vector<int32_t>> sizes =
      SampleSmallClusterSizes(config.clusters, rng);
  if (!sizes.ok()) {
    out->status = sizes.status();
    return;
  }
  Corruptor corruptor(config.corruption, &rng);
  std::vector<std::string> fields(2);
  out->num_entities = static_cast<int32_t>(sizes->size());
  for (int32_t e = 0; e < out->num_entities; ++e) {
    if (cancel.load(std::memory_order_relaxed)) return;
    const int32_t size = (*sizes)[e];
    const ProductEntity entity = MakeProductEntity(rng);
    for (int32_t r = 0; r < size; ++r) {
      // Singleton clusters land on a random side; larger clusters alternate
      // so every multi-record entity spans both catalogs.
      uint8_t side = static_cast<uint8_t>(r % 2);
      if (size == 1) side = rng.Bernoulli(0.5) ? 1 : 0;
      MakeProductRecord(entity, side, /*canonical=*/r == 0, config, corruptor,
                        rng, fields);
      out->Append(fields, e, side);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// StreamingPaperSource
// ---------------------------------------------------------------------------

struct StreamingPaperSource::Impl {
  Impl(const PaperDatasetConfig& config, int32_t scale_factor)
      : stream(config.seed, scale_factor, config.clusters.total_records,
               /*num_fields=*/5,
               [config, title_sampler = ZipfSampler(
                            wordlists::TitleWords().size(), 1.05)](
                   uint64_t seed, const std::atomic<bool>& cancel,
                   BlockBuffer* out) {
                 GeneratePaperBlock(config, title_sampler, seed, cancel, out);
               }) {
    meta.name = "paper";
    meta.schema.field_names = {"author", "title", "venue", "date", "pages"};
    meta.bipartite = false;
    meta.total_records =
        static_cast<int64_t>(scale_factor) * config.clusters.total_records;
  }

  StreamMeta meta;
  BlockStream stream;
};

StreamingPaperSource::StreamingPaperSource(const PaperDatasetConfig& config,
                                           int32_t scale_factor)
    : impl_(std::make_unique<Impl>(config, scale_factor)) {}

StreamingPaperSource::~StreamingPaperSource() = default;

const StreamMeta& StreamingPaperSource::meta() const { return impl_->meta; }

bool StreamingPaperSource::Next(StreamedRecord* out) {
  return impl_->stream.Next(out);
}

void StreamingPaperSource::Reset() { impl_->stream.Reset(); }

Status StreamingPaperSource::status() const { return impl_->stream.status(); }

// ---------------------------------------------------------------------------
// StreamingProductSource
// ---------------------------------------------------------------------------

struct StreamingProductSource::Impl {
  Impl(const ProductDatasetConfig& config, int32_t scale_factor)
      : stream(config.seed, scale_factor, config.clusters.total_records,
               /*num_fields=*/2,
               [config](uint64_t seed, const std::atomic<bool>& cancel,
                        BlockBuffer* out) {
                 GenerateProductBlock(config, seed, cancel, out);
               }) {
    meta.name = "product";
    meta.schema.field_names = {"name", "price"};
    meta.bipartite = true;
    meta.total_records =
        static_cast<int64_t>(scale_factor) * config.clusters.total_records;
  }

  StreamMeta meta;
  BlockStream stream;
};

StreamingProductSource::StreamingProductSource(
    const ProductDatasetConfig& config, int32_t scale_factor)
    : impl_(std::make_unique<Impl>(config, scale_factor)) {}

StreamingProductSource::~StreamingProductSource() = default;

const StreamMeta& StreamingProductSource::meta() const { return impl_->meta; }

bool StreamingProductSource::Next(StreamedRecord* out) {
  return impl_->stream.Next(out);
}

void StreamingProductSource::Reset() { impl_->stream.Reset(); }

Status StreamingProductSource::status() const {
  return impl_->stream.status();
}

}  // namespace crowdjoin
