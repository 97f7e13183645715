#include "datagen/streaming_generator.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
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

  // Ends the field written so far at the back of `bytes`.
  void EndField() { field_ends.push_back(bytes.size()); }

  // Ends a record whose fields have all been ended.
  void EndRecord(int32_t record_entity, uint8_t record_side) {
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
//
// Records are written straight into the block buffer. An entity struct is
// reused for every entity of a block and the Corruptor keeps its own
// scratch, so once their strings have grown, generating a record allocates
// nothing.
// ---------------------------------------------------------------------------

// Appends the decimal form of `value`, as printf's "%d" writes it.
void AppendInt(int value, std::string& out) {
  char digits[std::numeric_limits<int>::digits10 + 2];
  const std::to_chars_result result =
      std::to_chars(digits, digits + sizeof(digits), value);
  out.append(digits, result.ptr);
}

// Appends a pronounceable rare token (consonant-vowel alternation), the
// discriminative word that real titles carry in system names and coined
// terms.
void AppendRareToken(Rng& rng, std::string& out) {
  static constexpr char kConsonants[] = "bcdfghjklmnpqrstvwz";
  static constexpr char kVowels[] = "aeiou";
  const size_t length = 5 + rng.Index(4);
  for (size_t i = 0; i < length; ++i) {
    if (i % 2 == 0) {
      out += kConsonants[rng.Index(sizeof(kConsonants) - 1)];
    } else {
      out += kVowels[rng.Index(sizeof(kVowels) - 1)];
    }
  }
}

struct PaperEntity {
  static constexpr size_t kMaxAuthors = 3;
  std::string authors[kMaxAuthors];  // "first last"
  size_t num_authors = 0;
  std::string title;
  size_t venue_index = 0;
  int year = 0;
  int first_page = 0;
  int last_page = 0;
  // Title scratch: the drawn words and the rare token.
  std::vector<std::string_view> title_words;
  std::string rare_token;
};

// Overwrites `entity` with the next entity drawn from `rng`.
void MakePaperEntity(Rng& rng, const ZipfSampler& title_sampler,
                     PaperEntity& entity) {
  const auto& first_names = wordlists::FirstNames();
  const auto& last_names = wordlists::LastNames();
  const auto& title_words = wordlists::TitleWords();

  entity.num_authors = 1 + rng.Index(PaperEntity::kMaxAuthors);
  for (size_t i = 0; i < entity.num_authors; ++i) {
    std::string& name = entity.authors[i];
    name.assign(first_names[rng.Index(first_names.size())]);
    name += ' ';
    name += last_names[rng.Index(last_names.size())];
  }
  const size_t title_length = 5 + rng.Index(5);
  std::vector<std::string_view>& words = entity.title_words;
  words.clear();
  for (size_t i = 0; i < title_length; ++i) {
    // Zipf-weighted draw: common words recur across entities, which gives
    // non-matching pairs graded, non-zero similarity.
    const size_t w = static_cast<size_t>(title_sampler.Sample(rng)) - 1;
    words.push_back(title_words[w]);
  }
  if (rng.Bernoulli(0.8)) {
    // The token's draws come before the position's: the order the frozen
    // checksums pin.
    entity.rare_token.clear();
    AppendRareToken(rng, entity.rare_token);
    const size_t position = rng.Index(words.size() + 1);
    words.insert(words.begin() + static_cast<std::ptrdiff_t>(position),
                 entity.rare_token);
  }
  entity.title.clear();
  for (size_t i = 0; i < words.size(); ++i) {
    if (i > 0) entity.title += ' ';
    entity.title += words[i];
  }
  entity.venue_index = rng.Index(wordlists::Venues().size());
  entity.year = 1988 + static_cast<int>(rng.Index(17));
  entity.first_page = 1 + static_cast<int>(rng.Index(500));
  entity.last_page = entity.first_page + 8 + static_cast<int>(rng.Index(20));
}

// Appends the five fields of one record of `entity` to `out`; a missing
// field is left empty.
void AppendPaperRecord(const PaperEntity& entity, bool canonical,
                       const PaperDatasetConfig& config, Corruptor& corruptor,
                       Rng& rng, BlockBuffer& out) {
  std::string& bytes = out.bytes;

  // Author field.
  size_t dropped = PaperEntity::kMaxAuthors;  // none
  if (!canonical && entity.num_authors > 1 &&
      rng.Bernoulli(config.author_drop_prob)) {
    dropped = rng.Index(entity.num_authors);
  }
  bool first_author = true;
  for (size_t i = 0; i < entity.num_authors; ++i) {
    if (i == dropped) continue;
    if (!first_author) bytes += " and ";
    first_author = false;
    if (!canonical && rng.Bernoulli(config.author_initial_prob)) {
      Corruptor::InitialForm(entity.authors[i], bytes);
    } else {
      bytes += entity.authors[i];
    }
  }
  out.EndField();

  // Title field.
  if (canonical) {
    bytes += entity.title;
  } else {
    corruptor.CorruptText(entity.title, bytes);
  }
  out.EndField();

  // Venue field: full name or abbreviation.
  const auto& venue = wordlists::Venues()[entity.venue_index];
  const bool abbreviate = !canonical && rng.Bernoulli(config.venue_abbrev_prob);
  const std::string_view venue_name = abbreviate ? venue.second : venue.first;
  if (!canonical && rng.Bernoulli(0.15)) {
    corruptor.CorruptText(venue_name, bytes);
  } else {
    bytes += venue_name;
  }
  out.EndField();

  // Date field.
  if (canonical || !rng.Bernoulli(config.year_missing_prob)) {
    int year = entity.year;
    if (!canonical && rng.Bernoulli(config.year_off_by_one_prob)) {
      year += rng.Bernoulli(0.5) ? 1 : -1;
    }
    AppendInt(year, bytes);
  }
  out.EndField();

  // Pages field.
  if (canonical || !rng.Bernoulli(config.pages_missing_prob)) {
    if (!canonical && rng.Bernoulli(0.3)) {
      bytes += "pages ";
      AppendInt(entity.first_page, bytes);
      bytes += ' ';
    } else {
      AppendInt(entity.first_page, bytes);
      bytes += '-';
    }
    AppendInt(entity.last_page, bytes);
  }
  out.EndField();
}

// ---------------------------------------------------------------------------
// Product entity/record construction (bipartite; same scheme as the paper
// records above).
// ---------------------------------------------------------------------------

// Appends `price` with two decimals, byte for byte as printf's "%.2f"
// writes it (corruptor_golden_test.cc checks the equivalence over the
// generated price range).
void AppendPrice(double price, std::string& out) {
  char digits[32];
  const std::to_chars_result result = std::to_chars(
      digits, digits + sizeof(digits), price, std::chars_format::fixed, 2);
  out.append(digits, result.ptr);
}

struct ProductEntity {
  std::string_view brand;
  std::string model;  // e.g. "kx-3200b"
  std::vector<std::string_view> nouns;
  std::vector<std::string_view> adjectives;
  double price = 0.0;
};

void MakeModelCode(Rng& rng, std::string& code) {
  static constexpr char kLetters[] = "abcdefghijklmnopqrstuvwxyz";
  code.clear();
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
}

// Overwrites `entity` with the next entity drawn from `rng`.
void MakeProductEntity(Rng& rng, ProductEntity& entity) {
  const auto& brands = wordlists::Brands();
  const auto& nouns = wordlists::ProductNouns();
  const auto& adjectives = wordlists::ProductAdjectives();

  entity.brand = brands[rng.Index(brands.size())];
  MakeModelCode(rng, entity.model);
  const size_t num_nouns = 1 + rng.Index(2);
  entity.nouns.clear();
  for (size_t i = 0; i < num_nouns; ++i) {
    entity.nouns.push_back(nouns[rng.Index(nouns.size())]);
  }
  const size_t num_adjectives = 2 + rng.Index(3);
  entity.adjectives.clear();
  for (size_t i = 0; i < num_adjectives; ++i) {
    entity.adjectives.push_back(adjectives[rng.Index(adjectives.size())]);
  }
  entity.price = 10.0 + rng.UniformDouble() * 1990.0;
}

// Appends the product name as listed on `side`, words joined by single
// spaces. Retailer-specific word order: side 0 leads with brand + model;
// side 1 leads with the description. A compact model has its dash
// stripped, so the code tokenizes as one word instead of two.
void AppendProductName(const ProductEntity& entity, uint8_t side,
                       bool include_model, bool compact_model,
                       std::string& out) {
  bool first = true;
  const auto separate = [&out, &first] {
    if (!first) out += ' ';
    first = false;
  };
  const auto brand_and_model = [&] {
    separate();
    out += entity.brand;
    if (!include_model) return;
    separate();
    for (char c : entity.model) {
      if (!compact_model || c != '-') out += c;
    }
  };
  const auto description = [&] {
    for (std::string_view word : entity.adjectives) {
      separate();
      out += word;
    }
    for (std::string_view word : entity.nouns) {
      separate();
      out += word;
    }
  };
  if (side == 0) {
    brand_and_model();
    description();
  } else {
    description();
    brand_and_model();
  }
}

// Appends the two fields of one record of `entity` as listed on `side` to
// `out`; a missing price is left empty. `name_scratch` holds the name
// before corruption.
void AppendProductRecord(const ProductEntity& entity, uint8_t side,
                         bool canonical, const ProductDatasetConfig& config,
                         Corruptor& corruptor, Rng& rng,
                         std::string& name_scratch, BlockBuffer& out) {
  bool include_model = true;
  bool compact_model = false;
  if (!canonical) {
    include_model = !rng.Bernoulli(config.drop_model_prob);
    compact_model = include_model && rng.Bernoulli(config.reformat_model_prob);
  }
  if (canonical) {
    AppendProductName(entity, side, include_model, compact_model, out.bytes);
  } else {
    name_scratch.clear();
    AppendProductName(entity, side, include_model, compact_model,
                      name_scratch);
    corruptor.CorruptText(name_scratch, out.bytes);
  }
  out.EndField();

  if (!rng.Bernoulli(config.price_missing_prob)) {
    const double price =
        canonical ? entity.price
                  : corruptor.JitterNumber(entity.price, config.price_jitter);
    AppendPrice(price, out.bytes);
  }
  out.EndField();
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
  PaperEntity entity;
  out->num_entities = static_cast<int32_t>(sizes->size());
  for (int32_t e = 0; e < out->num_entities; ++e) {
    if (cancel.load(std::memory_order_relaxed)) return;
    MakePaperEntity(rng, title_sampler, entity);
    for (int32_t r = 0; r < (*sizes)[e]; ++r) {
      AppendPaperRecord(entity, /*canonical=*/r == 0, config, corruptor, rng,
                        *out);
      out->EndRecord(e, /*record_side=*/0);
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
  ProductEntity entity;
  std::string name_scratch;
  out->num_entities = static_cast<int32_t>(sizes->size());
  for (int32_t e = 0; e < out->num_entities; ++e) {
    if (cancel.load(std::memory_order_relaxed)) return;
    const int32_t size = (*sizes)[e];
    MakeProductEntity(rng, entity);
    for (int32_t r = 0; r < size; ++r) {
      // Singleton clusters land on a random side; larger clusters alternate
      // so every multi-record entity spans both catalogs.
      uint8_t side = static_cast<uint8_t>(r % 2);
      if (size == 1) side = rng.Bernoulli(0.5) ? 1 : 0;
      AppendProductRecord(entity, side, /*canonical=*/r == 0, config,
                          corruptor, rng, name_scratch, *out);
      out->EndRecord(e, side);
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
