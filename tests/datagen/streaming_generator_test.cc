#include "datagen/streaming_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "datagen/paper_dataset.h"
#include "datagen/product_dataset.h"
#include "datagen/record_source.h"

namespace crowdjoin {
namespace {

std::vector<StreamedRecord> Drain(RecordSource& source) {
  source.Reset();
  std::vector<StreamedRecord> out;
  StreamedRecord rec;
  while (source.Next(&rec)) out.push_back(rec);
  EXPECT_TRUE(source.status().ok()) << source.status().ToString();
  return out;
}

void ExpectSameStream(const std::vector<StreamedRecord>& a,
                      const std::vector<StreamedRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].record.id, b[i].record.id) << "position " << i;
    ASSERT_EQ(a[i].record.fields, b[i].record.fields) << "position " << i;
    ASSERT_EQ(a[i].entity, b[i].entity) << "position " << i;
    ASSERT_EQ(a[i].side, b[i].side) << "position " << i;
  }
}

// FNV-1a over (id, entity, side, every field) of a whole stream: a frozen
// fingerprint of the generator's output.
uint64_t StreamChecksum(RecordSource& source) {
  uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ull;
    }
  };
  const auto mix_int = [&mix](int64_t value) { mix(&value, sizeof(value)); };
  source.Reset();
  StreamedRecord rec;
  while (source.Next(&rec)) {
    mix_int(rec.record.id);
    mix_int(rec.entity);
    mix_int(rec.side);
    mix_int(static_cast<int64_t>(rec.record.fields.size()));
    for (const std::string& field : rec.record.fields) {
      mix_int(static_cast<int64_t>(field.size()));
      mix(field.data(), field.size());
    }
  }
  EXPECT_TRUE(source.status().ok()) << source.status().ToString();
  return hash;
}

// The SF-N stream, rebuilt from N independent 1x streams: block b is the 1x
// stream at BlockSeed(seed, b), its ids shifted by the records before it and
// its entities by the entities before it.
template <typename Source, typename Config>
std::vector<StreamedRecord> ComposeFromBlocks(const Config& config,
                                              int32_t scale_factor) {
  std::vector<StreamedRecord> out;
  int32_t entity_offset = 0;
  for (int32_t b = 0; b < scale_factor; ++b) {
    Config block_config = config;
    block_config.seed = BlockSeed(config.seed, b);
    Source block(block_config, /*scale_factor=*/1);
    const auto id_offset = static_cast<ObjectId>(out.size());
    int32_t num_entities = 0;
    for (StreamedRecord rec : Drain(block)) {
      num_entities = std::max(num_entities, rec.entity + 1);
      rec.record.id += id_offset;
      rec.entity += entity_offset;
      out.push_back(std::move(rec));
    }
    entity_offset += num_entities;
  }
  return out;
}

TEST(BlockSeed, Block0IsBaseSeedAndBlocksDiffer) {
  EXPECT_EQ(BlockSeed(42, 0), 42u);
  std::unordered_set<uint64_t> seeds;
  for (int32_t b = 0; b < 100; ++b) seeds.insert(BlockSeed(42, b));
  EXPECT_EQ(seeds.size(), 100u);
}

TEST(StreamingPaperSource, OneXStreamMatchesMaterializedDataset) {
  PaperDatasetConfig config;
  config.seed = 21;
  StreamingPaperSource source(config, /*scale_factor=*/1);
  const Dataset dataset = GeneratePaperDataset(config).value();
  const auto stream = Drain(source);
  ASSERT_EQ(stream.size(), dataset.records.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(stream[i].record.id, dataset.records[i].id);
    ASSERT_EQ(stream[i].record.fields, dataset.records[i].fields);
    ASSERT_EQ(stream[i].entity, dataset.entity_of[i]);
  }
}

TEST(StreamingPaperSource, DeterministicPerSeedAndScaleFactor) {
  PaperDatasetConfig config;
  config.seed = 22;
  config.clusters.total_records = 200;
  config.clusters.max_cluster_size = 30;
  StreamingPaperSource a(config, /*scale_factor=*/3);
  StreamingPaperSource b(config, /*scale_factor=*/3);
  ExpectSameStream(Drain(a), Drain(b));
  // Reset reproduces the identical stream from the same source.
  const auto first = Drain(a);
  const auto second = Drain(a);
  ExpectSameStream(first, second);
}

TEST(StreamingPaperSource, ScaleFactorMultipliesRecordsWithFreshEntities) {
  PaperDatasetConfig config;
  config.seed = 23;
  config.clusters.total_records = 150;
  config.clusters.max_cluster_size = 20;
  const int32_t kScale = 4;
  StreamingPaperSource source(config, kScale);
  EXPECT_EQ(source.meta().total_records, 600);
  const auto stream = Drain(source);
  ASSERT_EQ(stream.size(), 600u);
  // Ids are dense stream positions.
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].record.id, static_cast<ObjectId>(i));
  }
  // Entities never span blocks: the entity ids of each 150-record block
  // are disjoint from every other block's.
  std::unordered_set<int32_t> seen;
  size_t pos = 0;
  for (int32_t block = 0; block < kScale; ++block) {
    std::unordered_set<int32_t> block_entities;
    for (int32_t r = 0; r < 150; ++r, ++pos) {
      block_entities.insert(stream[pos].entity);
    }
    for (int32_t entity : block_entities) {
      EXPECT_TRUE(seen.insert(entity).second)
          << "entity " << entity << " spans blocks";
    }
  }
  // Later blocks differ in content from block 0 (fresh substreams).
  bool any_difference = false;
  for (size_t i = 0; i < 150; ++i) {
    if (stream[i].record.fields != stream[i + 150].record.fields) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(StreamingPaperSource, InvalidScaleFactorFailsCleanly) {
  PaperDatasetConfig config;
  StreamingPaperSource source(config, /*scale_factor=*/0);
  StreamedRecord rec;
  EXPECT_FALSE(source.Next(&rec));
  EXPECT_EQ(source.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamingProductSource, OneXStreamMatchesMaterializedDataset) {
  ProductDatasetConfig config;
  config.seed = 24;
  StreamingProductSource source(config, /*scale_factor=*/1);
  EXPECT_TRUE(source.meta().bipartite);
  const Dataset dataset = GenerateProductDataset(config).value();
  const auto stream = Drain(source);
  ASSERT_EQ(stream.size(), dataset.records.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(stream[i].record.fields, dataset.records[i].fields);
    ASSERT_EQ(stream[i].entity, dataset.entity_of[i]);
    ASSERT_EQ(stream[i].side, dataset.side_of[i]);
  }
}

TEST(StreamingProductSource, ScaledStreamIsDeterministicAndBipartite) {
  ProductDatasetConfig config;
  config.seed = 25;
  config.clusters.total_records = 120;
  StreamingProductSource a(config, /*scale_factor=*/5);
  StreamingProductSource b(config, /*scale_factor=*/5);
  const auto stream = Drain(a);
  ExpectSameStream(stream, Drain(b));
  ASSERT_EQ(stream.size(), 600u);
  int64_t left = 0;
  for (const auto& rec : stream) left += rec.side == 0 ? 1 : 0;
  EXPECT_GT(left, 0);
  EXPECT_LT(left, 600);
}

TEST(DatasetRecordSource, RoundTripsThroughMaterialize) {
  PaperDatasetConfig config;
  config.seed = 26;
  config.clusters.total_records = 100;
  config.clusters.max_cluster_size = 15;
  const Dataset dataset = GeneratePaperDataset(config).value();
  DatasetRecordSource source(&dataset);
  EXPECT_EQ(source.meta().total_records,
            static_cast<int64_t>(dataset.records.size()));
  const Dataset round = MaterializeDataset(source).value();
  ASSERT_EQ(round.records.size(), dataset.records.size());
  for (size_t i = 0; i < round.records.size(); ++i) {
    EXPECT_EQ(round.records[i].fields, dataset.records[i].fields);
  }
  EXPECT_EQ(round.entity_of, dataset.entity_of);
  EXPECT_EQ(round.name, dataset.name);
}

TEST(DatasetRecordSource, BipartiteSideCountsSurviveRoundTrip) {
  ProductDatasetConfig config;
  config.seed = 27;
  config.clusters.total_records = 80;
  const Dataset dataset = GenerateProductDataset(config).value();
  DatasetRecordSource source(&dataset);
  const Dataset round = MaterializeDataset(source).value();
  EXPECT_TRUE(round.bipartite);
  EXPECT_EQ(round.side_of, dataset.side_of);
  EXPECT_EQ(round.SideCount(0), dataset.SideCount(0));
  EXPECT_EQ(round.SideCount(1), dataset.SideCount(1));
  EXPECT_EQ(round.SideCount(0) + round.SideCount(1),
            static_cast<int64_t>(round.records.size()));
}

TEST(StreamingPaperSource, ScaledStreamIsBlocksPlacedEndToEnd) {
  PaperDatasetConfig config;
  config.seed = 28;
  config.clusters.total_records = 180;
  config.clusters.max_cluster_size = 25;
  const int32_t kScale = 9;
  StreamingPaperSource source(config, kScale);
  ExpectSameStream(
      Drain(source),
      ComposeFromBlocks<StreamingPaperSource>(config, kScale));
}

TEST(StreamingProductSource, ScaledStreamIsBlocksPlacedEndToEnd) {
  ProductDatasetConfig config;
  config.seed = 29;
  config.clusters.total_records = 140;
  const int32_t kScale = 9;
  StreamingProductSource source(config, kScale);
  ExpectSameStream(
      Drain(source),
      ComposeFromBlocks<StreamingProductSource>(config, kScale));
}

TEST(StreamingPaperSource, ResetMidBlockRestartsTheStream) {
  PaperDatasetConfig config;
  config.seed = 30;
  config.clusters.total_records = 120;
  config.clusters.max_cluster_size = 20;
  StreamingPaperSource source(config, /*scale_factor=*/12);
  const auto full = Drain(source);
  // Stop inside the first block, inside a later block, right after one
  // record, and on a block boundary; each Reset must replay from record 0.
  for (size_t stop : {size_t{50}, size_t{610}, size_t{1}, size_t{240}}) {
    source.Reset();
    StreamedRecord rec;
    for (size_t i = 0; i < stop; ++i) ASSERT_TRUE(source.Next(&rec));
    ASSERT_EQ(rec.record.id, static_cast<ObjectId>(stop - 1));
    ExpectSameStream(Drain(source), full);
  }
  // Back-to-back Resets with nothing read in between.
  source.Reset();
  source.Reset();
  ExpectSameStream(Drain(source), full);
}

TEST(StreamingProductSource, ResetMidBlockRestartsTheStream) {
  ProductDatasetConfig config;
  config.seed = 31;
  config.clusters.total_records = 100;
  StreamingProductSource source(config, /*scale_factor=*/12);
  const auto full = Drain(source);
  source.Reset();
  StreamedRecord rec;
  for (int i = 0; i < 333; ++i) ASSERT_TRUE(source.Next(&rec));
  ExpectSameStream(Drain(source), full);
}

TEST(StreamingPaperSource, DestroyWithBlocksInFlight) {
  PaperDatasetConfig config;
  config.seed = 32;
  // Blocks are still being generated when each source goes away: after
  // one record, partway through, and before anything was read.
  for (int records : {1, 1500, 0}) {
    for (int trial = 0; trial < 4; ++trial) {
      auto source = std::make_unique<StreamingPaperSource>(config, 64);
      StreamedRecord rec;
      for (int i = 0; i < records; ++i) ASSERT_TRUE(source->Next(&rec));
      source.reset();
    }
  }
  // Two sources drawing blocks from the shared generator pool at once.
  StreamingPaperSource a(config, 6);
  StreamingPaperSource b(config, 6);
  StreamedRecord rec_a;
  StreamedRecord rec_b;
  while (a.Next(&rec_a)) {
    ASSERT_TRUE(b.Next(&rec_b));
    ASSERT_EQ(rec_a.record.fields, rec_b.record.fields);
  }
  EXPECT_FALSE(b.Next(&rec_b));
}

TEST(StreamingPaperSource, BadConfigEndsTheStreamWithTheSamplerStatus) {
  PaperDatasetConfig config;
  config.clusters.max_cluster_size = config.clusters.total_records + 1;
  for (int32_t scale : {1, 5}) {
    StreamingPaperSource source(config, scale);
    for (int pass = 0; pass < 2; ++pass) {
      source.Reset();
      StreamedRecord rec;
      EXPECT_FALSE(source.Next(&rec));
      EXPECT_EQ(source.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(source.status().message(),
                "max_cluster_size must be in [1, total_records]");
      EXPECT_FALSE(source.Next(&rec));
    }
  }
}

TEST(StreamingProductSource, BadConfigEndsTheStreamWithTheSamplerStatus) {
  ProductDatasetConfig config;
  config.clusters.size_weights.clear();
  for (int32_t scale : {1, 5}) {
    StreamingProductSource source(config, scale);
    StreamedRecord rec;
    EXPECT_FALSE(source.Next(&rec));
    EXPECT_EQ(source.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(source.status().message(), "size_weights must be non-empty");
  }
  StreamingProductSource invalid_scale(ProductDatasetConfig{}, 0);
  StreamedRecord rec;
  EXPECT_FALSE(invalid_scale.Next(&rec));
  EXPECT_EQ(invalid_scale.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamingPaperSource, RecordIdsThatWouldOverflowAreRejected) {
  // 997 records x 2.2M blocks > 2^31 ids.
  StreamingPaperSource too_big(PaperDatasetConfig{}, 2'200'000);
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);
  StreamedRecord rec;
  EXPECT_FALSE(too_big.Next(&rec));
  too_big.Reset();
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);

  // Exactly 2^31 records: the last id is INT32_MAX, which still fits.
  PaperDatasetConfig tiny;
  tiny.clusters.total_records = 2;
  tiny.clusters.max_cluster_size = 2;
  StreamingPaperSource at_limit(tiny, 1 << 30);
  EXPECT_TRUE(at_limit.status().ok()) << at_limit.status().ToString();
  ASSERT_TRUE(at_limit.Next(&rec));
  EXPECT_EQ(rec.record.id, 0);
  StreamingPaperSource past_limit(tiny, (1 << 30) + 1);
  EXPECT_EQ(past_limit.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamingProductSource, RecordIdsThatWouldOverflowAreRejected) {
  // 2173 records x 1M blocks > 2^31 ids.
  StreamingProductSource too_big(ProductDatasetConfig{}, 1'000'000);
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);
  StreamedRecord rec;
  EXPECT_FALSE(too_big.Next(&rec));
  StreamingProductSource fits(ProductDatasetConfig{}, 900'000);
  EXPECT_TRUE(fits.status().ok()) << fits.status().ToString();
}

TEST(StreamingPaperSource, FrozenChecksumsAtScaleFactor7) {
  // Captured from the serial generator; any change to the record sequence
  // (RNG order, block layout, id or entity offsets) breaks these.
  for (const auto& [seed, expected] :
       std::vector<std::pair<uint64_t, uint64_t>>{
           {42, 0x3f53e66b47c14221ull}, {1009, 0xc0be0a7313f921dbull}}) {
    PaperDatasetConfig config;
    config.seed = seed;
    StreamingPaperSource source(config, /*scale_factor=*/7);
    EXPECT_EQ(StreamChecksum(source), expected) << "seed " << seed;
  }
}

TEST(StreamingProductSource, FrozenChecksumsAtScaleFactor7) {
  for (const auto& [seed, expected] :
       std::vector<std::pair<uint64_t, uint64_t>>{
           {42, 0xeac41922ae5a26edull}, {1009, 0xba30c9e852084e2bull}}) {
    ProductDatasetConfig config;
    config.seed = seed;
    StreamingProductSource source(config, /*scale_factor=*/7);
    EXPECT_EQ(StreamChecksum(source), expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace crowdjoin
