#ifndef CROWDJOIN_DATAGEN_STREAMING_GENERATOR_H_
#define CROWDJOIN_DATAGEN_STREAMING_GENERATOR_H_

#include <cstdint>
#include <memory>

#include "common/status.h"
#include "datagen/paper_dataset.h"
#include "datagen/product_dataset.h"
#include "datagen/record_source.h"

namespace crowdjoin {

/// \brief Seed of generation block `block` for a stream with base seed
/// `base_seed`. Block 0 uses the base seed verbatim — that is what makes a
/// 1x stream byte-identical to the materialized paper-scale dataset —
/// while later blocks get SplitMix64-derived, statistically independent
/// substreams.
uint64_t BlockSeed(uint64_t base_seed, int32_t block);

/// \brief Streaming generator of the Paper dataset at a configurable scale
/// factor.
///
/// The stream is organized in `scale_factor` generation blocks; each block
/// reproduces the configured paper-scale distribution (cluster sizes, text
/// noise) under its own `BlockSeed`, with globally dense record ids and
/// globally unique entity ids across blocks (entities never span blocks).
/// `scale_factor == 1` yields exactly `GeneratePaperDataset(config)`,
/// record for record; `scale_factor == 1000` yields ~1M records.
///
/// Blocks are generated ahead of the reader, a bounded window of them at a
/// time, on the process-wide `SharedPool()` (`ThreadPool::HardwareThreads()`
/// workers); `Next` hands their records out in block order. Each block is a
/// pure function of its seed, so the stream is byte-identical for every
/// worker count. A one-block stream generates inline on the caller's thread.
/// Errors (a bad scale factor, record ids past `ObjectId`, a cluster
/// config the sampler rejects) end the stream with `status()` set.
///
/// A worker writes each record's fields straight into its block's flat
/// buffer (bytes plus field offsets), reusing one entity and one
/// `Corruptor` for the whole block, so generating a record allocates
/// nothing. The order of the RNG draws is the output contract: frozen
/// checksums pin it, so any rewrite of the generation code must draw the
/// same values in the same order.
///
/// Memory: O(window × block), the window being the worker count plus two
/// flat block buffers; the whole dataset is never materialized.
class StreamingPaperSource : public RecordSource {
 public:
  explicit StreamingPaperSource(const PaperDatasetConfig& config,
                                int32_t scale_factor = 1);
  ~StreamingPaperSource() override;

  const StreamMeta& meta() const override;
  bool Next(StreamedRecord* out) override;
  void Reset() override;
  Status status() const override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// \brief Streaming generator of the bipartite Product dataset at a
/// configurable scale factor; same block scheme and guarantees as
/// `StreamingPaperSource` (1x == `GenerateProductDataset(config)`).
class StreamingProductSource : public RecordSource {
 public:
  explicit StreamingProductSource(const ProductDatasetConfig& config,
                                  int32_t scale_factor = 1);
  ~StreamingProductSource() override;

  const StreamMeta& meta() const override;
  bool Next(StreamedRecord* out) override;
  void Reset() override;
  Status status() const override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace crowdjoin

#endif  // CROWDJOIN_DATAGEN_STREAMING_GENERATOR_H_
