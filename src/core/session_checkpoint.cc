#include "core/session_checkpoint.h"

#include <cstdint>
#include <utility>

#include "common/serialize.h"
#include "common/string_util.h"

namespace crowdjoin {

namespace {

// "CJCKPT" + 2-digit format version, read as a little-endian u64.
constexpr uint64_t kMagic = 0x31305450'4B434A43ull;  // "CJCKPT01"

uint8_t EncodeOutcome(const std::optional<PairOutcome>& outcome) {
  if (!outcome.has_value()) return 0;
  return static_cast<uint8_t>(1u |
                              (static_cast<uint8_t>(outcome->label) << 1) |
                              (static_cast<uint8_t>(outcome->source) << 2));
}

std::optional<PairOutcome> DecodeOutcome(uint8_t byte) {
  if ((byte & 1u) == 0) return std::nullopt;
  return PairOutcome{static_cast<Label>((byte >> 1) & 1u),
                     static_cast<LabelSource>((byte >> 2) & 1u)};
}

}  // namespace

std::string EncodeSessionCheckpoint(const SessionCheckpointState& state) {
  BinaryWriter w;
  w.PutU64(kMagic);
  w.PutU64(state.fingerprint);
  w.PutI64(state.completed_rounds);
  w.PutI64(state.candidates_consumed);
  w.PutU32(static_cast<uint32_t>(state.num_objects));
  w.PutI64(state.remaining_budget);
  w.PutI64(state.num_candidates);
  w.PutI64(state.num_crowdsourced);
  w.PutI64(state.num_deduced);
  w.PutI64(state.num_unlabeled);
  w.PutI64(state.num_stream_rounds);
  w.PutU64(state.crowdsourced_per_iteration.size());
  for (int64_t batch : state.crowdsourced_per_iteration) w.PutI64(batch);
  w.PutU64(state.outcomes.size());
  for (const auto& outcome : state.outcomes) w.PutU8(EncodeOutcome(outcome));
  w.PutU64(state.edge_log.size());
  for (const LoggedEdge& edge : state.edge_log) {
    w.PutU32(static_cast<uint32_t>(edge.a));
    w.PutU32(static_cast<uint32_t>(edge.b));
    w.PutU8(static_cast<uint8_t>(edge.label));
  }
  w.PutU8(state.has_order_rng ? 1 : 0);
  if (state.has_order_rng) {
    for (uint64_t s : state.order_rng.s) w.PutU64(s);
    w.PutDouble(state.order_rng.spare_normal);
    w.PutU8(state.order_rng.has_spare_normal ? 1 : 0);
  }
  // Trailing checksum over everything above, magic included.
  const uint64_t checksum = Fingerprint64(w.buffer());
  w.PutU64(checksum);
  return w.TakeBuffer();
}

Result<SessionCheckpointState> DecodeSessionCheckpoint(std::string_view data) {
  if (data.size() < 16) {
    return Status::InvalidArgument("checkpoint too small to be valid");
  }
  // Verify the checksum before trusting any field.
  BinaryReader tail(data.substr(data.size() - 8));
  CJ_ASSIGN_OR_RETURN(const uint64_t stored_checksum, tail.ReadU64());
  const uint64_t computed = Fingerprint64(data.substr(0, data.size() - 8));
  if (stored_checksum != computed) {
    return Status::FailedPrecondition("checkpoint checksum mismatch");
  }

  BinaryReader r(data.substr(0, data.size() - 8));
  CJ_ASSIGN_OR_RETURN(const uint64_t magic, r.ReadU64());
  if (magic != kMagic) {
    return Status::InvalidArgument("not a crowdjoin checkpoint (bad magic)");
  }
  SessionCheckpointState state;
  CJ_ASSIGN_OR_RETURN(state.fingerprint, r.ReadU64());
  CJ_ASSIGN_OR_RETURN(state.completed_rounds, r.ReadI64());
  CJ_ASSIGN_OR_RETURN(state.candidates_consumed, r.ReadI64());
  CJ_ASSIGN_OR_RETURN(const uint32_t num_objects, r.ReadU32());
  if (num_objects > static_cast<uint32_t>(INT32_MAX)) {
    return Status::InvalidArgument("object count exceeds int32");
  }
  state.num_objects = static_cast<int32_t>(num_objects);
  CJ_ASSIGN_OR_RETURN(state.remaining_budget, r.ReadI64());
  CJ_ASSIGN_OR_RETURN(state.num_candidates, r.ReadI64());
  CJ_ASSIGN_OR_RETURN(state.num_crowdsourced, r.ReadI64());
  CJ_ASSIGN_OR_RETURN(state.num_deduced, r.ReadI64());
  CJ_ASSIGN_OR_RETURN(state.num_unlabeled, r.ReadI64());
  CJ_ASSIGN_OR_RETURN(state.num_stream_rounds, r.ReadI64());
  CJ_ASSIGN_OR_RETURN(const uint64_t num_batches, r.ReadU64());
  if (num_batches > r.remaining() / 8) {
    return Status::OutOfRange("batch count exceeds buffer");
  }
  state.crowdsourced_per_iteration.reserve(num_batches);
  for (uint64_t i = 0; i < num_batches; ++i) {
    CJ_ASSIGN_OR_RETURN(const int64_t batch, r.ReadI64());
    state.crowdsourced_per_iteration.push_back(batch);
  }
  CJ_ASSIGN_OR_RETURN(const uint64_t num_outcomes, r.ReadU64());
  if (num_outcomes > r.remaining()) {
    return Status::OutOfRange("outcome count exceeds buffer");
  }
  state.outcomes.reserve(num_outcomes);
  for (uint64_t i = 0; i < num_outcomes; ++i) {
    CJ_ASSIGN_OR_RETURN(const uint8_t byte, r.ReadU8());
    state.outcomes.push_back(DecodeOutcome(byte));
  }
  CJ_ASSIGN_OR_RETURN(const uint64_t num_edges, r.ReadU64());
  if (num_edges > r.remaining() / 9) {
    return Status::OutOfRange("edge count exceeds buffer");
  }
  state.edge_log.reserve(num_edges);
  for (uint64_t i = 0; i < num_edges; ++i) {
    LoggedEdge edge;
    CJ_ASSIGN_OR_RETURN(const uint32_t a, r.ReadU32());
    CJ_ASSIGN_OR_RETURN(const uint32_t b, r.ReadU32());
    CJ_ASSIGN_OR_RETURN(const uint8_t label, r.ReadU8());
    // The log replays through ClusterGraph::Add, which aborts on a
    // self-loop or an object outside the graph.
    if (a == b || a >= num_objects || b >= num_objects) {
      return Status::InvalidArgument(StrFormat(
          "checkpoint edge (%u, %u) is a self-loop or lies outside the %u "
          "checkpointed objects",
          a, b, num_objects));
    }
    edge.a = static_cast<ObjectId>(a);
    edge.b = static_cast<ObjectId>(b);
    edge.label = static_cast<Label>(label & 1u);
    state.edge_log.push_back(edge);
  }
  CJ_ASSIGN_OR_RETURN(const uint8_t has_rng, r.ReadU8());
  state.has_order_rng = has_rng != 0;
  if (state.has_order_rng) {
    for (uint64_t& s : state.order_rng.s) {
      CJ_ASSIGN_OR_RETURN(s, r.ReadU64());
    }
    CJ_ASSIGN_OR_RETURN(state.order_rng.spare_normal, r.ReadDouble());
    CJ_ASSIGN_OR_RETURN(const uint8_t has_spare, r.ReadU8());
    state.order_rng.has_spare_normal = has_spare != 0;
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument(
        StrFormat("checkpoint has %zu trailing bytes", r.remaining()));
  }
  return state;
}

Result<SessionCheckpointState> LoadSessionCheckpoint(const std::string& path) {
  CJ_ASSIGN_OR_RETURN(const std::string data, ReadFileToString(path));
  return DecodeSessionCheckpoint(data);
}

Status SaveSessionCheckpoint(const std::string& path,
                             const SessionCheckpointState& state) {
  return AtomicWriteFile(path, EncodeSessionCheckpoint(state));
}

}  // namespace crowdjoin
