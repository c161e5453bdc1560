// Wire-format and file round-trip tests for the session checkpoint
// (core/session_checkpoint.h). Every corruption mode must surface as a
// typed error — a torn, truncated, or foreign file must never decode into
// a plausible-but-wrong frontier.

#include "core/session_checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>

#include "common/serialize.h"
#include "graph/cluster_graph.h"

namespace crowdjoin {
namespace {

// A state RunStream could have written: its counts agree with its
// outcomes and its edges lie inside its objects.
SessionCheckpointState MakeState() {
  SessionCheckpointState state;
  state.fingerprint = 0xFEEDFACECAFEBEEFull;
  state.completed_rounds = 3;
  state.candidates_consumed = 4;
  state.num_objects = 25;
  state.remaining_budget = 17;
  state.num_candidates = 4;
  state.num_crowdsourced = 2;
  state.num_deduced = 1;
  state.num_unlabeled = 1;
  state.num_stream_rounds = 3;
  state.crowdsourced_per_iteration = {1, 1};
  state.outcomes = {
      PairOutcome{Label::kMatching, LabelSource::kCrowdsourced},
      std::nullopt,
      PairOutcome{Label::kNonMatching, LabelSource::kDeduced},
      PairOutcome{Label::kNonMatching, LabelSource::kCrowdsourced},
  };
  state.edge_log = {{0, 1, Label::kMatching}, {1, 2, Label::kNonMatching}};
  state.has_order_rng = true;
  Rng rng(11);
  (void)rng.Normal(0.0, 1.0);  // populate the spare-normal slot
  state.order_rng = rng.SaveState();
  return state;
}

void ExpectStatesEqual(const SessionCheckpointState& actual,
                       const SessionCheckpointState& expected) {
  EXPECT_EQ(actual.fingerprint, expected.fingerprint);
  EXPECT_EQ(actual.completed_rounds, expected.completed_rounds);
  EXPECT_EQ(actual.candidates_consumed, expected.candidates_consumed);
  EXPECT_EQ(actual.num_objects, expected.num_objects);
  EXPECT_EQ(actual.remaining_budget, expected.remaining_budget);
  EXPECT_EQ(actual.num_candidates, expected.num_candidates);
  EXPECT_EQ(actual.num_crowdsourced, expected.num_crowdsourced);
  EXPECT_EQ(actual.num_deduced, expected.num_deduced);
  EXPECT_EQ(actual.num_unlabeled, expected.num_unlabeled);
  EXPECT_EQ(actual.num_stream_rounds, expected.num_stream_rounds);
  EXPECT_EQ(actual.crowdsourced_per_iteration,
            expected.crowdsourced_per_iteration);
  EXPECT_EQ(actual.outcomes, expected.outcomes);
  ASSERT_EQ(actual.edge_log.size(), expected.edge_log.size());
  for (size_t i = 0; i < actual.edge_log.size(); ++i) {
    EXPECT_EQ(actual.edge_log[i].a, expected.edge_log[i].a);
    EXPECT_EQ(actual.edge_log[i].b, expected.edge_log[i].b);
    EXPECT_EQ(actual.edge_log[i].label, expected.edge_log[i].label);
  }
  ASSERT_EQ(actual.has_order_rng, expected.has_order_rng);
  if (expected.has_order_rng) {
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(actual.order_rng.s[i], expected.order_rng.s[i]);
    }
    EXPECT_EQ(actual.order_rng.spare_normal, expected.order_rng.spare_normal);
    EXPECT_EQ(actual.order_rng.has_spare_normal,
              expected.order_rng.has_spare_normal);
  }
}

// Replaces the trailing checksum with one matching the (possibly mutated)
// payload, so a test can hit the decoder's field checks rather than the
// checksum gate.
std::string Rechecksum(std::string encoded) {
  encoded.resize(encoded.size() - 8);
  const uint64_t checksum = Fingerprint64(encoded);
  for (int i = 0; i < 8; ++i) {
    encoded.push_back(static_cast<char>((checksum >> (8 * i)) & 0xFF));
  }
  return encoded;
}

TEST(SessionCheckpoint, EncodeDecodeRoundTrip) {
  const SessionCheckpointState state = MakeState();
  const std::string encoded = EncodeSessionCheckpoint(state);
  const SessionCheckpointState decoded =
      DecodeSessionCheckpoint(encoded).value();
  ExpectStatesEqual(decoded, state);
}

TEST(SessionCheckpoint, RoundTripWithoutOrderRng) {
  SessionCheckpointState state = MakeState();
  state.has_order_rng = false;
  const SessionCheckpointState decoded =
      DecodeSessionCheckpoint(EncodeSessionCheckpoint(state)).value();
  ExpectStatesEqual(decoded, state);
}

TEST(SessionCheckpoint, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "cjckpt_roundtrip.bin";
  std::remove(path.c_str());
  const SessionCheckpointState state = MakeState();
  ASSERT_TRUE(SaveSessionCheckpoint(path, state).ok());
  const SessionCheckpointState loaded = LoadSessionCheckpoint(path).value();
  ExpectStatesEqual(loaded, state);
  std::remove(path.c_str());
}

TEST(SessionCheckpoint, MissingFileIsNotFound) {
  EXPECT_EQ(LoadSessionCheckpoint(::testing::TempDir() +
                                  "cjckpt_does_not_exist.bin")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(SessionCheckpoint, FlippedByteFailsTheChecksum) {
  std::string encoded = EncodeSessionCheckpoint(MakeState());
  encoded[encoded.size() / 2] ^= 0x40;
  EXPECT_EQ(DecodeSessionCheckpoint(encoded).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SessionCheckpoint, BadMagicIsRejected) {
  std::string encoded = EncodeSessionCheckpoint(MakeState());
  encoded[0] ^= 0xFF;
  // With a recomputed checksum the decoder reaches the magic check itself.
  EXPECT_EQ(DecodeSessionCheckpoint(Rechecksum(encoded)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionCheckpoint, TruncatedPayloadIsOutOfRange) {
  std::string encoded = EncodeSessionCheckpoint(MakeState());
  // Drop the last payload byte (keeping the checksum valid for what is
  // left), so a bounds-checked field read runs out of buffer.
  encoded.erase(encoded.size() - 9, 1);
  EXPECT_EQ(DecodeSessionCheckpoint(Rechecksum(encoded)).status().code(),
            StatusCode::kOutOfRange);
}

TEST(SessionCheckpoint, TrailingBytesAreRejected) {
  std::string encoded = EncodeSessionCheckpoint(MakeState());
  encoded.insert(encoded.size() - 8, 1, '\0');
  EXPECT_EQ(DecodeSessionCheckpoint(Rechecksum(encoded)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionCheckpoint, TooSmallBufferIsRejected) {
  EXPECT_EQ(DecodeSessionCheckpoint("short").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionCheckpoint, EncodingIsDeterministic) {
  const SessionCheckpointState state = MakeState();
  EXPECT_EQ(EncodeSessionCheckpoint(state), EncodeSessionCheckpoint(state));
}

// --- Hostile input --------------------------------------------------------

// Byte offset of the batch count: magic, fingerprint, completed rounds and
// candidates consumed (4 x u64), num_objects (u32), then the budget and the
// five report counters (6 x i64).
constexpr size_t kBatchCountOffset = 4 * 8 + 4 + 6 * 8;

// Overwrites the little-endian u64 at `offset`.
void PutU64At(std::string& encoded, size_t offset, uint64_t value) {
  for (size_t i = 0; i < 8; ++i) {
    encoded[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

StatusCode DecodeCode(const SessionCheckpointState& state) {
  return DecodeSessionCheckpoint(EncodeSessionCheckpoint(state))
      .status()
      .code();
}

TEST(SessionCheckpoint, HugeBatchCountIsOutOfRange) {
  // Unchecked, a count of 2^61 reaches `reserve` and aborts.
  std::string encoded = EncodeSessionCheckpoint(MakeState());
  PutU64At(encoded, kBatchCountOffset, uint64_t{1} << 61);
  EXPECT_EQ(DecodeSessionCheckpoint(Rechecksum(encoded)).status().code(),
            StatusCode::kOutOfRange);
}

TEST(SessionCheckpoint, EdgeOutsideTheObjectSpaceIsRejected) {
  SessionCheckpointState state = MakeState();
  state.edge_log.push_back({3, state.num_objects, Label::kMatching});
  EXPECT_EQ(DecodeCode(state), StatusCode::kInvalidArgument);
  state.edge_log.back() = {-1, 3, Label::kNonMatching};
  EXPECT_EQ(DecodeCode(state), StatusCode::kInvalidArgument);
  // A self pair: ClusterGraph::Add aborts on one, so replay must not see it.
  state.edge_log.back() = {4, 4, Label::kMatching};
  EXPECT_EQ(DecodeCode(state), StatusCode::kInvalidArgument);
}

TEST(SessionCheckpoint, InconsistentCountsAreRejected) {
  const auto expect_rejected = [](auto mutate) {
    SessionCheckpointState state = MakeState();
    mutate(state);
    EXPECT_EQ(DecodeCode(state), StatusCode::kInvalidArgument);
  };
  expect_rejected([](auto& s) { s.num_objects = -1; });
  expect_rejected([](auto& s) { s.completed_rounds = -3; });
  expect_rejected([](auto& s) { s.remaining_budget = -2; });
  expect_rejected([](auto& s) { s.num_stream_rounds = 4; });
  expect_rejected([](auto& s) { s.num_candidates = 5; });
  expect_rejected([](auto& s) { s.candidates_consumed = 3; });
  expect_rejected([](auto& s) { ++s.num_crowdsourced; });
  expect_rejected([](auto& s) { --s.num_deduced; });
  expect_rejected([](auto& s) { s.num_unlabeled = -1; });
  expect_rejected([](auto& s) { s.crowdsourced_per_iteration = {2, 0}; });
  expect_rejected([](auto& s) { s.crowdsourced_per_iteration = {3, -1}; });
  expect_rejected([](auto& s) { s.crowdsourced_per_iteration = {1}; });
}

TEST(SessionCheckpoint, MalformedEnumBytesAreRejected) {
  // The outcome bytes follow the two batch entries and the outcome count.
  const size_t first_outcome = kBatchCountOffset + 8 + 2 * 8 + 8;
  for (const uint8_t byte : {uint8_t{2}, uint8_t{8}, uint8_t{0xFF}}) {
    std::string encoded = EncodeSessionCheckpoint(MakeState());
    encoded[first_outcome] = static_cast<char>(byte);
    EXPECT_EQ(DecodeSessionCheckpoint(Rechecksum(encoded)).status().code(),
              StatusCode::kInvalidArgument)
        << "outcome byte " << int{byte};
  }
}

// A random state RunStream could have written.
SessionCheckpointState RandomValidState(Rng& rng) {
  SessionCheckpointState state;
  state.fingerprint = rng.NextUint64();
  state.completed_rounds = rng.UniformInt(0, 6);
  state.num_stream_rounds = state.completed_rounds;
  state.num_objects = static_cast<int32_t>(rng.UniformInt(2, 40));
  state.remaining_budget = rng.UniformInt(-1, 30);
  state.outcomes.resize(rng.Index(30));
  for (auto& outcome : state.outcomes) {
    switch (rng.Index(3)) {
      case 0:
        break;
      case 1:
        outcome = PairOutcome{rng.Bernoulli(0.5) ? Label::kMatching
                                                 : Label::kNonMatching,
                              LabelSource::kCrowdsourced};
        ++state.num_crowdsourced;
        break;
      default:
        outcome = PairOutcome{Label::kNonMatching, LabelSource::kDeduced};
        ++state.num_deduced;
        break;
    }
  }
  state.num_candidates = static_cast<int64_t>(state.outcomes.size());
  state.candidates_consumed = state.num_candidates;
  state.num_unlabeled =
      state.num_candidates - state.num_crowdsourced - state.num_deduced;
  for (int64_t left = state.num_crowdsourced; left > 0;) {
    const int64_t batch = rng.UniformInt(1, left);
    state.crowdsourced_per_iteration.push_back(batch);
    left -= batch;
  }
  state.edge_log.resize(rng.Index(20));
  for (LoggedEdge& edge : state.edge_log) {
    const auto n = static_cast<size_t>(state.num_objects);
    edge.a = static_cast<ObjectId>(rng.Index(n));
    edge.b = static_cast<ObjectId>((static_cast<size_t>(edge.a) + 1 +
                                    rng.Index(n - 1)) % n);
    edge.label = rng.Bernoulli(0.5) ? Label::kMatching : Label::kNonMatching;
  }
  state.has_order_rng = rng.Bernoulli(0.5);
  if (state.has_order_rng) state.order_rng = Rng(rng.NextUint64()).SaveState();
  return state;
}

// 10k hostile checkpoints, each re-checksummed so it reaches the field
// decoder: bit flips, integer fields set to extremes, and truncations.
// Decoding must come back with a Status every time — never throw, abort,
// or (under ASan/UBSan) touch memory out of bounds — and a state it
// accepts must be one the resume path can replay.
TEST(SessionCheckpoint, HostileCheckpointsDecodeToAStatus) {
  constexpr uint64_t kExtremes[] = {
      0,
      1,
      uint64_t{1} << 31,
      uint64_t{1} << 32,
      uint64_t{1} << 61,
      uint64_t{std::numeric_limits<int64_t>::max()},
      uint64_t{1} << 63,
      std::numeric_limits<uint64_t>::max(),
  };
  Rng rng(20131);
  int accepted = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    const SessionCheckpointState original = RandomValidState(rng);
    std::string encoded = EncodeSessionCheckpoint(original);
    const size_t payload = encoded.size() - 8;
    // Integer fields: the fixed header's, then the three counts.
    const size_t num_batches = original.crowdsourced_per_iteration.size();
    const size_t outcome_count = kBatchCountOffset + 8 + 8 * num_batches;
    const size_t edge_count = outcome_count + 8 + original.outcomes.size();
    const size_t fields[] = {16, 24, 32, 36, 44, 52, 60, 68, 76,
                             kBatchCountOffset, outcome_count, edge_count};
    switch (rng.Index(3)) {
      case 0:
        for (size_t flips = 1 + rng.Index(3); flips > 0; --flips) {
          encoded[rng.Index(payload)] ^=
              static_cast<char>(1u << rng.Index(8));
        }
        break;
      case 1:
        PutU64At(encoded, fields[rng.Index(std::size(fields))],
                 kExtremes[rng.Index(std::size(kExtremes))]);
        break;
      default:
        encoded.erase(rng.Index(payload), std::string::npos);
        encoded.append(8, '\0');  // checksum placeholder
        break;
    }
    const Result<SessionCheckpointState> decoded =
        DecodeSessionCheckpoint(Rechecksum(encoded));
    if (!decoded.ok()) continue;
    ++accepted;
    const SessionCheckpointState& state = *decoded;
    ASSERT_GE(state.num_objects, 0);
    ClusterGraph graph(std::min(state.num_objects, 1 << 16));
    for (const LoggedEdge& edge : state.edge_log) {
      ASSERT_GE(edge.a, 0);
      ASSERT_GE(edge.b, 0);
      ASSERT_LT(edge.a, state.num_objects);
      ASSERT_LT(edge.b, state.num_objects);
      if (state.num_objects <= graph.num_objects()) {
        graph.Add(edge.a, edge.b, edge.label);
      }
    }
    ASSERT_EQ(state.num_candidates,
              static_cast<int64_t>(state.outcomes.size()));
    ASSERT_EQ(state.num_crowdsourced + state.num_deduced + state.num_unlabeled,
              state.num_candidates);
  }
  // Flips of free fields (fingerprint, budget, labels, RNG words) leave a
  // valid state, so some mutants must decode — the checks above ran.
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace crowdjoin
