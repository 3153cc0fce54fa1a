// Wire codec properties: every frame that AppendFrame produces comes back
// byte-identical through FrameParser regardless of how TCP fragments it;
// every body codec round-trips; and no byte stream — truncated, mutated,
// or pure noise — can make the parser crash or return anything but a
// complete frame, kNeedMore, or a typed error.
//
// The fuzz corpus is seeded and deterministic. Extra seeds can be supplied
// via DECLSCHED_WIRE_FUZZ_SEEDS (comma-separated integers), so a seed that
// reproduces a field failure becomes a permanent regression input just by
// exporting it in CI.

#include "net/wire/wire_codec.h"

#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace declsched::net::wire {
namespace {

const WireOp kAllOps[] = {
    WireOp::kHello,    WireOp::kHelloOk, WireOp::kSubmit, WireOp::kSubmitOk,
    WireOp::kStats,    WireOp::kStatsOk, WireOp::kExplain, WireOp::kExplainOk,
    WireOp::kFinish,   WireOp::kFinishOk, WireOp::kError,
};

std::string RandomBytes(Rng& rng, size_t len) {
  std::string bytes(len, '\0');
  for (char& b : bytes) b = static_cast<char>(rng.NextU64() & 0xff);
  return bytes;
}

/// Feeds `wire` to `parser` in random chunks — the property is that frame
/// boundaries and read boundaries are unrelated.
void FeedChunked(FrameParser& parser, const std::string& wire, Rng& rng) {
  size_t off = 0;
  while (off < wire.size()) {
    const size_t n = static_cast<size_t>(
        rng.UniformInt(1, static_cast<int64_t>(wire.size() - off)));
    parser.Feed(std::string_view(wire).substr(off, n));
    off += n;
  }
}

TEST(WireCodecTest, EveryOpRoundTripsThroughArbitraryChunking) {
  Rng rng(0x5eed);
  for (int round = 0; round < 200; ++round) {
    // A pipelined burst: several frames of random ops back to back.
    std::vector<WireFrame> sent;
    std::string wire;
    const int frames = static_cast<int>(rng.UniformInt(1, 8));
    for (int i = 0; i < frames; ++i) {
      WireFrame frame;
      frame.op = kAllOps[rng.UniformInt(0, std::size(kAllOps) - 1)];
      frame.flags = static_cast<uint8_t>(rng.UniformInt(0, 3));
      frame.request_id = rng.NextU64();
      frame.body = RandomBytes(
          rng, static_cast<size_t>(rng.UniformInt(0, 2048)));
      AppendFrame(&wire, frame.op, frame.flags, frame.request_id, frame.body);
      sent.push_back(std::move(frame));
    }

    FrameParser parser;
    FeedChunked(parser, wire, rng);
    for (const WireFrame& expected : sent) {
      WireFrame got;
      ASSERT_EQ(parser.Next(&got), FrameParser::Outcome::kFrame)
          << parser.error_message();
      EXPECT_EQ(got.op, expected.op);
      EXPECT_EQ(got.flags, expected.flags);
      EXPECT_EQ(got.request_id, expected.request_id);
      EXPECT_EQ(got.body, expected.body);
    }
    WireFrame extra;
    EXPECT_EQ(parser.Next(&extra), FrameParser::Outcome::kNeedMore);
    EXPECT_EQ(parser.buffered_bytes(), 0u);
  }
}

TEST(WireCodecTest, BodyCodecsRoundTrip) {
  Rng rng(7);
  for (int round = 0; round < 100; ++round) {
    WireSubmit submit;
    submit.tenant = rng.UniformInt(0, 1 << 20);
    submit.txns.resize(static_cast<size_t>(rng.UniformInt(0, 6)));
    for (WireTxn& txn : submit.txns) {
      txn.ops.resize(static_cast<size_t>(rng.UniformInt(0, 10)));
      for (WireOpEntry& op : txn.ops) {
        op.write = rng.UniformInt(0, 1) == 1;
        op.object = rng.UniformInt(0, int64_t{1} << 40);
      }
    }
    WireSubmit submit_out;
    ASSERT_TRUE(DecodeSubmitBody(EncodeSubmitBody(submit), &submit_out).ok());
    ASSERT_EQ(submit_out.tenant, submit.tenant);
    ASSERT_EQ(submit_out.txns.size(), submit.txns.size());
    for (size_t t = 0; t < submit.txns.size(); ++t) {
      ASSERT_EQ(submit_out.txns[t].ops.size(), submit.txns[t].ops.size());
      for (size_t o = 0; o < submit.txns[t].ops.size(); ++o) {
        EXPECT_EQ(submit_out.txns[t].ops[o].write, submit.txns[t].ops[o].write);
        EXPECT_EQ(submit_out.txns[t].ops[o].object,
                  submit.txns[t].ops[o].object);
      }
    }

    WireSubmitResult result{rng.UniformInt(0, 1 << 30),
                            rng.UniformInt(0, 1 << 30),
                            rng.UniformInt(0, 1 << 30),
                            rng.UniformInt(0, 1 << 30)};
    WireSubmitResult result_out;
    ASSERT_TRUE(
        DecodeSubmitOkBody(EncodeSubmitOkBody(result), &result_out).ok());
    EXPECT_EQ(result_out.txns, result.txns);
    EXPECT_EQ(result_out.statements, result.statements);
    EXPECT_EQ(result_out.dispatched, result.dispatched);
    EXPECT_EQ(result_out.latency_us, result.latency_us);

    WireError error{static_cast<uint16_t>(rng.UniformInt(0, 999)),
                    static_cast<uint16_t>(rng.UniformInt(0, 120)),
                    RandomBytes(rng, static_cast<size_t>(rng.UniformInt(0, 64)))};
    WireError error_out;
    ASSERT_TRUE(DecodeErrorBody(EncodeErrorBody(error), &error_out).ok());
    EXPECT_EQ(error_out.code, error.code);
    EXPECT_EQ(error_out.retry_after_seconds, error.retry_after_seconds);
    EXPECT_EQ(error_out.message, error.message);
  }

  uint32_t magic = 0;
  uint16_t version = 0;
  ASSERT_TRUE(DecodeHelloBody(EncodeHelloBody(), &magic, &version).ok());
  EXPECT_EQ(magic, kWireMagic);
  EXPECT_EQ(version, kWireVersion);

  std::string name;
  ASSERT_TRUE(DecodeNameBody(EncodeNameBody("edf-sql"), &name).ok());
  EXPECT_EQ(name, "edf-sql");
}

TEST(WireCodecTest, TruncatedBodiesAreTypedErrorsNotReads) {
  // Every strict prefix of a valid body must decode to a clean error.
  WireSubmit submit;
  submit.tenant = 42;
  submit.txns.push_back(WireTxn{{{true, 100}, {false, 2000}}});
  const std::string body = EncodeSubmitBody(submit);
  for (size_t len = 0; len < body.size(); ++len) {
    WireSubmit out;
    EXPECT_FALSE(DecodeSubmitBody(body.substr(0, len), &out).ok())
        << "prefix length " << len;
  }
  const std::string error_body = EncodeErrorBody({429, 2, "busy"});
  for (size_t len = 0; len < error_body.size(); ++len) {
    WireError out;
    EXPECT_FALSE(DecodeErrorBody(error_body.substr(0, len), &out).ok());
  }
}

TEST(WireCodecTest, ParserReportsTypedFrameErrors) {
  {
    // Oversized: claimed payload length over the limit fails before any
    // proportional allocation.
    FrameParser parser(FrameParser::Limits{.max_frame_bytes = 1024});
    std::string wire;
    AppendFrame(&wire, WireOp::kSubmit, 0, 1, std::string(2048, 'x'));
    parser.Feed(wire);
    WireFrame frame;
    EXPECT_EQ(parser.Next(&frame), FrameParser::Outcome::kError);
    EXPECT_EQ(parser.error(), FrameParser::Error::kOversized);
  }
  {
    // Short payload: length smaller than the fixed header (zero included).
    for (const uint32_t len : {0u, 1u, 11u}) {
      FrameParser parser;
      std::string wire;
      for (int shift = 0; shift < 32; shift += 8) {
        wire.push_back(static_cast<char>((len >> shift) & 0xff));
      }
      wire.append(4, '\0');                 // crc (unchecked before length)
      wire.append(len, 'x');
      parser.Feed(wire);
      WireFrame frame;
      EXPECT_EQ(parser.Next(&frame), FrameParser::Outcome::kError);
      EXPECT_EQ(parser.error(), FrameParser::Error::kShortPayload) << len;
    }
  }
  {
    // CRC mismatch: flip one payload bit of a valid frame.
    std::string wire;
    AppendFrame(&wire, WireOp::kSubmit, 0, 7, "hello");
    wire[kFramePrefixBytes + kFrameHeaderBytes] ^= 0x1;
    FrameParser parser;
    parser.Feed(wire);
    WireFrame frame;
    EXPECT_EQ(parser.Next(&frame), FrameParser::Outcome::kError);
    EXPECT_EQ(parser.error(), FrameParser::Error::kBadCrc);
  }
}

TEST(WireCodecTest, UnknownOpsSurviveTheParser) {
  // Forward compatibility: the parser hands unknown ops up intact; the
  // connection layer rejects them, not the framing.
  std::string wire;
  AppendFrame(&wire, static_cast<WireOp>(200), 0, 9, "future");
  FrameParser parser;
  parser.Feed(wire);
  WireFrame frame;
  ASSERT_EQ(parser.Next(&frame), FrameParser::Outcome::kFrame);
  EXPECT_EQ(static_cast<uint8_t>(frame.op), 200);
  EXPECT_FALSE(IsKnownWireOp(200));
  EXPECT_TRUE(IsKnownWireOp(static_cast<uint8_t>(WireOp::kSubmit)));
}

std::vector<uint64_t> FuzzSeeds() {
  return testing::SeedsFromEnv("DECLSCHED_WIRE_FUZZ_SEEDS",
                               {1, 2, 3, 0xdead, 0xbeef, 0xc0ffee, 0x5eedf00d,
                                42424242});
}

TEST(WireCodecTest, MalformedByteFuzzNeverBreaksTheParser) {
  for (const uint64_t seed : FuzzSeeds()) {
    Rng rng(seed);
    for (int round = 0; round < 200; ++round) {
      // Three stream shapes: pure noise, a valid burst with mutations, and
      // a valid burst truncated mid-frame with noise appended.
      std::string wire;
      const int shape = static_cast<int>(rng.UniformInt(0, 2));
      if (shape == 0) {
        wire = RandomBytes(rng, static_cast<size_t>(rng.UniformInt(1, 512)));
      } else {
        const int frames = static_cast<int>(rng.UniformInt(1, 4));
        for (int i = 0; i < frames; ++i) {
          AppendFrame(&wire, kAllOps[rng.UniformInt(0, std::size(kAllOps) - 1)],
                      static_cast<uint8_t>(rng.UniformInt(0, 3)),
                      rng.NextU64(),
                      RandomBytes(rng,
                                  static_cast<size_t>(rng.UniformInt(0, 256))));
        }
        if (shape == 1) {
          const int flips = static_cast<int>(rng.UniformInt(1, 8));
          for (int i = 0; i < flips; ++i) {
            wire[static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(wire.size()) - 1))] ^=
                static_cast<char>(1 << rng.UniformInt(0, 7));
          }
        } else {
          wire.resize(static_cast<size_t>(
              rng.UniformInt(1, static_cast<int64_t>(wire.size()))));
          wire += RandomBytes(rng,
                              static_cast<size_t>(rng.UniformInt(0, 64)));
        }
      }

      FrameParser parser(FrameParser::Limits{.max_frame_bytes = 64 * 1024});
      FeedChunked(parser, wire, rng);
      // Drain: only complete frames, a clean need-more, or a typed error —
      // and an error is terminal and self-consistent.
      WireFrame frame;
      while (true) {
        const FrameParser::Outcome outcome = parser.Next(&frame);
        if (outcome == FrameParser::Outcome::kFrame) {
          ASSERT_LE(frame.body.size(), 64u * 1024u);
          continue;
        }
        if (outcome == FrameParser::Outcome::kError) {
          EXPECT_NE(parser.error(), FrameParser::Error::kNone);
          EXPECT_FALSE(parser.error_message().empty());
          // Terminal: stays an error on repeated pulls.
          EXPECT_EQ(parser.Next(&frame), FrameParser::Outcome::kError);
        } else {
          EXPECT_EQ(parser.error(), FrameParser::Error::kNone);
        }
        break;
      }
    }
  }
}

}  // namespace
}  // namespace declsched::net::wire
