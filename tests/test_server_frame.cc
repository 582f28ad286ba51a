/**
 * Wire framing (server/frame.hh): encode/decode round-trips, byte-at-
 * a-time reassembly, every structural rejection (bad magic, bad
 * version, bad type, oversized payload), and a seeded fuzz of the
 * incremental parser — FrameReader consumes hostile byte streams and
 * must fail as a value, never by crashing (run under ASan/UBSan).
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "server/frame.hh"

using namespace risc1;
using namespace risc1::server;

namespace {

std::vector<std::uint8_t>
concat(const std::vector<std::uint8_t> &a,
       const std::vector<std::uint8_t> &b)
{
    std::vector<std::uint8_t> out = a;
    out.insert(out.end(), b.begin(), b.end());
    return out;
}

} // namespace

TEST(ServerFrame, EncodesHeaderLayout)
{
    const auto bytes = encodeFrame(FrameType::Request, 0x11223344,
                                   "ab");
    ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 2);
    EXPECT_EQ(bytes[0], 0x31); // magic lo ("1")
    EXPECT_EQ(bytes[1], 0x53); // magic hi ("S")
    EXPECT_EQ(bytes[2], kProtocolVersion);
    EXPECT_EQ(bytes[3], 1); // request
    EXPECT_EQ(bytes[4], 0x44); // id, little-endian
    EXPECT_EQ(bytes[7], 0x11);
    EXPECT_EQ(bytes[8], 2); // length
    EXPECT_EQ(bytes[12], 'a');
}

TEST(ServerFrame, RoundTripsOneFrame)
{
    FrameReader reader;
    reader.feed(encodeFrame(FrameType::Response, 7, "{\"ok\":true}"));
    const auto frame = reader.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, FrameType::Response);
    EXPECT_EQ(frame->id, 7u);
    EXPECT_EQ(frame->payload, "{\"ok\":true}");
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.error(), FrameError::None);
}

TEST(ServerFrame, ReassemblesByteAtATime)
{
    const auto bytes = encodeFrame(FrameType::Request, 42, "payload");
    FrameReader reader;
    for (const std::uint8_t b : bytes) {
        EXPECT_FALSE(reader.next().has_value());
        reader.feed(&b, 1);
    }
    const auto frame = reader.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->id, 42u);
    EXPECT_EQ(frame->payload, "payload");
}

TEST(ServerFrame, DecodesPipelinedFrames)
{
    const auto two = concat(encodeFrame(FrameType::Request, 1, "one"),
                            encodeFrame(FrameType::Request, 2, "two"));
    FrameReader reader;
    reader.feed(two.data(), two.size());
    EXPECT_EQ(reader.next()->payload, "one");
    EXPECT_EQ(reader.next()->payload, "two");
    EXPECT_FALSE(reader.next().has_value());
}

TEST(ServerFrame, EmptyPayloadIsValid)
{
    FrameReader reader;
    reader.feed(encodeFrame(FrameType::Request, 9, ""));
    const auto frame = reader.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->payload, "");
}

TEST(ServerFrame, RejectsBadMagic)
{
    auto bytes = encodeFrame(FrameType::Request, 1, "x");
    bytes[1] ^= 0xff;
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    EXPECT_EQ(reader.error(), FrameError::BadMagic);
    EXPECT_FALSE(reader.next().has_value());
}

TEST(ServerFrame, RejectsBadVersion)
{
    auto bytes = encodeFrame(FrameType::Request, 1, "x");
    bytes[2] = 99;
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    EXPECT_EQ(reader.error(), FrameError::BadVersion);
}

TEST(ServerFrame, RejectsBadType)
{
    auto bytes = encodeFrame(FrameType::Request, 1, "x");
    bytes[3] = 3;
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    EXPECT_EQ(reader.error(), FrameError::BadType);
}

TEST(ServerFrame, RejectsOversizedPayloadWithoutBuffering)
{
    // A header claiming 16 MiB against a 1 KiB cap must fail from the
    // header alone — the reader never waits for (or allocates) the
    // claimed payload.
    FrameReader reader(1024);
    std::vector<std::uint8_t> header =
        encodeFrame(FrameType::Request, 1, "");
    header[8] = 0;
    header[9] = 0;
    header[10] = 0;
    header[11] = 1; // length = 16 MiB
    reader.feed(header.data(), header.size());
    EXPECT_EQ(reader.error(), FrameError::Oversized);
    EXPECT_EQ(reader.pendingBytes(), 0u);
}

TEST(ServerFrame, PayloadAtCapIsAccepted)
{
    FrameReader reader(8);
    reader.feed(encodeFrame(FrameType::Request, 1, "12345678"));
    ASSERT_TRUE(reader.next().has_value());
    EXPECT_EQ(reader.error(), FrameError::None);
}

TEST(ServerFrame, ErrorStopsFurtherDecoding)
{
    // A good frame followed by garbage: the good frame survives, the
    // error sticks, and later feeds are ignored.
    auto bytes = encodeFrame(FrameType::Request, 5, "ok");
    const std::vector<std::uint8_t> junk(kFrameHeaderBytes, 0xee);
    const auto stream = concat(bytes, junk);
    FrameReader reader;
    reader.feed(stream.data(), stream.size());
    EXPECT_EQ(reader.next()->payload, "ok");
    EXPECT_EQ(reader.error(), FrameError::BadMagic);

    const auto more = encodeFrame(FrameType::Request, 6, "late");
    reader.feed(more.data(), more.size());
    EXPECT_FALSE(reader.next().has_value());
}

TEST(ServerFrame, TruncatedFrameStaysPending)
{
    const auto bytes = encodeFrame(FrameType::Request, 3, "abcdef");
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size() - 3);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.error(), FrameError::None);
    EXPECT_GT(reader.pendingBytes(), 0u);
    reader.feed(bytes.data() + bytes.size() - 3, 3);
    EXPECT_EQ(reader.next()->payload, "abcdef");
}

TEST(ServerFrame, FuzzedStreamsNeverCrash)
{
    // Seeded fuzz: random mutations of valid frames plus pure noise,
    // fed in random-sized chunks.  The reader must either produce
    // frames or set an error — no crashes, hangs, or unbounded
    // buffering (ASan/UBSan-checked in CI).
    Rng rng(0xf5a3e);
    for (int iter = 0; iter < 1500; ++iter) {
        std::vector<std::uint8_t> stream;
        const unsigned pieces = 1 + unsigned(rng.below(4));
        for (unsigned p = 0; p < pieces; ++p) {
            if (rng.chance(2, 3)) {
                std::string payload(rng.below(40), 'x');
                auto f = encodeFrame(rng.chance(1, 2)
                                         ? FrameType::Request
                                         : FrameType::Response,
                                     std::uint32_t(rng.next()), payload);
                const std::size_t flips = rng.below(3);
                for (std::size_t i = 0; i < flips; ++i)
                    f[rng.below(f.size())] ^=
                        std::uint8_t(1 + rng.below(255));
                stream.insert(stream.end(), f.begin(), f.end());
            } else {
                const std::size_t len = rng.below(32);
                for (std::size_t i = 0; i < len; ++i)
                    stream.push_back(std::uint8_t(rng.next()));
            }
        }

        FrameReader reader(4096);
        std::size_t pos = 0;
        while (pos < stream.size()) {
            const std::size_t chunk =
                std::min<std::size_t>(1 + rng.below(17),
                                      stream.size() - pos);
            reader.feed(stream.data() + pos, chunk);
            pos += chunk;
            while (reader.next().has_value()) {
            }
        }
        // Invariant: after an error the buffer is dropped.
        if (reader.error() != FrameError::None) {
            EXPECT_EQ(reader.pendingBytes(), 0u);
        }
    }
}
