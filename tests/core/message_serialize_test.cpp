// Wire round-trips for the query runtime's typed messages (DESIGN.md 4e):
// every msg::Message alternative must survive save_message -> load_message
// bit-exactly, and every truncated or corrupted frame must fail loudly
// (std::invalid_argument) instead of yielding a half-parsed message.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "squid/core/messages.hpp"
#include "squid/core/serialize.hpp"
#include "squid/util/u128.hpp"

#include "message_samples.hpp"

namespace squid::core {
namespace {

std::string encode(const msg::Message& message) {
  std::ostringstream out;
  save_message(message, out);
  return out.str();
}

msg::Message decode(const std::string& text) {
  std::istringstream in(text);
  return load_message(in);
}

template <typename T> T round_trip(const T& message) {
  const msg::Message back = decode(encode(msg::Message{message}));
  EXPECT_TRUE(std::holds_alternative<T>(back));
  return std::get<T>(back);
}

using namespace samples;

TEST(MessageSerialize, ResolveRequestRoundTrips) {
  const msg::ResolveRequest r = sample_resolve();
  EXPECT_EQ(round_trip(r), r);
}

TEST(MessageSerialize, ClusterDispatchRoundTrips) {
  const msg::ClusterDispatch d = sample_dispatch();
  EXPECT_EQ(round_trip(d), d);
}

TEST(MessageSerialize, ScanRequestRoundTrips) {
  const msg::ScanRequest s = sample_scan();
  EXPECT_EQ(round_trip(s), s);
}

TEST(MessageSerialize, ReplyRoundTrips) {
  const msg::Reply r = sample_reply();
  EXPECT_EQ(round_trip(r), r);
}

TEST(MessageSerialize, UpdateFramesRoundTripBitExactly) {
  const msg::PublishRequest p = sample_publish();
  const msg::PublishRequest p2 = round_trip(p);
  EXPECT_EQ(p2, p);
  // The numeric token must come back bit-exact, not decimal-close: retract
  // matching is by name AND keys, so a 1-ulp wobble would strand elements.
  ASSERT_EQ(p2.element.keys.size(), 2u);
  EXPECT_EQ(std::get<double>(p2.element.keys[0]), -1234.5625);

  const msg::RetractRequest r = sample_retract();
  EXPECT_EQ(round_trip(r), r);
}

TEST(MessageSerialize, AggregateReplyRoundTripsBitExactly) {
  const msg::Reply r = sample_aggregate_reply();
  const msg::Reply back = round_trip(r);
  EXPECT_EQ(back, r); // Reply::operator== compares the partial by value
  ASSERT_NE(back.aggregate, nullptr);
  // The ExactSum travels limb-for-limb: the decoded accumulator must carry
  // the identical 2304-bit state, not just a close double.
  EXPECT_EQ(back.aggregate->sum, r.aggregate->sum);
  EXPECT_EQ(back.aggregate->top, r.aggregate->top);
  EXPECT_EQ(back.aggregate->groups, r.aggregate->groups);
}

TEST(MessageSerialize, EveryAggregateKindRoundTripsOnScanAndReply) {
  for (AggregateKind kind :
       {AggregateKind::kNone, AggregateKind::kCount, AggregateKind::kSum,
        AggregateKind::kMin, AggregateKind::kMax, AggregateKind::kGroupBy,
        AggregateKind::kTopK}) {
    msg::ScanRequest s = sample_scan();
    s.agg = AggregateSpec{};
    s.agg.kind = kind;
    if (kind == AggregateKind::kTopK) s.agg.k = 2;
    EXPECT_EQ(round_trip(s), s) << aggregate_kind_name(kind);

    AggregatePartial partial = make_partial(s.agg);
    if (kind == AggregateKind::kSum) partial.sum.add(-0.25);
    msg::Reply r;
    r.query = 3;
    r.aggregate = std::make_shared<const AggregatePartial>(std::move(partial));
    EXPECT_EQ(round_trip(r), r) << aggregate_kind_name(kind);
  }
}

TEST(MessageSerialize, SaveReportsTheExactEncodedSizeAndLoadConsumesIt) {
  for (const msg::Message& message : all_samples()) {
    std::ostringstream out;
    const std::size_t saved = save_message(message, out);
    EXPECT_EQ(saved, out.str().size()) << msg::type_name(message);
    EXPECT_EQ(wire_size(message), saved) << msg::type_name(message);
    std::istringstream in(out.str());
    std::size_t consumed = 0;
    (void)load_message(in, &consumed);
    EXPECT_EQ(consumed, saved) << msg::type_name(message);
  }
}

TEST(MessageSerialize, CorruptAggregateFramesAreRejected) {
  // Out-of-range kind byte.
  {
    std::string text = encode(msg::Message{sample_scan()});
    const std::size_t pos = text.find(" 6 1 8 0 "); // kTopK spec: kind 6
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 3, " 9 ");
    EXPECT_THROW(decode(text), std::invalid_argument);
  }
  // Group keys must arrive strictly ascending (the canonical sorted form).
  {
    msg::Reply r = sample_aggregate_reply();
    AggregatePartial tampered = *r.aggregate;
    std::swap(tampered.groups[0], tampered.groups[1]);
    r.aggregate = std::make_shared<const AggregatePartial>(std::move(tampered));
    EXPECT_THROW(decode(encode(msg::Message{r})), std::invalid_argument);
  }
  // Top entries must respect the spec's total order.
  {
    msg::Reply r = sample_aggregate_reply();
    AggregatePartial tampered = *r.aggregate;
    ASSERT_GE(tampered.top.size(), 2u);
    std::swap(tampered.top.front(), tampered.top.back());
    r.aggregate = std::make_shared<const AggregatePartial>(std::move(tampered));
    EXPECT_THROW(decode(encode(msg::Message{r})), std::invalid_argument);
  }
}

TEST(MessageSerialize, EmptyAggregatesAndElementListsRoundTrip) {
  msg::ResolveRequest r;
  r.query = 2;
  r.at = 0;
  EXPECT_TRUE(r.clusters.clusters.empty());
  EXPECT_EQ(round_trip(r), r);

  msg::Reply reply;
  reply.query = 2;
  EXPECT_TRUE(reply.elements.empty());
  EXPECT_EQ(round_trip(reply), reply);
}

TEST(MessageSerialize, DestinationAndTypeNameMatchTheAlternative) {
  EXPECT_EQ(msg::destination_of(msg::Message{sample_resolve()}),
            sample_resolve().at);
  EXPECT_EQ(msg::destination_of(msg::Message{sample_dispatch()}),
            sample_dispatch().to);
  EXPECT_EQ(msg::destination_of(msg::Message{sample_scan()}),
            sample_scan().at);
  EXPECT_EQ(msg::destination_of(msg::Message{sample_reply()}),
            sample_reply().to);
  EXPECT_EQ(msg::destination_of(msg::Message{sample_publish()}),
            sample_publish().to);
  EXPECT_EQ(msg::destination_of(msg::Message{sample_retract()}),
            sample_retract().to);
  EXPECT_EQ(std::string(msg::type_name(msg::Message{sample_scan()})), "scan");
  EXPECT_EQ(std::string(msg::type_name(msg::Message{sample_reply()})),
            "reply");
  EXPECT_EQ(std::string(msg::type_name(msg::Message{sample_publish()})),
            "publish");
  EXPECT_EQ(std::string(msg::type_name(msg::Message{sample_retract()})),
            "retract");
}

TEST(MessageSerialize, EveryTruncationFailsLoudly) {
  for (const msg::Message& message : all_samples()) {
    const std::string full = encode(message);
    // Drop whitespace-delimited tokens from the tail one at a time; every
    // proper prefix that ends at a token boundary must throw rather than
    // decode to *any* message.
    for (std::size_t cut = 0; cut < full.size(); cut = full.find(' ', cut + 1)) {
      const std::string prefix = full.substr(0, cut);
      EXPECT_THROW(decode(prefix), std::invalid_argument)
          << msg::type_name(message) << " truncated to " << cut << " bytes";
      if (full.find(' ', cut + 1) == std::string::npos) break;
    }
  }
}

TEST(MessageSerialize, BadMagicAndUnknownTagAreRejected) {
  EXPECT_THROW(decode(""), std::invalid_argument);
  EXPECT_THROW(decode("SQUID-SNAPSHOT-1 resolve 1"), std::invalid_argument);
  EXPECT_THROW(decode("SQUID-MSG-1 gossip 1 2 3"), std::invalid_argument);

  std::string full = encode(msg::Message{sample_scan()});
  full.replace(full.find("scan"), 4, "scam");
  EXPECT_THROW(decode(full), std::invalid_argument);
}

TEST(MessageSerialize, GarbageFieldsAreRejected) {
  // A non-numeric id where a u128 is expected.
  EXPECT_THROW(decode("SQUID-MSG-1 scan 1 banana 0 0 0 0 -1"),
               std::invalid_argument);
}

TEST(MessageSerialize, CorruptUpdateFramesAreRejected) {
  // A misspelled update tag is an unknown message type, not a fallback.
  {
    std::string text = encode(msg::Message{sample_publish()});
    text.replace(text.find("publish"), 7, "publush");
    EXPECT_THROW(decode(text), std::invalid_argument);
  }
  // A retract downgraded to a bare prefix of its element dies loudly.
  {
    const std::string full = encode(msg::Message{sample_retract()});
    EXPECT_THROW(decode(full.substr(0, full.size() / 2)),
                 std::invalid_argument);
  }
  // Garbage where the origin id should be.
  EXPECT_THROW(decode("SQUID-MSG-1 publish 7 banana 3"),
               std::invalid_argument);
}

// Counts and string lengths are read before the data they describe; a frame
// that claims more than the rest of the stream can hold must be rejected as
// malformed, never turned into a multi-petabyte allocation (bad_alloc).
std::vector<std::string> oversized_frames() {
  const std::string huge = "100000000000000000"; // 1e17
  return {
      // Resolve batch: 1e17 clusters.
      "SQUID-MSG-1 resolve 1 5 " + huge + " 0 0 0 0",
      // Aggregate partial (kind kCount): 1e17 groups, then 1e17 top entries.
      "SQUID-MSG-1 reply 1 5 6 1 0 0 1 1 0 0 0 0 0 0 0 0 " + huge + "\n",
      "SQUID-MSG-1 reply 1 5 6 1 0 0 1 1 0 0 0 0 0 0 0 0 0 " + huge + "\n",
      // Reply payload: 1e17 element lines.
      "SQUID-MSG-1 reply 1 5 6 1 0 " + huge + " 0\n0: 0\n",
      // Element name: a 1e15-byte string header over three bytes.
      "SQUID-MSG-1 publish 1 2 3 1000000000000000:abc 0 0 0\n",
  };
}

TEST(MessageSerialize, OversizedCountsAndLengthsAreRejected) {
  for (const std::string& text : oversized_frames())
    EXPECT_THROW(decode(text), std::invalid_argument) << text;
}

/// Input buffer that cannot seek, like a pipe: decoding must not depend on
/// measuring what is left, and oversized frames must still fail cleanly.
class PipeBuf final : public std::streambuf {
public:
  explicit PipeBuf(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

private:
  std::string text_;
};

msg::Message decode_unseekable(const std::string& text) {
  PipeBuf buf(text);
  std::istream in(&buf);
  return load_message(in);
}

TEST(MessageSerialize, UnseekableStreamsDecodeAndRejectOversizedFrames) {
  for (const std::string& text : oversized_frames())
    EXPECT_THROW(decode_unseekable(text), std::invalid_argument) << text;
  const msg::Message reply{sample_aggregate_reply()};
  EXPECT_EQ(decode_unseekable(encode(reply)), reply);
  const msg::Message publish{sample_publish()};
  EXPECT_EQ(decode_unseekable(encode(publish)), publish);
}

// --- Overflowing ids ---------------------------------------------------------
// parse_u128 reports overflow as std::out_of_range; the decoder's contract is
// std::invalid_argument only, so a 39-digit id above 2^128 - 1 must surface
// as a malformed frame.

constexpr const char* kTwoTo128 = "340282366920938463463374607431768211456";
constexpr const char* kMaxId = "340282366920938463463374607431768211455";

TEST(MessageSerialize, OverflowingIdsAreRejected) {
  const std::string over = kTwoTo128;
  const std::vector<std::string> frames = {
      "SQUID-MSG-1 resolve 1 " + over + " 0 0 -1\n",
      "SQUID-MSG-1 resolve 1 5 1 " + over + " 3 0 -1\n",
      "SQUID-MSG-1 dispatch 1 " + over + " 2 3 1 0 0 -1\n",
      "SQUID-MSG-1 scan 1 9 0 " + over + " 0 0 0 0 0 0 0 -1 0\n",
      "SQUID-MSG-1 reply 1 5 " + over + " 1 0 0 0\n",
      "SQUID-MSG-1 publish 1 " + over + " 3 1:a 0 0 -1\n",
  };
  for (const std::string& text : frames) {
    EXPECT_THROW(decode(text), std::invalid_argument) << text;
    EXPECT_THROW(decode_unseekable(text), std::invalid_argument) << text;
  }
  // One below the overflow is the largest id and still decodes.
  const msg::Message at_max =
      decode("SQUID-MSG-1 resolve 1 " + std::string(kMaxId) + " 0 0 -1\n");
  EXPECT_EQ(std::get<msg::ResolveRequest>(at_max).at, ~u128{0});
}

// --- Closed-form sizes -------------------------------------------------------
// wire_size, element_wire_size, reply_wire_size and update_wire_size add up
// field lengths without running the writer. Each must equal the bytes
// save_message writes on every digit-count boundary (the samples are checked
// by SaveReportsTheExactEncodedSizeAndLoadConsumesIt above).

void expect_exact_size(const msg::Message& message, const std::string& what) {
  std::ostringstream out;
  const std::size_t saved = save_message(message, out);
  EXPECT_EQ(wire_size(message), saved) << msg::type_name(message) << " " << what;
  EXPECT_EQ(wire_size(message), out.str().size())
      << msg::type_name(message) << " " << what;
}

/// 0, 10^k - 1 and 10^k for every k <= 38, 2^64 - 1, 2^64, and 2^128 - 1.
std::vector<u128> boundary_ids() {
  std::vector<u128> ids = {0, std::numeric_limits<std::uint64_t>::max(),
                           u128{1} << 64, ~u128{0}};
  u128 p = 1;
  for (int k = 1; k <= 38; ++k) {
    p *= 10;
    ids.push_back(p - 1);
    ids.push_back(p);
  }
  return ids;
}

/// 0, 10^k - 1 and 10^k for every k <= 19, and 2^64 - 1.
std::vector<std::uint64_t> boundary_u64s() {
  std::vector<std::uint64_t> values = {
      0, std::numeric_limits<std::uint64_t>::max()};
  std::uint64_t p = 1;
  for (int k = 1; k <= 19; ++k) {
    p *= 10;
    values.push_back(p - 1);
    values.push_back(p);
  }
  return values;
}

std::vector<std::string> boundary_strings() {
  std::vector<std::string> out;
  for (std::size_t n : {0, 9, 10, 99, 100, 65536})
    out.emplace_back(n, 'x');
  return out;
}

std::vector<double> boundary_doubles() {
  using L = std::numeric_limits<double>;
  return {0.0,          -0.0,           L::infinity(),    -L::infinity(),
          L::quiet_NaN(), L::denorm_min(), -L::denorm_min(), L::min(),
          L::max(),     L::lowest(),    -1234.5625};
}

TEST(MessageSize, IdBoundariesAreSizedExactly) {
  for (const u128 id : boundary_ids()) {
    const std::string what = to_string(id);
    msg::ResolveRequest r = sample_resolve();
    r.at = id;
    r.clusters.clusters.push_back({id, 0});
    expect_exact_size(msg::Message{r}, what);

    msg::ClusterDispatch d = sample_dispatch();
    d.from = id;
    d.to = id;
    d.head.prefix = id;
    expect_exact_size(msg::Message{d}, what);

    msg::ScanRequest s = sample_scan();
    s.at = id;
    s.segment = {id, id};
    expect_exact_size(msg::Message{s}, what);

    msg::Reply reply = sample_aggregate_reply();
    reply.from = id;
    reply.to = id;
    expect_exact_size(msg::Message{reply}, what);

    msg::PublishRequest p = sample_publish();
    p.origin = id;
    p.to = id;
    expect_exact_size(msg::Message{p}, what);
  }
}

TEST(MessageSize, IntegerFieldBoundariesAreSizedExactly) {
  for (const std::uint64_t v : boundary_u64s()) {
    const std::string what = std::to_string(v);
    msg::PublishRequest p = sample_publish();
    p.seq = v;
    expect_exact_size(msg::Message{p}, what);

    msg::Reply reply = sample_reply();
    reply.query = v;
    reply.count = v;
    expect_exact_size(msg::Message{reply}, what);

    msg::ScanRequest s = sample_scan();
    s.query = v;
    s.replica = v;
    s.slot = static_cast<std::uint32_t>(v);
    s.agg.dim = static_cast<std::uint32_t>(v);
    s.agg.k = static_cast<std::uint32_t>(v);
    expect_exact_size(msg::Message{s}, what);

    msg::ResolveRequest r = sample_resolve();
    r.clusters.clusters.push_back({0, static_cast<unsigned>(v)});
    expect_exact_size(msg::Message{r}, what);
  }
  // Signed event/span ids, down to INT32_MIN.
  using I = std::numeric_limits<std::int32_t>;
  for (const std::int32_t id : {I::min(), I::min() + 1, -1000000000, -10, -9,
                                -1, 0, 9, 10, I::max()}) {
    const std::string what = std::to_string(id);
    msg::ClusterDispatch d = sample_dispatch();
    d.event = id;
    d.span = id;
    expect_exact_size(msg::Message{d}, what);
    msg::RetractRequest r = sample_retract();
    r.event = id;
    r.span = id;
    expect_exact_size(msg::Message{r}, what);
  }
}

TEST(MessageSize, StringsAndNumericTokensAreSizedExactly) {
  for (const std::string& text : boundary_strings()) {
    const std::string what = "length " + std::to_string(text.size());
    msg::PublishRequest p = sample_publish();
    p.element = DataElement{text, {text, 1.0, text}};
    expect_exact_size(msg::Message{p}, what);

    msg::Reply reply = sample_reply();
    reply.elements.push_back(DataElement{text, {text}});
    expect_exact_size(msg::Message{reply}, what);

    msg::Reply agg = sample_aggregate_reply();
    AggregatePartial partial = *agg.aggregate;
    partial.groups.push_back({"h" + text, 3});
    partial.top.push_back({-5.0, text});
    agg.aggregate = std::make_shared<const AggregatePartial>(partial);
    expect_exact_size(msg::Message{agg}, what);
  }
  for (const double v : boundary_doubles()) {
    msg::RetractRequest r = sample_retract();
    r.element.keys = {v, std::string("w"), v};
    expect_exact_size(msg::Message{r}, std::to_string(v));
  }
}

TEST(MessageSize, EveryAggregateKindPartialIsSizedExactly) {
  for (AggregateKind kind :
       {AggregateKind::kNone, AggregateKind::kCount, AggregateKind::kSum,
        AggregateKind::kMin, AggregateKind::kMax, AggregateKind::kGroupBy,
        AggregateKind::kTopK}) {
    AggregateSpec spec;
    spec.kind = kind;
    spec.dim = kind == AggregateKind::kGroupBy ? 0 : 1;
    spec.k = kind == AggregateKind::kTopK ? 2 : 0;
    AggregatePartial partial = make_partial(spec);
    for (const double v : {0.1, -1e300, 5e-324, 7.0})
      partial.fold(DataElement{"e" + std::to_string(v), {std::string("g"), v}});
    msg::Reply reply;
    reply.query = 0;
    reply.from = 11;
    reply.to = ~u128{0};
    reply.count = partial.count;
    reply.aggregate = std::make_shared<const AggregatePartial>(partial);
    expect_exact_size(msg::Message{reply}, aggregate_kind_name(kind));
    EXPECT_EQ(reply_wire_size(reply.from, reply.to, reply.count, 0, 0,
                              reply.aggregate.get()),
              wire_size(msg::Message{reply}))
        << aggregate_kind_name(kind);
  }
}

TEST(MessageSize, ReplyWireSizeEqualsTheEquivalentReply) {
  std::vector<std::vector<DataElement>> payloads = {
      {}, sample_reply().elements, {sample_publish().element}};
  for (const std::string& text : boundary_strings())
    payloads.push_back({DataElement{text, {text, 2.5}}});
  const auto aggregate = sample_aggregate_reply().aggregate;
  for (const u128 id : boundary_ids()) {
    for (const auto& elements : payloads) {
      for (const bool with_aggregate : {false, true}) {
        msg::Reply reply; // query 0, complete: the accounting frame
        reply.from = id;
        reply.to = ~id;
        reply.count = static_cast<std::uint64_t>(id);
        reply.elements = elements;
        if (with_aggregate) reply.aggregate = aggregate;
        std::size_t payload = 0;
        for (const DataElement& e : elements) payload += element_wire_size(e);
        EXPECT_EQ(reply_wire_size(reply.from, reply.to, reply.count,
                                  elements.size(), payload,
                                  reply.aggregate.get()),
                  wire_size(msg::Message{reply}))
            << to_string(id);
        expect_exact_size(msg::Message{reply}, to_string(id));
      }
    }
  }
}

TEST(MessageSize, UpdateWireSizeEqualsTheBuiltFrame) {
  for (const u128 id : boundary_ids()) {
    for (const std::uint64_t seq : {std::uint64_t{0}, std::uint64_t{9},
                                    std::numeric_limits<std::uint64_t>::max()}) {
      msg::PublishRequest p;
      p.seq = seq;
      p.origin = id;
      p.to = ~id;
      p.element = sample_publish().element;
      EXPECT_EQ(update_wire_size(UpdateOp::Kind::kPublish, p.seq, p.origin,
                                 p.to, p.element),
                wire_size(msg::Message{p}));
      msg::RetractRequest r;
      r.seq = seq;
      r.origin = id;
      r.to = ~id;
      r.element = sample_retract().element;
      EXPECT_EQ(update_wire_size(UpdateOp::Kind::kRetract, r.seq, r.origin,
                                 r.to, r.element),
                wire_size(msg::Message{r}));
    }
  }
}

} // namespace
} // namespace squid::core
