// Wire round-trips for the query runtime's typed messages (DESIGN.md 4e):
// every msg::Message alternative must survive save_message -> load_message
// bit-exactly, and every truncated or corrupted frame must fail loudly
// (std::invalid_argument) instead of yielding a half-parsed message.

#include <gtest/gtest.h>

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

constexpr u128 kHuge = ~u128{0}; // exercise the full 128-bit range

msg::ResolveRequest sample_resolve() {
  msg::ResolveRequest r;
  r.query = 0xfeedface01234567ull;
  r.at = kHuge - 5;
  r.clusters.clusters = {{0, 0}, {kHuge >> 1, 63}, {42, 7}};
  r.event = 12;
  r.span = -1;
  return r;
}

msg::ClusterDispatch sample_dispatch() {
  msg::ClusterDispatch d;
  d.query = 1;
  d.from = 17;
  d.to = kHuge;
  d.head = {kHuge - 1, 128};
  d.batch.clusters = {{3, 2}, {9, 4}};
  d.event = 3;
  d.span = 44;
  return d;
}

msg::ScanRequest sample_scan() {
  msg::ScanRequest s;
  s.query = 0;
  s.at = 99;
  s.segment = {kHuge / 3, kHuge / 2};
  s.covered = true;
  s.agg.kind = AggregateKind::kTopK;
  s.agg.dim = 1;
  s.agg.k = 8;
  s.agg.largest = false;
  s.slot = 41;
  s.event = 0;
  s.span = -1;
  return s;
}

msg::Reply sample_reply() {
  msg::Reply r;
  r.query = 7;
  r.from = 5;
  r.to = 6;
  r.complete = false;
  r.count = 1234;
  r.elements = {DataElement{"alpha", {"ab", "cd"}},
                DataElement{"with space", {"", "x y z"}}};
  return r;
}

/// A reply carrying an aggregate partial with every field populated —
/// non-trivial ExactSum limbs, extremes, groups, and a sorted top list.
msg::Reply sample_aggregate_reply() {
  AggregateSpec spec;
  spec.kind = AggregateKind::kTopK;
  spec.dim = 1;
  spec.k = 3;
  spec.largest = true;
  AggregatePartial partial = make_partial(spec);
  partial.fold(DataElement{"a", {std::string("x"), 0.1}});
  partial.fold(DataElement{"b", {std::string("y"), -1e300}});
  partial.fold(DataElement{"c", {std::string("z"), 5e-324}});
  partial.fold(DataElement{"d", {std::string("w"), 0.1}}); // value tie
  partial.sum.add(0.2); // desync sum from the folds: arbitrary limbs ship
  partial.has_extremes = true;
  partial.min = -1e300;
  partial.max = 0.1;
  partial.groups = {{"g/a", 2}, {"g/b", 7}};

  msg::Reply r;
  r.query = 9;
  r.from = kHuge - 2;
  r.to = 1;
  r.complete = true;
  r.count = partial.count;
  r.aggregate = std::make_shared<const AggregatePartial>(std::move(partial));
  return r;
}

/// Update frames (DESIGN.md 4j) with both token flavors: an exact-binary
/// awkward double (negative, non-representable decimal) and strings with
/// spaces, so the element codec — not just the header — is exercised.
msg::PublishRequest sample_publish() {
  msg::PublishRequest p;
  p.seq = 0xdeadbeef01234567ull;
  p.origin = kHuge - 3;
  p.to = 7;
  p.element = DataElement{"obj 42", {-1234.5625, std::string("a b c")}};
  p.event = 5;
  p.span = -1;
  return p;
}

msg::RetractRequest sample_retract() {
  msg::RetractRequest r;
  r.seq = 1;
  r.origin = 0;
  r.to = kHuge;
  r.element = DataElement{"", {std::string(""), 0.1}};
  r.event = 0;
  r.span = 12;
  return r;
}

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
  const std::vector<msg::Message> all = {
      msg::Message{sample_resolve()},         msg::Message{sample_dispatch()},
      msg::Message{sample_scan()},            msg::Message{sample_reply()},
      msg::Message{sample_aggregate_reply()}, msg::Message{sample_publish()},
      msg::Message{sample_retract()}};
  for (const msg::Message& message : all) {
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
  const std::vector<msg::Message> all = {
      msg::Message{sample_resolve()},         msg::Message{sample_dispatch()},
      msg::Message{sample_scan()},            msg::Message{sample_reply()},
      msg::Message{sample_aggregate_reply()}, msg::Message{sample_publish()},
      msg::Message{sample_retract()}};
  for (const msg::Message& message : all) {
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

} // namespace
} // namespace squid::core
