// The seven sample frames shared by the message codec suites
// (message_serialize_test, message_fuzz_test): one per msg::Message
// alternative, plus a reply carrying an aggregate partial. Between them they
// populate every field the codec writes.

#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "squid/core/messages.hpp"
#include "squid/util/u128.hpp"

namespace squid::core::samples {

inline constexpr u128 kHuge = ~u128{0}; // exercise the full 128-bit range

inline msg::ResolveRequest sample_resolve() {
  msg::ResolveRequest r;
  r.query = 0xfeedface01234567ull;
  r.at = kHuge - 5;
  r.clusters.clusters = {{0, 0}, {kHuge >> 1, 63}, {42, 7}};
  r.event = 12;
  r.span = -1;
  return r;
}

inline msg::ClusterDispatch sample_dispatch() {
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

inline msg::ScanRequest sample_scan() {
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

inline msg::Reply sample_reply() {
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
inline msg::Reply sample_aggregate_reply() {
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
inline msg::PublishRequest sample_publish() {
  msg::PublishRequest p;
  p.seq = 0xdeadbeef01234567ull;
  p.origin = kHuge - 3;
  p.to = 7;
  p.element = DataElement{"obj 42", {-1234.5625, std::string("a b c")}};
  p.event = 5;
  p.span = -1;
  return p;
}

inline msg::RetractRequest sample_retract() {
  msg::RetractRequest r;
  r.seq = 1;
  r.origin = 0;
  r.to = kHuge;
  r.element = DataElement{"", {std::string(""), 0.1}};
  r.event = 0;
  r.span = 12;
  return r;
}

/// All seven, in msg::Message alternative order (the aggregate reply
/// follows the plain one).
inline std::vector<msg::Message> all_samples() {
  return {msg::Message{sample_resolve()},         msg::Message{sample_dispatch()},
          msg::Message{sample_scan()},            msg::Message{sample_reply()},
          msg::Message{sample_aggregate_reply()}, msg::Message{sample_publish()},
          msg::Message{sample_retract()}};
}

} // namespace squid::core::samples
