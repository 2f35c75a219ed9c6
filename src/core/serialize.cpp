#include "squid/core/serialize.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <utility>

#include "squid/util/require.hpp"

namespace squid::core {

namespace {

constexpr const char* kMagic = "SQUID-SNAPSHOT-1";

// --- Closed-form sizes -------------------------------------------------------
// Byte accounting (wire_size, element_wire_size, reply_wire_size,
// update_wire_size) never runs a writer. Each writer below has a *_size twin
// beside it that adds up the text lengths of the same fields in the same
// order, so a size costs a few digit counts instead of a formatted stream.
// The serializer tests hold every twin to the bytes save_message writes, on
// fixed samples, on boundary values and on fuzzed frames.

template <class T, std::size_t N> constexpr std::array<T, N> powers_of_ten() {
  std::array<T, N> p{};
  p[0] = 1;
  for (std::size_t i = 1; i < N; ++i) p[i] = p[i - 1] * 10;
  return p;
}

constexpr auto kPow10 = powers_of_ten<std::uint64_t, 20>();  // up to 10^19
constexpr auto kPow10Wide = powers_of_ten<u128, 39>();       // up to 10^38

// Decimal digit counts. For a value of bit width w, floor(w * log10(2)) --
// w * 1233 >> 12 -- is the digit count or one less; one table compare
// settles which. `v | 1` has the digit count of `v` and keeps 0 at width 1.

std::size_t u64_digits(std::uint64_t v) {
  v |= 1;
  const int t = ((64 - std::countl_zero(v)) * 1233) >> 12;
  return static_cast<std::size_t>(t) + (v >= kPow10[t] ? 1 : 0);
}

/// Values below 2^64 take the 64-bit count; wider ones (at least 20 digits,
/// since 2^64 > 10^19) compare against the 128-bit table.
std::size_t u128_digits(u128 v) {
  const std::uint64_t hi = hi64(v);
  if (hi == 0) return u64_digits(lo64(v));
  const int t = ((128 - std::countl_zero(hi)) * 1233) >> 12;
  return static_cast<std::size_t>(t) + (v >= kPow10Wide[t] ? 1 : 0);
}

/// Signed event/span ids: a '-' plus the magnitude's digits.
std::size_t i32_digits(std::int32_t v) {
  const std::int64_t wide = v;
  return v < 0 ? 1 + u64_digits(static_cast<std::uint64_t>(-wide))
               : u64_digits(static_cast<std::uint64_t>(wide));
}

void write_string(std::ostream& out, const std::string& s) {
  out << s.size() << ':' << s;
}

std::size_t string_size(const std::string& s) {
  return u64_digits(s.size()) + 1 + s.size();
}

// Length prefixes and element counts come off the wire unvalidated, so no
// allocation is sized from one: vectors grow as items actually decode and
// strings grow in bounded chunks. A corrupt frame claiming 10^17 elements
// then fails at its first missing item with std::invalid_argument, not
// std::bad_alloc.

std::string read_string(std::istream& in) {
  std::size_t length = 0;
  char colon = 0;
  in >> length >> colon;
  SQUID_REQUIRE(in && colon == ':', "snapshot: malformed string header");
  // Grow in bounded chunks, so the allocation never outruns the bytes that
  // actually arrive; a string of up to 64 KiB takes one chunk, as a single
  // sized read did.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::string s;
  while (s.size() < length) {
    const std::size_t at = s.size();
    const std::size_t take = std::min(kChunk, length - at);
    s.resize(at + take);
    in.read(s.data() + at, static_cast<std::streamsize>(take));
    SQUID_REQUIRE(in, "snapshot: truncated string");
  }
  return s;
}

// --- Query-message encoding (core/messages.hpp) ----------------------------
// Same text conventions as snapshots: whitespace-separated fields, decimal
// u128 ids, length-prefixed strings. Every read is checked so truncated
// input throws instead of yielding a half-built message.

constexpr const char* kMsgMagic = "SQUID-MSG-1";

/// Frame header: `SQUID-MSG-1 <type>\n`.
std::size_t frame_header_size(std::string_view type) {
  return std::string_view(kMsgMagic).size() + 1 + type.size() + 1;
}

/// parse_u128 for decoders, whose contract is std::invalid_argument only:
/// an id with too many digits is a malformed frame like any other.
u128 parse_id(const std::string& text, const char* what) {
  try {
    return parse_u128(text);
  } catch (const std::out_of_range&) {
    SQUID_REQUIRE(false, what);
  }
  return 0; // unreachable: SQUID_REQUIRE(false) throws
}

u128 read_id(std::istream& in) {
  std::string text;
  in >> text;
  SQUID_REQUIRE(in && !text.empty(), "message: truncated id");
  return parse_id(text, "message: id out of range");
}

void write_cluster(std::ostream& out, const sfc::ClusterNode& cluster) {
  out << to_string(cluster.prefix) << ' ' << cluster.level;
}

std::size_t cluster_size(const sfc::ClusterNode& cluster) {
  return u128_digits(cluster.prefix) + 1 + u64_digits(cluster.level);
}

sfc::ClusterNode read_cluster(std::istream& in) {
  const u128 prefix = read_id(in);
  unsigned level = 0;
  in >> level;
  SQUID_REQUIRE(in, "message: truncated cluster");
  return {prefix, level};
}

void write_batch(std::ostream& out, const msg::AggregateBatch& batch) {
  out << batch.clusters.size();
  for (const auto& cluster : batch.clusters) {
    out << ' ';
    write_cluster(out, cluster);
  }
}

std::size_t batch_size(const msg::AggregateBatch& batch) {
  std::size_t n = u64_digits(batch.clusters.size());
  for (const auto& cluster : batch.clusters) n += 1 + cluster_size(cluster);
  return n;
}

msg::AggregateBatch read_batch(std::istream& in) {
  std::size_t count = 0;
  in >> count;
  SQUID_REQUIRE(in, "message: truncated batch");
  msg::AggregateBatch batch;
  for (std::size_t i = 0; i < count; ++i)
    batch.clusters.push_back(read_cluster(in));
  return batch;
}

// Numeric tokens travel as their raw IEEE bit patterns (decimal uint64,
// same convention as aggregate partials below): element identity is (key,
// name) and keys come from the tokens, so a routed retract whose double
// wobbled by one ulp in transit would silently miss the stored element.
std::uint64_t token_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

double token_double(std::istream& in, const char* what) {
  std::uint64_t bits = 0;
  in >> bits;
  SQUID_REQUIRE(in, what);
  return std::bit_cast<double>(bits);
}

void write_element(std::ostream& out, const DataElement& element) {
  write_string(out, element.name);
  out << ' ' << element.keys.size();
  for (const auto& token : element.keys) {
    if (const auto* word = std::get_if<std::string>(&token)) {
      out << " s";
      write_string(out, *word);
    } else {
      out << " n" << token_bits(std::get<double>(token));
    }
  }
}

std::size_t element_size(const DataElement& element) {
  std::size_t n = string_size(element.name) + 1 + u64_digits(element.keys.size());
  for (const auto& token : element.keys) {
    const auto* word = std::get_if<std::string>(&token);
    n += 2 + (word != nullptr ? string_size(*word)
                              : u64_digits(token_bits(std::get<double>(token))));
  }
  return n;
}

DataElement read_element(std::istream& in) {
  DataElement element;
  element.name = read_string(in);
  std::size_t token_count = 0;
  in >> token_count;
  SQUID_REQUIRE(in, "message: truncated element");
  for (std::size_t t = 0; t < token_count; ++t) {
    char kind = 0;
    in >> kind;
    SQUID_REQUIRE(in, "message: truncated token");
    if (kind == 's') {
      element.keys.emplace_back(read_string(in));
    } else if (kind == 'n') {
      element.keys.emplace_back(
          token_double(in, "message: malformed numeric token"));
    } else {
      SQUID_REQUIRE(false, "message: unknown token kind");
    }
  }
  return element;
}

/// Read `event span` — the trailing bookkeeping pair every request carries.
std::pair<std::int32_t, std::int32_t> read_ids(std::istream& in) {
  std::int32_t event = 0, span = 0;
  in >> event >> span;
  SQUID_REQUIRE(in, "message: truncated event/span ids");
  return {event, span};
}

// --- Aggregate spec / partial encoding (core/aggregate.hpp) -----------------
// Doubles inside partials travel as their raw bit patterns (decimal uint64)
// so pushdown results round-trip bit-exactly; the ExactSum superaccumulator
// travels as its nonzero limbs.

std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

double bits_double(std::istream& in, const char* what) {
  std::uint64_t bits = 0;
  in >> bits;
  SQUID_REQUIRE(in, what);
  return std::bit_cast<double>(bits);
}

void write_spec(std::ostream& out, const AggregateSpec& spec) {
  out << static_cast<unsigned>(spec.kind) << ' ' << spec.dim << ' ' << spec.k
      << ' ' << (spec.largest ? 1 : 0);
}

std::size_t spec_size(const AggregateSpec& spec) {
  return u64_digits(static_cast<unsigned>(spec.kind)) + 1 +
         u64_digits(spec.dim) + 1 + u64_digits(spec.k) + 2;
}

AggregateSpec read_spec(std::istream& in) {
  unsigned kind = 0;
  AggregateSpec spec;
  int largest = 0;
  in >> kind >> spec.dim >> spec.k >> largest;
  SQUID_REQUIRE(in, "message: truncated aggregate spec");
  SQUID_REQUIRE(kind <= static_cast<unsigned>(AggregateKind::kTopK),
                "message: unknown aggregate kind");
  spec.kind = static_cast<AggregateKind>(kind);
  spec.largest = largest != 0;
  return spec;
}

void write_partial(std::ostream& out, const AggregatePartial& partial) {
  write_spec(out, partial.spec);
  out << ' ' << partial.count;
  const auto& limbs = partial.sum.limbs();
  std::size_t nonzero = 0;
  for (const std::uint64_t limb : limbs)
    if (limb != 0) ++nonzero;
  out << ' ' << nonzero;
  for (std::size_t i = 0; i < limbs.size(); ++i)
    if (limbs[i] != 0) out << ' ' << i << ' ' << limbs[i];
  out << ' ' << (partial.has_extremes ? 1 : 0) << ' '
      << double_bits(partial.min) << ' ' << double_bits(partial.max);
  out << ' ' << partial.groups.size();
  for (const GroupCount& group : partial.groups) {
    out << ' ';
    write_string(out, group.key);
    out << ' ' << group.count;
  }
  out << ' ' << partial.top.size();
  for (const TopEntry& entry : partial.top) {
    out << ' ' << double_bits(entry.value) << ' ';
    write_string(out, entry.name);
  }
}

std::size_t partial_size(const AggregatePartial& partial) {
  std::size_t n = spec_size(partial.spec) + 1 + u64_digits(partial.count);
  const auto& limbs = partial.sum.limbs();
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    if (limbs[i] == 0) continue;
    ++nonzero;
    n += 2 + u64_digits(i) + u64_digits(limbs[i]);
  }
  n += 1 + u64_digits(nonzero);
  n += 4 + u64_digits(double_bits(partial.min)) +
       u64_digits(double_bits(partial.max));
  n += 1 + u64_digits(partial.groups.size());
  for (const GroupCount& group : partial.groups)
    n += 2 + string_size(group.key) + u64_digits(group.count);
  n += 1 + u64_digits(partial.top.size());
  for (const TopEntry& entry : partial.top)
    n += 2 + u64_digits(double_bits(entry.value)) + string_size(entry.name);
  return n;
}

AggregatePartial read_partial(std::istream& in) {
  AggregatePartial partial;
  partial.spec = read_spec(in);
  in >> partial.count;
  SQUID_REQUIRE(in, "message: truncated partial count");
  std::size_t nonzero = 0;
  in >> nonzero;
  SQUID_REQUIRE(in && nonzero <= ExactSum::kLimbs,
                "message: malformed partial sum");
  for (std::size_t i = 0; i < nonzero; ++i) {
    std::size_t index = 0;
    std::uint64_t limb = 0;
    in >> index >> limb;
    SQUID_REQUIRE(in && index < ExactSum::kLimbs,
                  "message: malformed partial sum limb");
    partial.sum.set_limb(index, limb);
  }
  int has_extremes = 0;
  in >> has_extremes;
  SQUID_REQUIRE(in, "message: truncated partial extremes");
  partial.has_extremes = has_extremes != 0;
  partial.min = bits_double(in, "message: truncated partial min");
  partial.max = bits_double(in, "message: truncated partial max");
  std::size_t group_count = 0;
  in >> group_count;
  SQUID_REQUIRE(in, "message: truncated partial group count");
  for (std::size_t i = 0; i < group_count; ++i) {
    GroupCount group;
    group.key = read_string(in);
    in >> group.count;
    SQUID_REQUIRE(in, "message: truncated partial group");
    SQUID_REQUIRE(partial.groups.empty() || partial.groups.back().key < group.key,
                  "message: partial groups out of order");
    partial.groups.push_back(std::move(group));
  }
  std::size_t top_count = 0;
  in >> top_count;
  SQUID_REQUIRE(in, "message: truncated partial top count");
  for (std::size_t i = 0; i < top_count; ++i) {
    TopEntry entry;
    entry.value = bits_double(in, "message: truncated top entry value");
    entry.name = read_string(in);
    SQUID_REQUIRE(
        partial.top.empty() ||
            !top_entry_before(partial.spec, entry, partial.top.back()),
        "message: partial top entries out of order");
    partial.top.push_back(std::move(entry));
  }
  return partial;
}

/// Reply frame body shared by save_message and wire_size; the element
/// count is a parameter so accounting frames can be sized without copying
/// the elements they would carry.
void write_reply_header(std::ostream& out, const msg::Reply& reply,
                        std::size_t element_count) {
  out << reply.query << ' ' << to_string(reply.from) << ' '
      << to_string(reply.to) << ' ' << (reply.complete ? 1 : 0) << ' '
      << reply.count << ' ' << element_count << ' '
      << (reply.aggregate ? 1 : 0);
  if (reply.aggregate) {
    out << ' ';
    write_partial(out, *reply.aggregate);
  }
  out << '\n';
}

std::size_t reply_header_size(std::uint64_t query, overlay::NodeId from,
                              overlay::NodeId to, std::uint64_t count,
                              std::size_t element_count,
                              const AggregatePartial* aggregate) {
  return u64_digits(query) + 1 + u128_digits(from) + 1 + u128_digits(to) +
         3 + u64_digits(count) + 1 + u64_digits(element_count) + 2 +
         (aggregate != nullptr ? 1 + partial_size(*aggregate) : 0) + 1;
}

/// Body of a publish or retract frame: `seq origin to element event span`.
std::size_t update_body_size(std::uint64_t seq, overlay::NodeId origin,
                             overlay::NodeId to, const DataElement& element,
                             std::int32_t event, std::int32_t span) {
  return u64_digits(seq) + 1 + u128_digits(origin) + 1 + u128_digits(to) +
         1 + element_size(element) + 1 + i32_digits(event) + 1 +
         i32_digits(span) + 1;
}

} // namespace

std::size_t save_message(const msg::Message& message, std::ostream& out) {
  const std::streampos start = out.tellp();
  out << kMsgMagic << ' ' << msg::type_name(message) << '\n';
  struct Writer {
    std::ostream& out;
    void operator()(const msg::ResolveRequest& r) const {
      out << r.query << ' ' << to_string(r.at) << ' ';
      write_batch(out, r.clusters);
      out << ' ' << r.event << ' ' << r.span << '\n';
    }
    void operator()(const msg::ClusterDispatch& d) const {
      out << d.query << ' ' << to_string(d.from) << ' ' << to_string(d.to)
          << ' ';
      write_cluster(out, d.head);
      out << ' ';
      write_batch(out, d.batch);
      out << ' ' << d.event << ' ' << d.span << '\n';
    }
    void operator()(const msg::ScanRequest& s) const {
      out << s.query << ' ' << to_string(s.at) << ' '
          << to_string(s.segment.lo) << ' ' << to_string(s.segment.hi) << ' '
          << (s.covered ? 1 : 0) << ' ';
      write_spec(out, s.agg);
      out << ' ' << s.slot << ' ' << s.event << ' ' << s.span << ' '
          << s.replica << '\n';
    }
    void operator()(const msg::Reply& r) const {
      write_reply_header(out, r, r.elements.size());
      for (const auto& element : r.elements) {
        write_element(out, element);
        out << '\n';
      }
    }
    void operator()(const msg::PublishRequest& p) const {
      out << p.seq << ' ' << to_string(p.origin) << ' ' << to_string(p.to)
          << ' ';
      write_element(out, p.element);
      out << ' ' << p.event << ' ' << p.span << '\n';
    }
    void operator()(const msg::RetractRequest& r) const {
      out << r.seq << ' ' << to_string(r.origin) << ' ' << to_string(r.to)
          << ' ';
      write_element(out, r.element);
      out << ' ' << r.event << ' ' << r.span << '\n';
    }
  };
  std::visit(Writer{out}, message);
  if (start != std::streampos(-1)) {
    const std::streampos end = out.tellp();
    if (end != std::streampos(-1))
      return static_cast<std::size_t>(end - start);
  }
  return wire_size(message); // `out` cannot report positions; measure apart
}

msg::Message load_message(std::istream& in, std::size_t* bytes_read) {
  const std::streampos start = in.tellg();
  std::string magic, type;
  in >> magic >> type;
  SQUID_REQUIRE(in && magic == kMsgMagic, "message: bad magic");
  std::uint64_t query = 0;
  in >> query;
  SQUID_REQUIRE(in, "message: truncated query id");
  msg::Message message;
  if (type == "resolve") {
    msg::ResolveRequest r;
    r.query = query;
    r.at = read_id(in);
    r.clusters = read_batch(in);
    std::tie(r.event, r.span) = read_ids(in);
    message = std::move(r);
  } else if (type == "dispatch") {
    msg::ClusterDispatch d;
    d.query = query;
    d.from = read_id(in);
    d.to = read_id(in);
    d.head = read_cluster(in);
    d.batch = read_batch(in);
    std::tie(d.event, d.span) = read_ids(in);
    message = std::move(d);
  } else if (type == "scan") {
    msg::ScanRequest s;
    s.query = query;
    s.at = read_id(in);
    s.segment.lo = read_id(in);
    s.segment.hi = read_id(in);
    int covered = 0;
    in >> covered;
    SQUID_REQUIRE(in, "message: truncated scan header");
    s.covered = covered != 0;
    s.agg = read_spec(in);
    in >> s.slot;
    SQUID_REQUIRE(in, "message: truncated scan slot");
    std::tie(s.event, s.span) = read_ids(in);
    in >> s.replica;
    SQUID_REQUIRE(in, "message: truncated scan replica id");
    message = std::move(s);
  } else if (type == "reply") {
    msg::Reply r;
    r.query = query;
    r.from = read_id(in);
    r.to = read_id(in);
    int complete = 0;
    std::size_t element_count = 0;
    int has_aggregate = 0;
    in >> complete >> r.count >> element_count >> has_aggregate;
    SQUID_REQUIRE(in, "message: truncated reply header");
    r.complete = complete != 0;
    if (has_aggregate != 0)
      r.aggregate = std::make_shared<const AggregatePartial>(read_partial(in));
    for (std::size_t i = 0; i < element_count; ++i)
      r.elements.push_back(read_element(in));
    message = std::move(r);
  } else if (type == "publish" || type == "retract") {
    // Twin layouts: `seq origin to element event span`. The leading u64 read
    // as `query` above is the update's submit sequence number.
    const std::uint64_t seq = query;
    const u128 origin = read_id(in);
    const u128 to = read_id(in);
    DataElement element = read_element(in);
    const auto [event, span] = read_ids(in);
    if (type == "publish") {
      msg::PublishRequest p;
      p.seq = seq;
      p.origin = origin;
      p.to = to;
      p.element = std::move(element);
      p.event = event;
      p.span = span;
      message = std::move(p);
    } else {
      msg::RetractRequest r;
      r.seq = seq;
      r.origin = origin;
      r.to = to;
      r.element = std::move(element);
      r.event = event;
      r.span = span;
      message = std::move(r);
    }
  } else {
    SQUID_REQUIRE(false, "message: unknown type tag");
  }
  // Consume the frame's trailing newline so byte accounting matches
  // save_message and back-to-back frames parse cleanly.
  if (in.peek() == '\n') in.get();
  if (bytes_read != nullptr) {
    *bytes_read = 0;
    if (start != std::streampos(-1)) {
      const std::streampos end = in.tellg();
      if (end != std::streampos(-1) && end >= start)
        *bytes_read = static_cast<std::size_t>(end - start);
    }
  }
  return message;
}

std::size_t wire_size(const msg::Message& message) {
  // Mirrors save_message's Writer field by field.
  struct Sizer {
    std::size_t operator()(const msg::ResolveRequest& r) const {
      return u64_digits(r.query) + 1 + u128_digits(r.at) + 1 +
             batch_size(r.clusters) + 1 + i32_digits(r.event) + 1 +
             i32_digits(r.span) + 1;
    }
    std::size_t operator()(const msg::ClusterDispatch& d) const {
      return u64_digits(d.query) + 1 + u128_digits(d.from) + 1 +
             u128_digits(d.to) + 1 + cluster_size(d.head) + 1 +
             batch_size(d.batch) + 1 + i32_digits(d.event) + 1 +
             i32_digits(d.span) + 1;
    }
    std::size_t operator()(const msg::ScanRequest& s) const {
      return u64_digits(s.query) + 1 + u128_digits(s.at) + 1 +
             u128_digits(s.segment.lo) + 1 + u128_digits(s.segment.hi) + 3 +
             spec_size(s.agg) + 1 + u64_digits(s.slot) + 1 +
             i32_digits(s.event) + 1 + i32_digits(s.span) + 1 +
             u64_digits(s.replica) + 1;
    }
    std::size_t operator()(const msg::Reply& r) const {
      std::size_t n = reply_header_size(r.query, r.from, r.to, r.count,
                                        r.elements.size(), r.aggregate.get());
      for (const auto& element : r.elements) n += element_size(element) + 1;
      return n;
    }
    std::size_t operator()(const msg::PublishRequest& p) const {
      return update_body_size(p.seq, p.origin, p.to, p.element, p.event,
                              p.span);
    }
    std::size_t operator()(const msg::RetractRequest& r) const {
      return update_body_size(r.seq, r.origin, r.to, r.element, r.event,
                              r.span);
    }
  };
  return frame_header_size(msg::type_name(message)) +
         std::visit(Sizer{}, message);
}

std::size_t element_wire_size(const DataElement& element) {
  return element_size(element) + 1; // trailing newline
}

std::size_t reply_wire_size(overlay::NodeId from, overlay::NodeId to,
                            std::uint64_t count, std::size_t elements,
                            std::size_t payload_bytes,
                            const AggregatePartial* aggregate) {
  return frame_header_size("reply") +
         reply_header_size(0, from, to, count, elements, aggregate) +
         payload_bytes;
}

std::size_t update_wire_size(UpdateOp::Kind kind, std::uint64_t seq,
                             overlay::NodeId origin, overlay::NodeId to,
                             const DataElement& element) {
  return frame_header_size(kind == UpdateOp::Kind::kPublish ? "publish"
                                                            : "retract") +
         update_body_size(seq, origin, to, element, /*event=*/0, /*span=*/-1);
}

void save_snapshot(const SquidSystem& sys, std::ostream& out) {
  out << kMagic << '\n';
  out << sys.curve().name() << ' ' << sys.space().dims() << ' '
      << sys.space().bits_per_dim() << '\n';

  const auto ids = sys.ring().node_ids();
  out << ids.size() << '\n';
  for (const auto id : ids) out << to_string(id) << '\n';

  out << sys.element_count() << '\n';
  sys.for_each_key([&](u128, const sfc::Point&,
                       const std::vector<DataElement>& elements) {
    for (const auto& element : elements) {
      write_element(out, element);
      out << '\n';
    }
  });
}

void load_snapshot(SquidSystem& sys, std::istream& in) {
  SQUID_REQUIRE(sys.ring().size() == 0 && sys.element_count() == 0,
                "snapshot must load into a fresh system");
  std::string magic;
  in >> magic;
  SQUID_REQUIRE(magic == kMagic, "snapshot: bad magic");
  std::string curve;
  unsigned dims = 0, bits = 0;
  in >> curve >> dims >> bits;
  SQUID_REQUIRE(curve == sys.curve().name(), "snapshot: curve mismatch");
  SQUID_REQUIRE(dims == sys.space().dims(), "snapshot: dimension mismatch");
  SQUID_REQUIRE(bits == sys.space().bits_per_dim(),
                "snapshot: resolution mismatch");

  std::size_t node_count = 0;
  in >> node_count;
  SQUID_REQUIRE(in && node_count >= 1, "snapshot: bad node count");
  for (std::size_t i = 0; i < node_count; ++i) {
    std::string id_text;
    in >> id_text;
    sys.add_node_at(parse_id(id_text, "snapshot: node id out of range"));
  }

  std::size_t element_count = 0;
  in >> element_count;
  SQUID_REQUIRE(in, "snapshot: bad element count");
  for (std::size_t i = 0; i < element_count; ++i) {
    DataElement element;
    element.name = read_string(in);
    std::size_t token_count = 0;
    in >> token_count;
    SQUID_REQUIRE(in && token_count == dims,
                  "snapshot: element arity mismatch");
    for (std::size_t t = 0; t < token_count; ++t) {
      char kind = 0;
      in >> kind;
      if (kind == 's') {
        element.keys.emplace_back(read_string(in));
      } else if (kind == 'n') {
        element.keys.emplace_back(
            token_double(in, "snapshot: malformed numeric token"));
      } else {
        SQUID_REQUIRE(false, "snapshot: unknown token kind");
      }
    }
    sys.publish(element);
  }
  sys.repair_routing();
}

} // namespace squid::core
