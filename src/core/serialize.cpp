#include "squid/core/serialize.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "squid/util/require.hpp"

namespace squid::core {

namespace {

constexpr const char* kMagic = "SQUID-SNAPSHOT-1";

// --- One encoder, two sinks -------------------------------------------------
// Every frame layout below is written once, as a template over its output.
// save_message and save_snapshot run it on a StreamSink; byte accounting
// (wire_size, element_wire_size, reply_wire_size, update_wire_size) runs
// the same code on a SizeSink, which adds up the text length of each field
// without formatting it. The two can only disagree if a sink does.

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

/// Writes fields to an std::ostream; u128 ids print as decimal text.
struct StreamSink {
  std::ostream& out;
  template <class T> StreamSink& operator<<(const T& v) {
    out << v;
    return *this;
  }
  StreamSink& operator<<(u128 v) {
    out << to_string(v);
    return *this;
  }
};

/// Counts the bytes a StreamSink would write for the same fields.
struct SizeSink {
  std::size_t bytes = 0;
  SizeSink& operator<<(char) {
    ++bytes;
    return *this;
  }
  SizeSink& operator<<(std::string_view s) {
    bytes += s.size();
    return *this;
  }
  SizeSink& operator<<(u128 v) {
    bytes += u128_digits(v);
    return *this;
  }
  template <class T>
  std::enable_if_t<std::is_integral_v<T>, SizeSink&> operator<<(T v) {
    if constexpr (std::is_signed_v<T>) {
      if (v < 0) {
        bytes += 1 + u64_digits(0 - static_cast<std::uint64_t>(v));
        return *this;
      }
    }
    bytes += u64_digits(static_cast<std::uint64_t>(v));
    return *this;
  }
};

template <class Out> void write_string(Out& out, const std::string& s) {
  out << s.size() << ':' << s;
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
template <class Out> void write_frame_header(Out& out, std::string_view type) {
  out << kMsgMagic << ' ' << type << '\n';
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

template <class Out>
void write_cluster(Out& out, const sfc::ClusterNode& cluster) {
  out << cluster.prefix << ' ' << cluster.level;
}

sfc::ClusterNode read_cluster(std::istream& in) {
  const u128 prefix = read_id(in);
  unsigned level = 0;
  in >> level;
  SQUID_REQUIRE(in, "message: truncated cluster");
  return {prefix, level};
}

template <class Out>
void write_batch(Out& out, const msg::AggregateBatch& batch) {
  out << batch.clusters.size();
  for (const auto& cluster : batch.clusters) {
    out << ' ';
    write_cluster(out, cluster);
  }
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

// Doubles travel as their raw IEEE bit patterns (decimal uint64). Aggregate
// partials then round-trip bit-exactly, and so do numeric tokens: element
// identity is (key, name) and keys come from the tokens, so a routed retract
// whose double wobbled by one ulp in transit would silently miss the stored
// element.

std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

double bits_double(std::istream& in, const char* what) {
  std::uint64_t bits = 0;
  in >> bits;
  SQUID_REQUIRE(in, what);
  return std::bit_cast<double>(bits);
}

template <class Out> void write_element(Out& out, const DataElement& element) {
  write_string(out, element.name);
  out << ' ' << element.keys.size();
  for (const auto& token : element.keys) {
    if (const auto* word = std::get_if<std::string>(&token)) {
      out << " s";
      write_string(out, *word);
    } else {
      out << " n" << double_bits(std::get<double>(token));
    }
  }
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
          bits_double(in, "message: malformed numeric token"));
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
// The ExactSum superaccumulator travels as its nonzero limbs.

template <class Out> void write_spec(Out& out, const AggregateSpec& spec) {
  out << static_cast<unsigned>(spec.kind) << ' ' << spec.dim << ' ' << spec.k
      << ' ' << (spec.largest ? 1 : 0);
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

template <class Out>
void write_partial(Out& out, const AggregatePartial& partial) {
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

/// Reply frame body up to its payload lines. Takes fields rather than a
/// Reply so accounting frames are sized without building one: the element
/// count stands in for the elements they would carry.
template <class Out>
void write_reply_header(Out& out, std::uint64_t query, overlay::NodeId from,
                        overlay::NodeId to, bool complete, std::uint64_t count,
                        std::size_t element_count,
                        const AggregatePartial* aggregate) {
  out << query << ' ' << from << ' ' << to << ' ' << (complete ? 1 : 0) << ' '
      << count << ' ' << element_count << ' ' << (aggregate ? 1 : 0);
  if (aggregate) {
    out << ' ';
    write_partial(out, *aggregate);
  }
  out << '\n';
}

/// Body of a publish or retract frame: `seq origin to element event span`.
template <class Out>
void write_update(Out& out, std::uint64_t seq, overlay::NodeId origin,
                  overlay::NodeId to, const DataElement& element,
                  std::int32_t event, std::int32_t span) {
  out << seq << ' ' << origin << ' ' << to << ' ';
  write_element(out, element);
  out << ' ' << event << ' ' << span << '\n';
}

template <class Out> void write_message(Out& out, const msg::Message& message) {
  write_frame_header(out, msg::type_name(message));
  struct Writer {
    Out& out;
    void operator()(const msg::ResolveRequest& r) const {
      out << r.query << ' ' << r.at << ' ';
      write_batch(out, r.clusters);
      out << ' ' << r.event << ' ' << r.span << '\n';
    }
    void operator()(const msg::ClusterDispatch& d) const {
      out << d.query << ' ' << d.from << ' ' << d.to << ' ';
      write_cluster(out, d.head);
      out << ' ';
      write_batch(out, d.batch);
      out << ' ' << d.event << ' ' << d.span << '\n';
    }
    void operator()(const msg::ScanRequest& s) const {
      out << s.query << ' ' << s.at << ' ' << s.segment.lo << ' '
          << s.segment.hi << ' ' << (s.covered ? 1 : 0) << ' ';
      write_spec(out, s.agg);
      out << ' ' << s.slot << ' ' << s.event << ' ' << s.span << ' '
          << s.replica << '\n';
    }
    void operator()(const msg::Reply& r) const {
      write_reply_header(out, r.query, r.from, r.to, r.complete, r.count,
                         r.elements.size(), r.aggregate.get());
      for (const auto& element : r.elements) {
        write_element(out, element);
        out << '\n';
      }
    }
    void operator()(const msg::PublishRequest& p) const {
      write_update(out, p.seq, p.origin, p.to, p.element, p.event, p.span);
    }
    void operator()(const msg::RetractRequest& r) const {
      write_update(out, r.seq, r.origin, r.to, r.element, r.event, r.span);
    }
  };
  std::visit(Writer{out}, message);
}

} // namespace

std::size_t save_message(const msg::Message& message, std::ostream& out) {
  StreamSink sink{out};
  write_message(sink, message);
  return wire_size(message);
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
  SizeSink size;
  write_message(size, message);
  return size.bytes;
}

std::size_t element_wire_size(const DataElement& element) {
  SizeSink size;
  write_element(size, element);
  return size.bytes + 1; // trailing newline
}

std::size_t reply_wire_size(overlay::NodeId from, overlay::NodeId to,
                            std::uint64_t count, std::size_t elements,
                            std::size_t payload_bytes,
                            const AggregatePartial* aggregate) {
  SizeSink size;
  write_frame_header(size, "reply");
  write_reply_header(size, /*query=*/0, from, to, /*complete=*/true, count,
                     elements, aggregate);
  return size.bytes + payload_bytes;
}

std::size_t update_wire_size(UpdateOp::Kind kind, std::uint64_t seq,
                             overlay::NodeId origin, overlay::NodeId to,
                             const DataElement& element) {
  SizeSink size;
  write_frame_header(size, kind == UpdateOp::Kind::kPublish ? "publish"
                                                            : "retract");
  write_update(size, seq, origin, to, element, /*event=*/0, /*span=*/-1);
  return size.bytes;
}

void save_snapshot(const SquidSystem& sys, std::ostream& out) {
  out << kMagic << '\n';
  out << sys.curve().name() << ' ' << sys.space().dims() << ' '
      << sys.space().bits_per_dim() << '\n';

  const auto ids = sys.ring().node_ids();
  out << ids.size() << '\n';
  for (const auto id : ids) out << to_string(id) << '\n';

  out << sys.element_count() << '\n';
  StreamSink sink{out};
  sys.for_each_key([&](u128, const sfc::Point&,
                       const std::vector<DataElement>& elements) {
    for (const auto& element : elements) {
      write_element(sink, element);
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
    const DataElement element = read_element(in);
    SQUID_REQUIRE(element.keys.size() == dims,
                  "snapshot: element arity mismatch");
    sys.publish(element);
  }
  sys.repair_routing();
}

} // namespace squid::core
