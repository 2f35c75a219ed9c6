#include "squid/core/serialize.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <tuple>
#include <utility>

#include "squid/util/require.hpp"

namespace squid::core {

namespace {

constexpr const char* kMagic = "SQUID-SNAPSHOT-1";

void write_string(std::ostream& out, const std::string& s) {
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

u128 read_id(std::istream& in) {
  std::string text;
  in >> text;
  SQUID_REQUIRE(in && !text.empty(), "message: truncated id");
  return parse_u128(text);
}

void write_cluster(std::ostream& out, const sfc::ClusterNode& cluster) {
  out << to_string(cluster.prefix) << ' ' << cluster.level;
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

/// Reply frame body shared by save_message and reply_wire_size; the element
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

/// Output streambuf that only counts. tellp works on it (seekoff answers
/// the (0, cur) probe), which keeps save_message's size computation from
/// recursing into wire_size.
class CountingBuf final : public std::streambuf {
public:
  std::size_t count() const noexcept { return count_; }
  void reset() noexcept { count_ = 0; }

protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++count_;
    return ch;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    count_ += static_cast<std::size_t>(n);
    return n;
  }
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode) override {
    if (off == 0 && dir == std::ios_base::cur)
      return pos_type(static_cast<std::streamoff>(count_));
    return pos_type(off_type(-1));
  }

private:
  std::size_t count_ = 0;
};

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
  CountingBuf buf;
  std::ostream out(&buf);
  save_message(message, out);
  return buf.count();
}

std::size_t element_wire_size(const DataElement& element) {
  thread_local CountingBuf buf;
  thread_local std::ostream out(&buf);
  buf.reset();
  write_element(out, element);
  return buf.count() + 1; // trailing newline
}

std::size_t reply_wire_size(overlay::NodeId from, overlay::NodeId to,
                            std::uint64_t count, std::size_t elements,
                            std::size_t payload_bytes,
                            const AggregatePartial* aggregate) {
  CountingBuf buf;
  std::ostream out(&buf);
  msg::Reply reply;
  reply.query = 0; // canonical accounting id
  reply.from = from;
  reply.to = to;
  reply.complete = true;
  reply.count = count;
  if (aggregate != nullptr)
    reply.aggregate = std::shared_ptr<const AggregatePartial>(
        std::shared_ptr<const void>(), aggregate);
  out << kMsgMagic << ' ' << "reply" << '\n';
  write_reply_header(out, reply, elements);
  return buf.count() + payload_bytes;
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
    sys.add_node_at(parse_u128(id_text));
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
