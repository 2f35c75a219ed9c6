// Snapshot and query-message save/load.
//
// A snapshot captures the overlay membership and every published element in
// a line-oriented text format (versioned header, length-prefixed strings,
// decimal 128-bit ids). Loading requires a freshly built system with the
// same keyword space and curve — the geometry is validated from the header,
// and routing state is rebuilt exactly after membership is restored.
//
// Query-protocol messages (core/messages.hpp) share the same text
// conventions: save_message/load_message round-trip every message type, and
// truncated or malformed input fails loudly (std::invalid_argument), never
// by returning a half-read message.

#pragma once

#include <cstddef>
#include <iosfwd>

#include "squid/core/messages.hpp"
#include "squid/core/system.hpp"
#include "squid/core/update.hpp"

namespace squid::core {

/// Write a complete snapshot of `sys` (membership + elements) to `out`.
void save_snapshot(const SquidSystem& sys, std::ostream& out);

/// Restore a snapshot into `sys`, which must be freshly constructed (no
/// nodes, no data) with a keyword space and curve matching the snapshot's
/// geometry. Throws std::invalid_argument on format or geometry mismatch,
/// including a node id too large for 128 bits.
void load_snapshot(SquidSystem& sys, std::istream& in);

/// Write one query-protocol message (versioned header + type tag + fields).
/// Returns the number of bytes written, which is wire_size(message): both
/// run the same frame writer.
std::size_t save_message(const msg::Message& message, std::ostream& out);

/// Read back a message written by save_message. Throws
/// std::invalid_argument (and nothing else) on bad magic, unknown type tag,
/// truncation, or a field out of range.
/// When `bytes_read` is non-null it receives the number of bytes the frame
/// occupied (0 if `in` cannot report stream positions).
msg::Message load_message(std::istream& in, std::size_t* bytes_read = nullptr);

/// Serialized size of `message` in bytes: save_message's frame writer run
/// on a sink that adds up digit and string lengths instead of formatting.
std::size_t wire_size(const msg::Message& message);

/// Wire size of one element as a Reply payload line (element encoding plus
/// its terminating newline).
std::size_t element_wire_size(const DataElement& element);

/// Wire size of a Reply frame built for accounting: canonical query id 0
/// (so byte counts never depend on live query-id digit lengths), complete,
/// carrying `count`, `elements` payload lines totalling `payload_bytes`,
/// and optionally an aggregate partial. Equals wire_size of that Reply;
/// `payload_bytes` is added verbatim (callers accumulate it via
/// element_wire_size during the scan, avoiding a copy of the elements).
std::size_t reply_wire_size(overlay::NodeId from, overlay::NodeId to,
                            std::uint64_t count, std::size_t elements,
                            std::size_t payload_bytes,
                            const AggregatePartial* aggregate = nullptr);

/// Wire size of the PublishRequest (kPublish) or RetractRequest (kRetract)
/// frame carrying `element` from `origin` to `to` under submit index `seq`,
/// with a fresh frame's event/span ids (0, -1). Equals wire_size of that
/// frame, without building it.
std::size_t update_wire_size(UpdateOp::Kind kind, std::uint64_t seq,
                             overlay::NodeId origin, overlay::NodeId to,
                             const DataElement& element);

} // namespace squid::core
