// Deterministic mutation fuzzing of the message and snapshot decoders.
//
// Fixed seeds and a fixed iteration budget: each iteration applies 1-4
// mutations (byte flips, digit inserts, truncations, deletions) to one of the
// seven sample frames or to a small snapshot and decodes the result. Two
// contracts must hold on every mutant:
//   - load_message and load_snapshot throw std::invalid_argument and nothing
//     else (no std::out_of_range, no std::bad_alloc, no sanitizer report);
//   - a mutant that still decodes is sized exactly: wire_size(decoded)
//     equals the bytes save_message writes for it. Mutants carry hostile
//     field values (digit-stuffed ids, wrapped counts, odd doubles), which
//     is where a closed-form size would drift from the writer first.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "squid/core/serialize.hpp"
#include "squid/util/rng.hpp"

#include "message_samples.hpp"

namespace squid::core {
namespace {

constexpr int kMessageIterations = 3000; // per sample frame
constexpr int kSnapshotIterations = 2000;

/// One to four random edits of `text`.
std::string mutate(std::string text, Rng& rng) {
  const std::uint64_t edits = rng.range(1, 4);
  for (std::uint64_t e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = rng.below(text.size());
    switch (rng.below(4)) {
    case 0: // flip one bit
      text[at] = static_cast<char>(text[at] ^ (1 << rng.below(8)));
      break;
    case 1: // insert a digit (grows ids, counts, and length prefixes)
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                  static_cast<char>('0' + rng.below(10)));
      break;
    case 2: // truncate
      text.resize(at);
      break;
    default: // delete a short run
      text.erase(at, rng.range(1, 4));
      break;
    }
  }
  return text;
}

std::string printable(const std::string& text) {
  std::string out;
  for (const char c : text)
    out += (c >= ' ' && c <= '~') ? std::string(1, c)
                                  : "\\x" + std::to_string(
                                                static_cast<unsigned char>(c));
  return out;
}

TEST(MessageFuzz, OnlyInvalidArgumentEscapesAndDecodedFramesAreSizedExactly) {
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  const std::vector<msg::Message> frames = samples::all_samples();
  for (std::size_t f = 0; f < frames.size(); ++f) {
    std::ostringstream encoded;
    save_message(frames[f], encoded);
    Rng rng(0xf022 + f);
    for (int i = 0; i < kMessageIterations; ++i) {
      const std::string text = mutate(encoded.str(), rng);
      std::istringstream in(text);
      msg::Message message;
      try {
        message = load_message(in);
      } catch (const std::invalid_argument&) {
        ++rejected;
        continue;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "escaped: " << e.what() << "\n  frame: "
                      << printable(text);
        continue;
      }
      ++decoded;
      std::ostringstream out;
      const std::size_t saved = save_message(message, out);
      ASSERT_EQ(saved, out.str().size()) << printable(text);
      ASSERT_EQ(wire_size(message), saved) << printable(text);
    }
  }
  // Both outcomes must actually occur, or the budget proves nothing.
  EXPECT_GT(decoded, frames.size() * kMessageIterations / 20);
  EXPECT_GT(rejected, frames.size() * kMessageIterations / 2);
}

keyword::KeywordSpace snapshot_space() {
  constexpr const char* kAlpha = "abcdefghijklmnopqrstuvwxyz";
  return keyword::KeywordSpace(
      {keyword::StringCodec(kAlpha, 4), keyword::StringCodec(kAlpha, 4)});
}

TEST(MessageFuzz, SnapshotLoaderThrowsOnlyInvalidArgument) {
  std::string snapshot;
  {
    Rng rng(0x5a9);
    SquidSystem original(snapshot_space());
    original.build_network(4, rng);
    original.publish({"grid data", {std::string("grid"), std::string("data")}});
    original.publish({"x", {std::string("comp"), std::string("art")}});
    original.publish({"", {std::string("a"), std::string("")}});
    std::ostringstream out;
    save_snapshot(original, out);
    snapshot = out.str();
  }
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  Rng rng(0x5a90);
  for (int i = 0; i < kSnapshotIterations; ++i) {
    const std::string text = mutate(snapshot, rng);
    SquidSystem sys(snapshot_space());
    std::istringstream in(text);
    try {
      load_snapshot(sys, in);
      ++loaded;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "escaped: " << e.what() << "\n  snapshot: "
                    << printable(text);
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, kSnapshotIterations / 2u);
}

} // namespace
} // namespace squid::core
