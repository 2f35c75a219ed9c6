#include "squid/core/serialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "squid/workload/corpus.hpp"

namespace squid::core {
namespace {

constexpr const char* kAlpha = "abcdefghijklmnopqrstuvwxyz";

keyword::KeywordSpace doc_space() {
  return keyword::KeywordSpace(
      {keyword::StringCodec(kAlpha, 4), keyword::StringCodec(kAlpha, 4)});
}

keyword::KeywordSpace mixed_space() {
  return keyword::KeywordSpace(
      {keyword::StringCodec(kAlpha, 4), keyword::NumericCodec(0, 1000, 10)});
}

TEST(Snapshot, RoundTripPreservesMembershipAndData) {
  Rng rng(151);
  workload::KeywordCorpus corpus(2, 200, 0.9, rng);
  SquidSystem original(corpus.make_space());
  original.build_network(50, rng);
  for (const auto& e : corpus.make_elements(800, rng)) original.publish(e);

  std::stringstream snapshot;
  save_snapshot(original, snapshot);

  SquidSystem restored(corpus.make_space());
  load_snapshot(restored, snapshot);

  EXPECT_EQ(restored.ring().size(), original.ring().size());
  EXPECT_EQ(restored.ring().node_ids(), original.ring().node_ids());
  EXPECT_EQ(restored.key_count(), original.key_count());
  EXPECT_EQ(restored.element_count(), original.element_count());
  EXPECT_TRUE(restored.ring().ring_consistent());

  // Queries against the restored system match the original exactly.
  const keyword::Query q = corpus.q1(0, true);
  const auto origin = original.ring().node_ids().front();
  auto names = [](const std::vector<DataElement>& es) {
    std::vector<std::string> ns;
    for (const auto& e : es) ns.push_back(e.name);
    std::sort(ns.begin(), ns.end());
    return ns;
  };
  EXPECT_EQ(names(restored.query(q, origin).elements),
            names(original.query(q, origin).elements));
}

TEST(Snapshot, MixedTokenKindsSurvive) {
  Rng rng(152);
  SquidSystem original(mixed_space());
  original.build_network(10, rng);
  original.publish({"alpha", {std::string("word"), 123.5}});
  original.publish({"beta", {std::string("term"), 0.25}});

  std::stringstream snapshot;
  save_snapshot(original, snapshot);
  SquidSystem restored(mixed_space());
  load_snapshot(restored, snapshot);

  const auto result = restored.query(restored.space().parse("(word, 123-124)"),
                                     restored.ring().node_ids().front());
  ASSERT_EQ(result.stats.matches, 1u);
  EXPECT_EQ(result.elements[0].name, "alpha");
  EXPECT_DOUBLE_EQ(std::get<double>(result.elements[0].keys[1]), 123.5);
}

TEST(Snapshot, NamesWithSpacesAndPunctuationSurvive) {
  Rng rng(153);
  SquidSystem original(doc_space());
  original.build_network(5, rng);
  original.publish({"my file (v2): final.pdf",
                    {std::string("grid"), std::string("data")}});
  std::stringstream snapshot;
  save_snapshot(original, snapshot);
  SquidSystem restored(doc_space());
  load_snapshot(restored, snapshot);
  const auto result = restored.query(restored.space().parse("(grid, data)"),
                                     restored.ring().node_ids().front());
  ASSERT_EQ(result.stats.matches, 1u);
  EXPECT_EQ(result.elements[0].name, "my file (v2): final.pdf");
}

TEST(Snapshot, GeometryMismatchRejected) {
  Rng rng(154);
  SquidSystem original(doc_space());
  original.build_network(5, rng);
  std::stringstream snapshot;
  save_snapshot(original, snapshot);

  SquidConfig zconfig;
  zconfig.curve = "zorder";
  SquidSystem wrong_curve(doc_space(), zconfig);
  EXPECT_THROW(load_snapshot(wrong_curve, snapshot), std::invalid_argument);
}

TEST(Snapshot, RequiresAFreshSystem) {
  Rng rng(155);
  SquidSystem original(doc_space());
  original.build_network(5, rng);
  std::stringstream snapshot;
  save_snapshot(original, snapshot);

  SquidSystem busy(doc_space());
  busy.build_network(3, rng);
  EXPECT_THROW(load_snapshot(busy, snapshot), std::invalid_argument);
}

TEST(Snapshot, GarbageRejected) {
  SquidSystem sys(doc_space());
  std::stringstream garbage("not a snapshot at all");
  EXPECT_THROW(load_snapshot(sys, garbage), std::invalid_argument);
}

TEST(Snapshot, OverflowingNodeIdRejected) {
  // A node id one past 2^128 - 1: parse_u128 reports std::out_of_range, but
  // load_snapshot's contract is std::invalid_argument only.
  SquidSystem sys(doc_space());
  std::stringstream snapshot;
  snapshot << "SQUID-SNAPSHOT-1\n" << sys.curve().name() << " 2 "
           << sys.space().bits_per_dim()
           << "\n1\n340282366920938463463374607431768211456\n0\n";
  EXPECT_THROW(load_snapshot(sys, snapshot), std::invalid_argument);
}

TEST(Snapshot, MalformedElementsRejected) {
  // A one-element snapshot whose element line is swapped for a broken one:
  // load_snapshot must reject each with std::invalid_argument.
  Rng rng(156);
  SquidSystem original(mixed_space());
  original.build_network(3, rng);
  original.publish({"alpha", {std::string("word"), 123.5}});
  std::stringstream saved;
  save_snapshot(original, saved);
  const std::string text = saved.str();
  const std::size_t line = text.find("5:alpha ");
  ASSERT_NE(line, std::string::npos);
  const std::string head = text.substr(0, line);
  const std::string good = text.substr(line);
  const std::size_t at = good.find(" n") + 1;
  const std::string number = good.substr(at, good.find('\n') - at);

  {
    SquidSystem restored(mixed_space());
    std::stringstream snapshot(head + good);
    load_snapshot(restored, snapshot);
    EXPECT_EQ(restored.element_count(), 1u);
  }
  const std::vector<std::string> broken = {
      "5:alpha 1 s4:word\n",                          // fewer tokens than dims
      "5:alpha 3 s4:word " + number + " s4:term\n",   // more tokens than dims
      "5:alpha 2 s4:word x4:term\n",                  // unknown token kind
      "5:alpha 2 s4:word n\n",                        // numeric token cut off
      "5:alpha 2 s4:word nabc\n",                     // numeric token not a number
      "5:alpha 2 s4:word",                            // second token missing
  };
  for (const std::string& element : broken) {
    SquidSystem restored(mixed_space());
    std::stringstream snapshot(head + element);
    EXPECT_THROW(load_snapshot(restored, snapshot), std::invalid_argument)
        << element;
  }
}

} // namespace
} // namespace squid::core
