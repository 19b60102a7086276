// The observability subsystem's own contract tests: JSON writer
// canonical form, metric semantics, shard-merge determinism, sim-time
// trace export, and the peak-RSS reading. The cross-thread
// byte-identity of the full pipelines is covered end to end in
// serial_equivalence_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace torsim::obs {
namespace {

// --- JsonWriter -------------------------------------------------------

TEST(JsonWriterTest, EscapesAndNestsCanonically) {
  JsonWriter json;
  json.begin_object();
  json.key("text").value(std::string("a\"b\\c\n\t"));
  json.key("list").begin_array();
  json.value(std::int64_t{1});
  json.value(true);
  json.null();
  json.end_array();
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\n"
            "  \"text\": \"a\\\"b\\\\c\\n\\t\",\n"
            "  \"list\": [\n"
            "    1,\n"
            "    true,\n"
            "    null\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriterTest, IntegralDoublesKeepDecimalPoint) {
  JsonWriter json;
  json.begin_object();
  json.key("whole").value(3.0);
  json.key("frac").value(0.25);
  json.end_object();
  const std::string doc = json.str();
  EXPECT_NE(doc.find("\"whole\": 3.0"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"frac\": 0.25"), std::string::npos) << doc;
}

// --- metric semantics -------------------------------------------------

TEST(HistogramTest, BucketEdgesAreUpperInclusive) {
  Histogram h({0, 10, 20});
  EXPECT_EQ(h.bucket_index(-5), 0u);  // <= 0
  EXPECT_EQ(h.bucket_index(0), 0u);
  EXPECT_EQ(h.bucket_index(1), 1u);   // <= 10
  EXPECT_EQ(h.bucket_index(10), 1u);
  EXPECT_EQ(h.bucket_index(20), 2u);
  EXPECT_EQ(h.bucket_index(21), 3u);  // overflow
}

TEST(HistogramTest, ObserveAccumulatesCountSumAndBuckets) {
  Histogram h({0, 10});
  for (std::int64_t v : {-1, 0, 5, 10, 11, 100}) h.observe(v);
  EXPECT_EQ(h.count(), 6);
  EXPECT_EQ(h.sum(), 125);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::int64_t>{2, 2, 2}));
}

TEST(HistogramTest, RejectsNonIncreasingEdges) {
  EXPECT_THROW(Histogram({1, 1}), std::logic_error);
  EXPECT_THROW(Histogram({2, 1}), std::logic_error);
  EXPECT_THROW(Histogram({}), std::logic_error);
}

TEST(HistogramTest, BucketIndexMatchesLinearScanProperty) {
  // Property check against the obvious reference implementation, over
  // seeded random edge sets and values (including the exact edges).
  util::Rng rng(42);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::int64_t> edges;
    std::int64_t edge = rng.uniform_int(-100, 100);
    const int num_edges = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < num_edges; ++i) {
      edges.push_back(edge);
      edge += rng.uniform_int(1, 50);
    }
    Histogram h(edges);
    for (int probe = 0; probe < 40; ++probe) {
      const bool exact = rng.bernoulli(0.5);
      const std::int64_t value =
          exact ? edges[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(edges.size()) - 1))]
                : rng.uniform_int(-300, 300);
      std::size_t expected = edges.size();
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (value <= edges[i]) {
          expected = i;
          break;
        }
      }
      EXPECT_EQ(h.bucket_index(value), expected)
          << "value " << value << " round " << round;
    }
  }
}

TEST(MetricsRegistryTest, HandlesAreStableAndNamed) {
  MetricsRegistry registry;
  Counter& c = registry.counter("a.hits");
  c.inc();
  registry.counter("a.hits").inc(2);
  EXPECT_EQ(&registry.counter("a.hits"), &c);
  EXPECT_EQ(c.value(), 3);
  registry.gauge("a.depth").set(7);
  EXPECT_EQ(registry.gauge("a.depth").value(), 7);
}

TEST(MetricsRegistryTest, HistogramEdgeMismatchThrows) {
  MetricsRegistry registry;
  registry.histogram("h", {1, 2});
  EXPECT_NO_THROW(registry.histogram("h", {1, 2}));
  EXPECT_THROW(registry.histogram("h", {1, 3}), std::logic_error);
}

TEST(MetricsRegistryTest, TextEmissionIsNameSorted) {
  // Counters sort by name, then gauges, then histograms — fixed kind
  // order, name order within each kind.
  MetricsRegistry registry;
  registry.counter("z.last").inc(9);
  registry.counter("a.first").inc(1);
  registry.gauge("m.middle").set(-2);
  EXPECT_EQ(registry.to_text(),
            "counter a.first 1\n"
            "counter z.last 9\n"
            "gauge m.middle -2\n");
}

TEST(MetricsRegistryTest, RegistrationOrderDoesNotChangeBytes) {
  MetricsRegistry forwards;
  forwards.counter("a").inc(1);
  forwards.counter("b").inc(2);
  forwards.histogram("h", {10}).observe(3);
  MetricsRegistry backwards;
  backwards.histogram("h", {10}).observe(3);
  backwards.counter("b").inc(2);
  backwards.counter("a").inc(1);
  EXPECT_EQ(forwards.to_text(), backwards.to_text());
  EXPECT_EQ(forwards.to_json(), backwards.to_json());
}

// --- shard merge ------------------------------------------------------

TEST(MetricsRegistryTest, ShardMergeMatchesSingleRegistryByteForByte) {
  // The sharded pattern: each worker owns a registry, shards merge in
  // index order. The merged bytes must equal a serial registry that saw
  // every increment — for any shard assignment.
  const auto record = [](MetricsRegistry& m, std::int64_t task) {
    m.counter("work.items").inc();
    m.counter("work.units").inc(task);
    m.gauge("work.last").set(task);
    m.histogram("work.size", {2, 5, 9}).observe(task % 12);
  };

  MetricsRegistry serial;
  for (std::int64_t task = 0; task < 64; ++task) record(serial, task);

  for (int shards : {1, 4, 8}) {
    std::vector<std::unique_ptr<MetricsRegistry>> parts;
    for (int s = 0; s < shards; ++s)
      parts.push_back(std::make_unique<MetricsRegistry>());
    for (std::int64_t task = 0; task < 64; ++task)
      record(*parts[static_cast<std::size_t>(task) %
                    static_cast<std::size_t>(shards)],
             task);
    MetricsRegistry merged;
    for (auto& part : parts) merged.merge(*part);
    // Gauges are last-writer-wins per shard; re-assert the serial value
    // (shard order decides otherwise, which is exactly why gauges are
    // serial-section-only).
    merged.gauge("work.last").set(63);
    EXPECT_EQ(merged.to_text(), serial.to_text()) << shards << " shards";
    EXPECT_EQ(merged.to_json(), serial.to_json()) << shards << " shards";
  }
}

TEST(MetricsRegistryTest, MergeRejectsEdgeMismatch) {
  MetricsRegistry a;
  a.histogram("h", {1});
  MetricsRegistry b;
  b.histogram("h", {2});
  EXPECT_THROW(a.merge(b), std::logic_error);
}

// --- concurrent increments (exercised under TSAN in CI) ---------------

TEST(ObsMetricsParallelTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  // Register outside the parallel region (registration locks; the hot
  // increments below are lock-free).
  Counter& items = registry.counter("par.items");
  Histogram& sizes = registry.histogram("par.sizes", {100, 500});
  constexpr std::size_t kTasks = 10000;
  util::parallel_for(kTasks, 4, [&](std::size_t i) {
    items.inc();
    sizes.observe(static_cast<std::int64_t>(i % 1000));
  });
  EXPECT_EQ(items.value(), static_cast<std::int64_t>(kTasks));
  EXPECT_EQ(sizes.count(), static_cast<std::int64_t>(kTasks));
  // 0..999 repeated 10x: 101 values <= 100, then 400 more <= 500.
  EXPECT_EQ(sizes.bucket_counts(),
            (std::vector<std::int64_t>{1010, 4000, 4990}));
}

TEST(ObsMetricsParallelTest, RegistryLookupIsThreadSafe) {
  MetricsRegistry registry;
  util::parallel_for(2048, 4, [&](std::size_t i) {
    registry.counter(i % 2 == 0 ? "par.even" : "par.odd").inc();
  });
  EXPECT_EQ(registry.counter("par.even").value(), 1024);
  EXPECT_EQ(registry.counter("par.odd").value(), 1024);
}

// --- tracing ----------------------------------------------------------

TEST(TraceRecorderTest, ChromeJsonIsRebasedAndStableSorted) {
  TraceRecorder trace;
  trace.complete("late", "sim", 2000, 50);
  trace.complete("early", "sim", 1000, 100, {{"k", 7}});
  trace.instant("mark", "sim", 1000);
  const std::string doc = trace.chrome_json();
  // Events sort by start time (record order breaking ties): early,
  // mark, late — with ts rebased so the first event is 0.
  const auto early = doc.find("\"early\"");
  const auto mark = doc.find("\"mark\"");
  const auto late = doc.find("\"late\"");
  ASSERT_NE(early, std::string::npos);
  ASSERT_NE(mark, std::string::npos);
  ASSERT_NE(late, std::string::npos);
  EXPECT_LT(early, mark);
  EXPECT_LT(mark, late);
  EXPECT_NE(doc.find("\"ts\": 0"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"ts\": 1000"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"dur\": 100"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"ph\": \"i\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"k\": 7"), std::string::npos) << doc;
}

TEST(TraceRecorderTest, SpanGuardRecordsScopeAgainstSimClock) {
  TraceRecorder trace;
  util::Clock clock(5000);
  {
    SpanGuard span(&trace, clock, "phase");
    clock.advance(250);
    span.arg("steps", 1);
  }
  EXPECT_EQ(trace.size(), 1u);
  const std::string doc = trace.chrome_json();
  EXPECT_NE(doc.find("\"dur\": 250"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"steps\": 1"), std::string::npos) << doc;
}

TEST(TraceRecorderTest, NullRecorderDisablesSpans) {
  util::Clock clock(0);
  TRACE_SPAN(nullptr, clock, "noop");
  clock.advance(10);
  // Nothing to assert beyond "does not crash": the macro compiles and
  // a null recorder records nothing.
  SUCCEED();
}

// --- stopwatch (wall clock, non-golden) -------------------------------

TEST(StopwatchTest, PeakRssIsPositive) {
  EXPECT_GT(peak_rss_bytes(), 0);
}

}  // namespace
}  // namespace torsim::obs
