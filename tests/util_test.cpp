#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "util/encoding.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace torsim::util {
namespace {

// ---------------------------------------------------------------------
// time
// ---------------------------------------------------------------------

TEST(TimeTest, EpochIsZero) { EXPECT_EQ(make_utc(1970, 1, 1), 0); }

TEST(TimeTest, KnownTimestamps) {
  EXPECT_EQ(make_utc(2013, 2, 4), 1359936000);
  EXPECT_EQ(make_utc(2013, 2, 4, 12, 30, 45), 1359936000 + 12 * 3600 + 30 * 60 + 45);
  EXPECT_EQ(make_utc(2011, 2, 1), 1296518400);
  EXPECT_EQ(make_utc(2000, 3, 1), 951868800);  // post-leap-day 2000
}

TEST(TimeTest, LeapYearHandling) {
  EXPECT_EQ(make_utc(2012, 2, 29) + kSecondsPerDay, make_utc(2012, 3, 1));
  EXPECT_THROW(make_utc(2013, 2, 29), std::out_of_range);
  EXPECT_NO_THROW(make_utc(2000, 2, 29));   // divisible by 400
  EXPECT_THROW(make_utc(1900, 2, 29), std::out_of_range);  // fake leap year
}

TEST(TimeTest, RejectsOutOfRangeFields) {
  EXPECT_THROW(make_utc(2013, 13, 1), std::out_of_range);
  EXPECT_THROW(make_utc(2013, 0, 1), std::out_of_range);
  EXPECT_THROW(make_utc(2013, 1, 32), std::out_of_range);
  EXPECT_THROW(make_utc(2013, 1, 1, 24, 0, 0), std::out_of_range);
  EXPECT_THROW(make_utc(2013, 1, 1, 0, 60, 0), std::out_of_range);
  EXPECT_THROW(make_utc(1969, 1, 1), std::out_of_range);
}

TEST(TimeTest, CivilRoundTrip) {
  for (UnixTime t : {0L, 1359936000L, 951868800L, 4102444799L}) {
    const CivilTime c = civil_from_unix(t);
    EXPECT_EQ(make_utc(c.year, c.month, c.day, c.hour, c.minute, c.second), t);
  }
}

TEST(TimeTest, CivilRoundTripSweep) {
  // Every 41 days + prime-ish second offset across 30 years.
  for (UnixTime t = 0; t < 30L * 365 * kSecondsPerDay;
       t += 41 * kSecondsPerDay + 12345) {
    const CivilTime c = civil_from_unix(t);
    ASSERT_EQ(make_utc(c.year, c.month, c.day, c.hour, c.minute, c.second), t);
  }
}

TEST(TimeTest, Format) {
  EXPECT_EQ(format_utc(make_utc(2013, 2, 4, 9, 5, 3)), "2013-02-04 09:05:03");
  EXPECT_EQ(format_utc(0), "1970-01-01 00:00:00");
}

TEST(ClockTest, AdvanceAndSet) {
  Clock clock(100);
  EXPECT_EQ(clock.now(), 100);
  clock.advance(50);
  EXPECT_EQ(clock.now(), 150);
  clock.set(200);
  EXPECT_EQ(clock.now(), 200);
}

TEST(ClockTest, RefusesToGoBackwards) {
  Clock clock(100);
  EXPECT_THROW(clock.advance(-1), std::invalid_argument);
  EXPECT_THROW(clock.set(99), std::invalid_argument);
}

// ---------------------------------------------------------------------
// rng
// ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(RngTest, FillBytesMatchesNextWords) {
  // fill_bytes(n) writes successive next() words little-endian, the
  // last word cut to the bytes that fit, and leaves the stream
  // ceil(n / 8) words on.
  for (std::size_t n = 0; n <= 150; ++n) {
    Rng filled(77 + n);
    Rng words = filled;
    std::vector<std::uint8_t> bytes(n + 1, 0xAB);
    filled.fill_bytes(bytes.data(), n);
    for (std::size_t i = 0; i < n; i += 8) {
      const std::uint64_t word = words.next();
      for (std::size_t b = 0; b < 8 && i + b < n; ++b)
        ASSERT_EQ(bytes[i + b], static_cast<std::uint8_t>(word >> (8 * b)))
            << "n " << n << " byte " << i + b;
    }
    EXPECT_EQ(bytes[n], 0xAB) << "n " << n << ": wrote past the end";
    EXPECT_EQ(filled.next(), words.next()) << "n " << n;
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_EQ(rng.uniform_int(42, 42), 42);
  EXPECT_THROW(rng.uniform_int(1, 0), std::invalid_argument);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(13);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-1.0));
  EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, PoissonMoments) {
  Rng rng(19);
  for (double mean : {0.5, 3.0, 12.0, 80.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_THROW(rng.poisson(-1.0), std::invalid_argument);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(RngTest, NormalMoments) {
  Rng rng(29);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 3.0, 0.1);
}

TEST(RngTest, GeometricMean) {
  Rng rng(31);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric(0.25));
  EXPECT_NEAR(sum / n, 3.0, 0.15);  // (1-p)/p = 3
  EXPECT_EQ(rng.geometric(1.0), 0);
  EXPECT_THROW(rng.geometric(0.0), std::invalid_argument);
}

TEST(RngTest, IndexAndPick) {
  Rng rng(37);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
  const std::vector<int> v = {10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    const int x = rng.pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
  const std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), std::invalid_argument);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(41);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(43);
  Rng child_a = parent.fork(1);
  Rng child_b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (child_a.next() == child_b.next()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ChildDoesNotAdvanceParent) {
  // child() is a const derivation: unlike fork(), it must leave the
  // parent stream untouched (the parallel call sites rely on this).
  Rng with_children(61), untouched(61);
  (void)with_children.child(0);
  (void)with_children.child(1);
  (void)with_children.child(99999);
  for (int i = 0; i < 100; ++i)
    ASSERT_EQ(with_children.next(), untouched.next());
}

TEST(RngTest, ChildDerivationIsOrderIndependent) {
  // Deriving children in any order yields the same streams — the
  // property that makes per-index child streams safe under arbitrary
  // thread scheduling.
  Rng a(67), b(67);
  Rng a1 = a.child(1);
  Rng a2 = a.child(2);
  Rng b2 = b.child(2);
  Rng b1 = b.child(1);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(a1.next(), b1.next());
    ASSERT_EQ(a2.next(), b2.next());
  }
}

TEST(RngTest, ChildStreamsDoNotOverlap) {
  // 100 children x 64 draws: all 6400 values distinct (collision
  // probability among 64-bit values is ~1e-12).
  Rng parent(71);
  std::set<std::uint64_t> seen;
  for (std::uint64_t label = 0; label < 100; ++label) {
    Rng child = parent.child(label);
    for (int i = 0; i < 64; ++i) seen.insert(child.next());
  }
  EXPECT_EQ(seen.size(), 6400u);
}

TEST(RngTest, ChildDependsOnLabelAndParentState) {
  Rng parent(73);
  EXPECT_NE(parent.child(1).next(), parent.child(2).next());
  Rng advanced(73);
  (void)advanced.next();
  // Same label, different parent state -> different stream.
  EXPECT_NE(parent.child(1).next(), advanced.child(1).next());
}

TEST(RngTest, ChildDerivationIndependentOfThreadScheduling) {
  const Rng base(79);
  constexpr int kStreams = 16;
  std::vector<std::uint64_t> serial(kStreams);
  for (int i = 0; i < kStreams; ++i)
    serial[static_cast<std::size_t>(i)] =
        base.child(static_cast<std::uint64_t>(i)).next();

  // Derive the same children from concurrent threads in whatever order
  // the scheduler picks; outputs must match the serial derivation.
  std::vector<std::uint64_t> threaded(kStreams);
  std::vector<std::thread> threads;
  for (int i = 0; i < kStreams; ++i)
    threads.emplace_back([&base, &threaded, i] {
      threaded[static_cast<std::size_t>(i)] =
          base.child(static_cast<std::uint64_t>(i)).next();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(threaded, serial);
}

TEST(RngTest, FillBytesDeterministicAndFull) {
  Rng a(47), b(47);
  std::uint8_t buf_a[37], buf_b[37];
  a.fill_bytes(buf_a, sizeof buf_a);
  b.fill_bytes(buf_b, sizeof buf_b);
  EXPECT_EQ(0, std::memcmp(buf_a, buf_b, sizeof buf_a));
  // Not all zero.
  bool nonzero = false;
  for (auto byte : buf_a) nonzero |= byte != 0;
  EXPECT_TRUE(nonzero);
}

// ---------------------------------------------------------------------
// encoding
// ---------------------------------------------------------------------

TEST(EncodingTest, Base32KnownVectors) {
  // RFC 4648 vectors, lowercased (Tor renders onion addresses lowercase).
  const auto encode_str = [](std::string_view s) {
    return base32_encode(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  };
  EXPECT_EQ(encode_str(""), "");
  EXPECT_EQ(encode_str("f"), "my");
  EXPECT_EQ(encode_str("fo"), "mzxq");
  EXPECT_EQ(encode_str("foo"), "mzxw6");
  EXPECT_EQ(encode_str("foob"), "mzxw6yq");
  EXPECT_EQ(encode_str("fooba"), "mzxw6ytb");
  EXPECT_EQ(encode_str("foobar"), "mzxw6ytboi");
}

TEST(EncodingTest, Base32TenBytesIsSixteenChars) {
  std::vector<std::uint8_t> ten(10, 0xab);
  EXPECT_EQ(base32_encode(ten).size(), 16u);
}

TEST(EncodingTest, Base32RoundTrip) {
  Rng rng(53);
  for (std::size_t len : {1u, 5u, 10u, 20u, 33u}) {
    std::vector<std::uint8_t> data(len);
    rng.fill_bytes(data.data(), len);
    EXPECT_EQ(base32_decode(base32_encode(data)), data) << "len=" << len;
  }
}

TEST(EncodingTest, Base32DecodeAcceptsUppercase) {
  EXPECT_EQ(base32_decode("MZXW6YTBOI"), base32_decode("mzxw6ytboi"));
}

TEST(EncodingTest, Base32DecodeRejectsBadChars) {
  EXPECT_THROW(base32_decode("abc0"), std::invalid_argument);  // no '0'
  EXPECT_THROW(base32_decode("abc1"), std::invalid_argument);  // no '1'
  EXPECT_THROW(base32_decode("ab!c"), std::invalid_argument);
}

TEST(EncodingTest, HexRoundTrip) {
  Rng rng(59);
  std::vector<std::uint8_t> data(20);
  rng.fill_bytes(data.data(), data.size());
  EXPECT_EQ(hex_decode(hex_encode(data)), data);
}

TEST(EncodingTest, HexKnownVector) {
  const std::vector<std::uint8_t> bytes = {0x00, 0xff, 0x10, 0xab};
  EXPECT_EQ(hex_encode(bytes), "00ff10ab");
  EXPECT_EQ(hex_decode("00FF10AB"), bytes);
}

TEST(EncodingTest, HexRejectsBadInput) {
  EXPECT_THROW(hex_decode("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(hex_decode("zz"), std::invalid_argument);
}

// ---------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------

TEST(StringsTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(join({}, "-"), "");
  EXPECT_EQ(join({"x"}, "-"), "x");
}

TEST(StringsTest, ToLowerAndTrim) {
  EXPECT_EQ(to_lower("HeLLo 123"), "hello 123");
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, TokenizeWords) {
  EXPECT_EQ(tokenize_words("Hello, World! 42 foo-bar"),
            (std::vector<std::string>{"hello", "world", "foo", "bar"}));
  EXPECT_TRUE(tokenize_words("123 456").empty());
  EXPECT_TRUE(tokenize_words("").empty());
}

TEST(StringsTest, CountWordsMatchesTokenize) {
  for (std::string_view text :
       {"one two three", "", "a,b,,c!!", "x", "  spaces   here  ",
        "SSH-2.0-OpenSSH_5.9p1 Debian-5ubuntu1"}) {
    EXPECT_EQ(count_words(text), tokenize_words(text).size()) << text;
  }
}

TEST(StringsTest, AsciiLetterHelpersMatchCLocaleCtype) {
  // The content scorers use these instead of std::isalpha/std::tolower;
  // the program never leaves the "C" locale, where the two agree on
  // every byte.
  for (int b = 0; b < 256; ++b) {
    const auto c = static_cast<unsigned char>(b);
    EXPECT_EQ(is_ascii_alpha(c), std::isalpha(c) != 0) << b;
    if (is_ascii_alpha(c)) {
      EXPECT_EQ(ascii_letter_lower(c), static_cast<char>(std::tolower(c)))
          << b;
    }
  }
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("silkroad", "sil"));
  EXPECT_FALSE(starts_with("si", "sil"));
  EXPECT_TRUE(ends_with("host.onion", ".onion"));
  EXPECT_FALSE(ends_with("onion", ".onion"));
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("no match", "x", "y"), "no match");
  EXPECT_EQ(replace_all("abcabc", "bc", "-"), "a-a-");
  EXPECT_THROW(replace_all("abc", "", "x"), std::invalid_argument);
}

}  // namespace
}  // namespace torsim::util

// ---------------------------------------------------------------------
// csv
// ---------------------------------------------------------------------
#include <cstdio>
#include <fstream>

#include "util/csv.hpp"

namespace torsim::util {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(CsvTest, EscapeRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("has,comma"), "\"has,comma\"");
  EXPECT_EQ(csv_escape("has\"quote"), "\"has\"\"quote\"");
  EXPECT_EQ(csv_escape("multi\nline"), "\"multi\nline\"");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvTest, EscapeCarriageReturnAndEdgeCases) {
  // \r alone must force quoting (RFC 4180 treats CRLF as the record
  // separator, so a bare CR in a field corrupts row framing).
  EXPECT_EQ(csv_escape("dos\r\nline"), "\"dos\r\nline\"");
  EXPECT_EQ(csv_escape("bare\rcr"), "\"bare\rcr\"");
  // Quotes double even when the field also needs wrapping for commas.
  EXPECT_EQ(csv_escape("a\"b,c\"d"), "\"a\"\"b,c\"\"d\"");
  // A field that is only a quote.
  EXPECT_EQ(csv_escape("\""), "\"\"\"\"");
  // Leading/trailing spaces are preserved verbatim, not quoted.
  EXPECT_EQ(csv_escape("  padded  "), "  padded  ");
}

TEST(CsvTest, WriterRoundTripsNastyFields) {
  const std::string path = "/tmp/torsim_csv_nasty_test.csv";
  {
    CsvWriter csv(path);
    csv.row({"onion,with,commas", "say \"hi\"", "line\nbreak", "cr\rhere"});
  }
  EXPECT_EQ(read_file(path),
            "\"onion,with,commas\",\"say \"\"hi\"\"\","
            "\"line\nbreak\",\"cr\rhere\"\n");
  std::remove(path.c_str());
}

TEST(CsvTest, WritesRows) {
  const std::string path = "/tmp/torsim_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.row({"a", "b,c"});
    csv.typed_row(1, 2.5, "x");
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  EXPECT_EQ(read_file(path), "a,\"b,c\"\n1,2.5,x\n");
  std::remove(path.c_str());
}

TEST(CsvTest, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace torsim::util

// ---------------------------------------------------------------------
// logging
// ---------------------------------------------------------------------
#include "util/logging.hpp"

namespace torsim::util {
namespace {

TEST(LoggingTest, LevelThresholdRespected) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold messages are discarded without side effects; the
  // macro's stream body must still compile and evaluate safely.
  TORSIM_DEBUG() << "discarded " << 42;
  TORSIM_INFO() << "discarded too";
  set_log_level(LogLevel::kOff);
  TORSIM_ERROR() << "also discarded at kOff";
  set_log_level(original);
}

TEST(LoggingTest, LevelsAreOrdered) {
  EXPECT_LT(static_cast<int>(LogLevel::kDebug),
            static_cast<int>(LogLevel::kInfo));
  EXPECT_LT(static_cast<int>(LogLevel::kInfo),
            static_cast<int>(LogLevel::kWarn));
  EXPECT_LT(static_cast<int>(LogLevel::kWarn),
            static_cast<int>(LogLevel::kError));
  EXPECT_LT(static_cast<int>(LogLevel::kError),
            static_cast<int>(LogLevel::kOff));
}

}  // namespace
}  // namespace torsim::util
