// Self-tests for the detlint pass pipeline: every check of every pass
// must fire on a minimal trigger snippet AND on the checked-in
// fixtures, and the known-safe shapes (member .time(), rng.child(i),
// sorted_items, per-shard subscripts, namespace aliases) must stay
// quiet. If a check silently stops firing, the lint gate becomes a
// green light for nondeterminism — these tests are the lint's lint.
#include "detlint/detlint.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using detlint::Finding;
using detlint::NameSets;

std::vector<Finding> scan(const std::string& code,
                          const std::string& path = "src/foo.cpp") {
  NameSets names = detlint::collect_names(code);
  return detlint::scan_file(path, code, names);
}

bool has_check(const std::vector<Finding>& findings,
               const std::string& check, bool suppressed = false) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) {
                       return f.check == check &&
                              f.suppressed == suppressed;
                     });
}

std::size_t count_check(const std::vector<Finding>& findings,
                        const std::string& check) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.check == check; }));
}

// --- banned-call ------------------------------------------------------

TEST(DetlintBannedCall, FlagsLibcClockAndPrng) {
  const auto f = scan("void g() { std::srand(1); int r = std::rand();\n"
                      "  std::time_t t = std::time(nullptr); }\n");
  EXPECT_EQ(count_check(f, "banned-call"), 3u);
}

TEST(DetlintBannedCall, FlagsChronoClocksAndRandomDevice) {
  const auto f = scan(
      "auto a = std::chrono::system_clock::now();\n"
      "auto b = std::chrono::steady_clock::now();\n"
      "auto c = std::chrono::high_resolution_clock::now();\n"
      "std::random_device rd;\n");
  EXPECT_EQ(count_check(f, "banned-call"), 4u);
}

TEST(DetlintBannedCall, FlagsGetenvAndUnqualifiedCalls) {
  const auto f = scan("void g() { const char* h = getenv(\"HOME\");\n"
                      "  long t = time(nullptr); }\n");
  EXPECT_EQ(count_check(f, "banned-call"), 2u);
}

TEST(DetlintBannedCall, IgnoresMemberCallsAndDeclarations) {
  const auto f = scan(
      "struct S { long time() const; util::Clock& clock(); };\n"
      "long use(const S& s, S* p) { return s.time() + p->time(); }\n"
      "util::UnixTime time() const { return time_; }\n");
  EXPECT_FALSE(has_check(f, "banned-call"));
}

TEST(DetlintBannedCall, IgnoresOtherNamespaces) {
  const auto f = scan("long g() { return sim::time(w) + my::rand(); }\n");
  EXPECT_FALSE(has_check(f, "banned-call"));
}

TEST(DetlintBannedCall, IgnoresStringsAndComments) {
  const auto f = scan(
      "// calling std::rand() here would be bad\n"
      "/* std::time(nullptr) too */\n"
      "const char* msg = \"do not use rand() or time(0)\";\n");
  EXPECT_TRUE(f.empty());
}

TEST(DetlintBannedCall, RandomDeviceAllowedOnlyInRngImpl) {
  const std::string code = "std::random_device rd;\n";
  EXPECT_TRUE(has_check(scan(code, "src/scan/scanner.cpp"), "banned-call"));
  EXPECT_FALSE(has_check(scan(code, "src/util/rng.cpp"), "banned-call"));
}

TEST(DetlintBannedCall, SteadyClockAllowedOnlyInObsStopwatch) {
  const std::string code =
      "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(has_check(scan(code, "src/sim/world.cpp"), "banned-call"));
  EXPECT_TRUE(has_check(scan(code, "src/obs/metrics.cpp"), "banned-call"));
  EXPECT_FALSE(
      has_check(scan(code, "src/obs/stopwatch.cpp"), "banned-call"));
  EXPECT_FALSE(
      has_check(scan(code, "src/obs/stopwatch.hpp"), "banned-call"));
}

TEST(DetlintBannedCall, StopwatchExemptionIsSteadyClockOnly) {
  // The wall-clock module may not reach for the system clock or an
  // entropy source — only steady_clock is allowlisted there.
  EXPECT_TRUE(has_check(
      scan("auto t = std::chrono::system_clock::now();\n",
           "src/obs/stopwatch.cpp"),
      "banned-call"));
  EXPECT_TRUE(has_check(scan("std::random_device rd;\n",
                             "src/obs/stopwatch.cpp"),
                        "banned-call"));
}

// --- unordered-iter ---------------------------------------------------

TEST(DetlintUnorderedIter, FlagsRangeForOverUnorderedMap) {
  const auto f = scan(
      "std::unordered_map<std::string, int> tally;\n"
      "void g() { for (const auto& [k, v] : tally) { use(k, v); } }\n");
  EXPECT_TRUE(has_check(f, "unordered-iter"));
}

TEST(DetlintUnorderedIter, FlagsBeginWalk) {
  const auto f = scan("std::unordered_set<int> ids;\n"
                      "auto it = ids.begin();\n");
  EXPECT_TRUE(has_check(f, "unordered-iter"));
}

TEST(DetlintUnorderedIter, RecognisesHeaderDeclUsedInCpp) {
  // Two-pass name collection: the header declares, the .cpp iterates.
  const std::string header =
      "struct Index { std::unordered_map<int, int> by_id_; };\n";
  const std::string cpp =
      "void Index::dump() { for (auto& [k, v] : by_id_) emit(k, v); }\n";
  NameSets names = detlint::collect_names(header);
  detlint::merge_names(names, detlint::collect_names(cpp));
  const auto f = detlint::scan_file("src/index.cpp", cpp, names);
  EXPECT_TRUE(has_check(f, "unordered-iter"));
}

TEST(DetlintUnorderedIter, SortedItemsIsTheBlessedPath) {
  const auto f = scan(
      "std::unordered_map<std::string, int> buckets;\n"
      "void g() { for (auto& [k, v] : util::sorted_items(buckets)) emit(k); }\n");
  EXPECT_FALSE(has_check(f, "unordered-iter"));
}

TEST(DetlintUnorderedIter, OrderedMapIsFine) {
  const auto f = scan("std::map<std::string, int> tally;\n"
                      "void g() { for (auto& [k, v] : tally) emit(k); }\n");
  EXPECT_FALSE(has_check(f, "unordered-iter"));
}

TEST(DetlintUnorderedIter, CollectsNestedDeclarations) {
  // vector<unordered_map<...>> — the declared name is still collected.
  const NameSets names = detlint::collect_names(
      "std::vector<std::unordered_map<std::string, double>> word_count;\n");
  EXPECT_EQ(names.unordered.count("word_count"), 1u);
}

// --- pointer-key ------------------------------------------------------

TEST(DetlintPointerKey, FlagsPointerKeyedContainers) {
  EXPECT_TRUE(has_check(scan("std::map<Widget*, int> by_ptr;\n"),
                        "pointer-key"));
  EXPECT_TRUE(has_check(scan("std::set<const Node*> seen;\n"),
                        "pointer-key"));
  EXPECT_TRUE(has_check(scan("std::less<Relay*> cmp;\n"), "pointer-key"));
}

TEST(DetlintPointerKey, ValueKeysAreFine) {
  const auto f = scan("std::map<std::string, Widget*> by_name;\n"
                      "std::set<std::uint32_t> ids;\n");
  EXPECT_FALSE(has_check(f, "pointer-key"));
}

// --- float-accum / rng-parallel --------------------------------------

TEST(DetlintParallel, FlagsFloatAccumulationInParallelRegion) {
  const auto f = scan(
      "void g(double total) {\n"
      "  util::parallel_for(0, n, threads, [&](std::size_t i) {\n"
      "    total += weight(i);\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(has_check(f, "float-accum"));
}

TEST(DetlintParallel, FloatAccumOutsideRegionIsFine) {
  const auto f = scan("void g(double total) { total += 1.0; }\n");
  EXPECT_FALSE(has_check(f, "float-accum"));
}

TEST(DetlintParallel, FlagsSharedRngUse) {
  const auto f = scan(
      "void g(util::Rng& rng) {\n"
      "  util::parallel_for(0, n, threads, [&](std::size_t i) {\n"
      "    double u = rng.uniform();\n"
      "    use(u);\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(has_check(f, "rng-parallel"));
}

TEST(DetlintParallel, ChildDerivationIsTheBlessedPath) {
  const auto f = scan(
      "void g(util::Rng& rng) {\n"
      "  util::parallel_for(0, n, threads, [&](std::size_t i) {\n"
      "    util::Rng local = rng.child(i);\n"
      "    use(local);\n"
      "  });\n"
      "}\n");
  EXPECT_FALSE(has_check(f, "rng-parallel"));
}

// --- suppressions -----------------------------------------------------

TEST(DetlintSuppress, InlineSameLine) {
  const auto f = scan(
      "int r = std::rand();  // detlint-allow(banned-call) seeding demo\n");
  EXPECT_TRUE(has_check(f, "banned-call", /*suppressed=*/true));
  EXPECT_FALSE(has_check(f, "banned-call", /*suppressed=*/false));
}

TEST(DetlintSuppress, InlineNextLine) {
  const auto f = scan(
      "// detlint-allow-next-line(banned-call) seeding demo\n"
      "int r = std::rand();\n");
  EXPECT_TRUE(has_check(f, "banned-call", /*suppressed=*/true));
  EXPECT_FALSE(has_check(f, "banned-call", /*suppressed=*/false));
}

TEST(DetlintSuppress, AnnotationForWrongCheckDoesNotSuppress) {
  const auto f = scan(
      "int r = std::rand();  // detlint-allow(pointer-key) wrong check\n");
  EXPECT_TRUE(has_check(f, "banned-call", /*suppressed=*/false));
}

TEST(DetlintSuppress, FileBasedSuppression) {
  auto findings = scan("int r = std::rand();\n", "src/legacy/old.cpp");
  const auto sups = detlint::parse_suppressions(
      "# comment line\n"
      "\n"
      "src/legacy banned-call migrating off libc PRNG\n");
  ASSERT_EQ(sups.size(), 1u);
  EXPECT_EQ(sups[0].path_substring, "src/legacy");
  EXPECT_EQ(sups[0].check, "banned-call");
  EXPECT_EQ(sups[0].reason, "migrating off libc PRNG");
  detlint::apply_suppressions(findings, sups);
  EXPECT_TRUE(has_check(findings, "banned-call", /*suppressed=*/true));
  EXPECT_FALSE(has_check(findings, "banned-call", /*suppressed=*/false));
}

TEST(DetlintSuppress, PathMismatchDoesNotSuppress) {
  auto findings = scan("int r = std::rand();\n", "src/scan/scanner.cpp");
  const auto sups = detlint::parse_suppressions(
      "src/legacy banned-call migrating\n");
  detlint::apply_suppressions(findings, sups);
  EXPECT_TRUE(has_check(findings, "banned-call", /*suppressed=*/false));
}

// --- stripping --------------------------------------------------------

TEST(DetlintStrip, PreservesLineStructure) {
  const std::string code = "int a; // rand()\n/* time(\n0) */ int b;\n";
  const std::string stripped = detlint::strip_comments_and_strings(code);
  EXPECT_EQ(std::count(code.begin(), code.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("time"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(DetlintStrip, HandlesEscapesAndRawStrings) {
  const std::string code =
      "const char* a = \"quote \\\" rand()\";\n"
      "const char* b = R\"(time(nullptr))\";\n"
      "char c = '\\'';\n"
      "int after = 1;\n";
  const std::string stripped = detlint::strip_comments_and_strings(code);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("time"), std::string::npos);
  EXPECT_NE(stripped.find("int after = 1;"), std::string::npos);
}

// --- the checked-in fixtures -----------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing file: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(DetlintFixture, EveryCheckFiresOnBadPatterns) {
  const std::string path =
      std::string(DETLINT_TESTDATA_DIR) + "/bad_patterns.cpp";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string content = ss.str();

  const NameSets names = detlint::collect_names(content);
  const auto findings = detlint::scan_file(path, content, names);

  for (const std::string check :
       {"banned-call", "unordered-iter", "pointer-key", "float-accum",
        "rng-parallel"}) {
    EXPECT_TRUE(has_check(findings, check))
        << "fixture did not trigger " << check;
  }
  // The fixture's two annotated banned-call lines must be suppressed...
  EXPECT_TRUE(has_check(findings, "banned-call", /*suppressed=*/true));
  // ...and the member call h.time() / rng.child(i) must not appear at
  // all: exactly the expected finding counts, nothing extra.
  EXPECT_EQ(count_check(findings, "rng-parallel"), 1u);
  EXPECT_EQ(count_check(findings, "float-accum"), 1u);
  EXPECT_EQ(count_check(findings, "pointer-key"), 1u);
}

TEST(DetlintFixture, KernelIdiomsStayQuiet) {
  // The PR-7 kernel shapes — eytzinger descent with __builtin_prefetch,
  // lane-transposed round loops, memcpy/memset block splicing — are
  // pure data movement and must never flag. The fixture ends in one
  // deliberate std::rand() canary: exactly one finding distinguishes
  // "nothing to flag" from "file never scanned".
  const std::string path =
      std::string(DETLINT_TESTDATA_DIR) + "/kernel_patterns.cpp";
  const std::string content = read_file(path);
  ASSERT_FALSE(content.empty());

  const NameSets names = detlint::collect_names(content);
  const auto findings = detlint::scan_file(path, content, names);

  EXPECT_EQ(findings.size(), 1u);
  EXPECT_EQ(count_check(findings, "banned-call"), 1u);
}

// --- the real kernel sources -----------------------------------------

TEST(DetlintSources, RingIndexAndSha1BatchAreClean) {
  // Scan the shipped eytzinger-index and batched-SHA-1 sources exactly
  // as the lint gate does (whole-file name pass, header merged with the
  // .cpp) and require zero findings, suppressed or not: the hot kernels
  // carry no determinism escapes at all.
  const std::string root = std::string(TORSIM_SOURCE_DIR);
  const std::vector<std::pair<std::string, std::string>> units = {
      {root + "/src/dirauth/ring_index.hpp",
       root + "/src/dirauth/ring_index.cpp"},
      {root + "/src/crypto/sha1_batch.hpp",
       root + "/src/crypto/sha1_batch.cpp"},
  };
  for (const auto& [header_path, cpp_path] : units) {
    const std::string header = read_file(header_path);
    const std::string cpp = read_file(cpp_path);
    ASSERT_FALSE(header.empty());
    ASSERT_FALSE(cpp.empty());
    NameSets names = detlint::collect_names(header);
    detlint::merge_names(names, detlint::collect_names(cpp));
    for (const auto& [path, content] :
         {std::pair{header_path, header}, std::pair{cpp_path, cpp}}) {
      const auto findings = detlint::scan_file(path, content, names);
      EXPECT_TRUE(findings.empty())
          << path << " has " << findings.size() << " detlint finding(s); "
          << "first: " << (findings.empty() ? "" : findings[0].message);
    }
  }
}

// --- pass registry ----------------------------------------------------

TEST(DetlintPasses, RegistryListsThePipelineInOrder) {
  const auto& p = detlint::passes();
  ASSERT_EQ(p.size(), 5u);
  EXPECT_EQ(p[0].name, "determinism");
  EXPECT_EQ(p[1].name, "layers");
  EXPECT_EQ(p[2].name, "globals");
  EXPECT_EQ(p[3].name, "captures");
  EXPECT_EQ(p[4].name, "hotalloc");
  for (const auto& info : p) EXPECT_FALSE(info.description.empty());
  EXPECT_TRUE(detlint::is_pass_name("layers"));
  EXPECT_FALSE(detlint::is_pass_name("linty"));
}

// --- blank_preprocessor ----------------------------------------------

TEST(DetlintStrip, BlankPreprocessorRemovesDirectivesAndContinuations) {
  const std::string code =
      "#include \"util/base.hpp\"\n"
      "#define BUMP(x) \\\n"
      "  static int x = 0;\n"
      "int live = 1;\n";
  const std::string out = detlint::blank_preprocessor(
      detlint::strip_comments_and_strings(code));
  EXPECT_EQ(out.find("include"), std::string::npos);
  EXPECT_EQ(out.find("define"), std::string::npos);
  // The backslash continuation belongs to the directive and must be
  // blanked too — otherwise the macro body reads as a static decl.
  EXPECT_EQ(out.find("static int x"), std::string::npos);
  EXPECT_NE(out.find("int live = 1;"), std::string::npos);
  EXPECT_EQ(std::count(code.begin(), code.end(), '\n'),
            std::count(out.begin(), out.end(), '\n'));
}

// --- layers pass ------------------------------------------------------

constexpr const char* kTinyLayers =
    "layer util stats\n"
    "layer hsdir\n"
    "layer sim\n"
    "edge hsdir util\n"
    "edge sim hsdir\n"
    "backedge util sim grandfathered callback registration\n";

TEST(DetlintLayers, ParsesLayersEdgesAndBackedges) {
  const detlint::LayerConfig cfg = detlint::parse_layers(kTinyLayers);
  ASSERT_TRUE(cfg.errors.empty()) << cfg.errors[0];
  EXPECT_EQ(cfg.layer_of.at("util"), 1);
  EXPECT_EQ(cfg.layer_of.at("stats"), 1);
  EXPECT_EQ(cfg.layer_of.at("hsdir"), 2);
  EXPECT_EQ(cfg.layer_of.at("sim"), 3);
  EXPECT_EQ(cfg.edges.count({"hsdir", "util"}), 1u);
  EXPECT_EQ(cfg.backedges.at({"util", "sim"}),
            "grandfathered callback registration");
}

TEST(DetlintLayers, RejectsBackedgeWithoutJustification) {
  const auto cfg = detlint::parse_layers(
      "layer util\nlayer sim\nbackedge util sim\n");
  ASSERT_FALSE(cfg.errors.empty());
  EXPECT_NE(cfg.errors[0].find("justification"), std::string::npos);
}

TEST(DetlintLayers, RejectsClimbingEdgeAndUnknownModule) {
  const auto climb =
      detlint::parse_layers("layer util\nlayer sim\nedge util sim\n");
  ASSERT_FALSE(climb.errors.empty());
  EXPECT_NE(climb.errors[0].find("climbs"), std::string::npos);
  const auto unknown = detlint::parse_layers("layer util\nedge util ghost\n");
  ASSERT_FALSE(unknown.errors.empty());
  EXPECT_NE(unknown.errors[0].find("ghost"), std::string::npos);
}

TEST(DetlintLayers, RejectsDuplicateModuleAndSameLayerCycle) {
  const auto dup = detlint::parse_layers("layer util\nlayer util\n");
  ASSERT_FALSE(dup.errors.empty());
  const auto cycle = detlint::parse_layers(
      "layer a b\nedge a b\nedge b a\n");
  ASSERT_FALSE(cycle.errors.empty());
  EXPECT_NE(cycle.errors[0].find("cycle"), std::string::npos);
}

TEST(DetlintLayers, ModuleOfUsesComponentAfterLastSrc) {
  EXPECT_EQ(detlint::module_of("src/hsdir/ring.cpp"), "hsdir");
  EXPECT_EQ(detlint::module_of("/repo/src/util/rng.hpp"), "util");
  // Fixture trees nest a second src/: the LAST one wins.
  EXPECT_EQ(detlint::module_of("tools/detlint/testdata/layers/src/sim/e.cpp"),
            "sim");
  // Outside any src/ tree (tools, tests): unconstrained.
  EXPECT_EQ(detlint::module_of("tools/torsim_cli.cpp"), "");
  EXPECT_EQ(detlint::module_of("src/version.cpp"), "");
}

TEST(DetlintLayers, FlagsBackedgeUndeclaredAndUnknown) {
  const detlint::LayerConfig cfg = detlint::parse_layers(kTinyLayers);
  ASSERT_TRUE(cfg.errors.empty());
  std::set<std::pair<std::string, std::string>> observed;
  const auto up = detlint::check_layers(
      "src/util/x.cpp", "#include \"hsdir/ring.hpp\"\n", cfg, &observed);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].check, "layer-backedge");
  EXPECT_EQ(up[0].pass, "layers");
  EXPECT_EQ(up[0].line, 1);
  const auto sideways = detlint::check_layers(
      "src/hsdir/x.cpp", "#include \"stats/s.hpp\"\n", cfg, &observed);
  ASSERT_EQ(sideways.size(), 1u);
  EXPECT_EQ(sideways[0].check, "undeclared-edge");
  const auto unknown = detlint::check_layers(
      "src/sim/x.cpp", "#include \"mystery/m.hpp\"\n", cfg, &observed);
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].check, "unknown-module");
}

TEST(DetlintLayers, DeclaredEdgesAndBackedgesAreCleanAndObserved) {
  const detlint::LayerConfig cfg = detlint::parse_layers(kTinyLayers);
  std::set<std::pair<std::string, std::string>> observed;
  const auto f = detlint::check_layers(
      "src/sim/engine.cpp",
      "#include \"hsdir/ring.hpp\"\n"
      "#include \"sim/world.hpp\"\n"   // same-module: not an edge
      "#include <vector>\n",           // system include: ignored
      cfg, &observed);
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(observed.count({"sim", "hsdir"}), 1u);
  // A declared backedge is grandfathered: no finding.
  const auto back = detlint::check_layers(
      "src/util/hook.cpp", "#include \"sim/world.hpp\"\n", cfg, &observed);
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(observed.count({"util", "sim"}), 1u);
}

// --- globals pass -----------------------------------------------------

TEST(DetlintGlobals, FlagsEveryKindOfMutableState) {
  const auto f = detlint::check_globals(
      "src/foo.cpp",
      "int counter = 0;\n"
      "thread_local bool tls_in_parallel = false;\n"
      "struct S { static int shared_calls; };\n"
      "int bump() { static int calls = 0; return ++calls; }\n");
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0].symbol, "counter");
  EXPECT_EQ(f[1].symbol, "tls_in_parallel");
  EXPECT_EQ(f[2].symbol, "shared_calls");
  EXPECT_EQ(f[3].symbol, "calls");
  for (const auto& finding : f) {
    EXPECT_EQ(finding.pass, "globals");
    EXPECT_EQ(finding.check, "global-mutable");
  }
}

TEST(DetlintGlobals, ConstAliasesPrototypesAndLocalsStayQuiet) {
  const auto f = detlint::check_globals(
      "src/foo.cpp",
      "namespace fs = std::filesystem;\n"  // alias, not a variable
      "const int kLimit = 4;\n"
      "constexpr double kRatio = 0.5;\n"
      "int free_function(int x);\n"        // prototype
      "struct S { int per_instance = 0; static const int kMax = 8; };\n"
      "int g() { int local = 0; return local; }\n"
      "using Clock = std::uint64_t;\n");
  EXPECT_TRUE(f.empty()) << f[0].symbol;
}

TEST(DetlintGlobals, AllowlistRequiresJustification) {
  std::vector<std::string> errors;
  const auto entries = detlint::parse_globals_allowlist(
      "# comment\n"
      "src/util/memo.cpp enabled process-wide cache knob, epoch-invalidated\n"
      "src/util/logging.cpp g_level\n",  // no justification: error
      &errors);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].path_substring, "src/util/memo.cpp");
  EXPECT_EQ(entries[0].symbol, "enabled");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("justification"), std::string::npos);
}

TEST(DetlintGlobals, AllowlistSuppressesMatchAndReportsStaleEntries) {
  auto findings = detlint::check_globals(
      "src/util/memo.cpp", "bool enabled = true;\nint stray = 0;\n");
  ASSERT_EQ(findings.size(), 2u);
  std::vector<std::string> errors;
  const auto entries = detlint::parse_globals_allowlist(
      "src/util/memo.cpp enabled cache knob\n"
      "src/gone.cpp nothing stale entry that matches no finding\n",
      &errors);
  ASSERT_TRUE(errors.empty());
  std::vector<bool> matched;
  detlint::apply_globals_allowlist(findings, entries, &matched);
  EXPECT_TRUE(findings[0].suppressed);
  EXPECT_FALSE(findings[1].suppressed);  // 'stray' is not allowlisted
  ASSERT_EQ(matched.size(), 2u);
  EXPECT_TRUE(matched[0]);
  EXPECT_FALSE(matched[1]);  // the --check-stale audit reports this one
}

// --- captures pass ----------------------------------------------------

TEST(DetlintCaptures, FlagsUnshardedRefWrite) {
  const auto f = detlint::check_captures(
      "src/foo.cpp",
      "void g(std::size_t n) {\n"
      "  int total = 0;\n"
      "  util::parallel_for(n, 4, [&](std::size_t shard) {\n"
      "    total += 1;\n"
      "  });\n"
      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].check, "ref-capture-write");
  EXPECT_EQ(f[0].symbol, "total");
  EXPECT_EQ(f[0].line, 4);
}

TEST(DetlintCaptures, FollowsNamedLambdaIndirection) {
  const auto f = detlint::check_captures(
      "src/foo.cpp",
      "void g(std::size_t n, std::vector<int>& sink) {\n"
      "  const auto body = [&](std::size_t i) { sink.push_back(1); };\n"
      "  util::parallel_map(n, 4, body);\n"
      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].symbol, "sink");
}

TEST(DetlintCaptures, PerShardSubscriptAndValueCaptureAreClean) {
  const auto f = detlint::check_captures(
      "src/foo.cpp",
      "void g(std::size_t n, std::vector<int>& partials) {\n"
      "  int seed = 7;\n"
      "  util::parallel_for(n, 4, [&](std::size_t shard) {\n"
      "    partials[shard] += seed;\n"  // per-shard slot: clean
      "  });\n"
      "  util::parallel_for(n, 4, [seed](std::size_t shard) {\n"
      "    int local = seed + 1;\n"     // by-value + local: clean
      "    local += 1;\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(f.empty()) << f[0].message;
}

TEST(DetlintCaptures, MemberSelectionIsNotABaseWrite) {
  // Regression: `out[i].stage = ...` must not flag the member name
  // 'stage' as an unsharded by-ref write — only chain bases count.
  const auto f = detlint::check_captures(
      "src/foo.cpp",
      "void g(std::size_t n, std::vector<Row>& out) {\n"
      "  util::parallel_for(n, 4, [&](std::size_t i) {\n"
      "    out[i].stage = 1;\n"
      "    out[i].cells.push_back(2);\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(f.empty()) << f[0].symbol;
}

TEST(DetlintCaptures, LambdaOutsideParallelRegionIsClean) {
  const auto f = detlint::check_captures(
      "src/foo.cpp",
      "void g() {\n"
      "  int total = 0;\n"
      "  const auto bump = [&]() { total += 1; };\n"
      "  bump();\n"
      "}\n");
  EXPECT_TRUE(f.empty());
}

// --- hotalloc pass ----------------------------------------------------

TEST(DetlintHotalloc, FlagsAllocationsInsideAnnotatedFunction) {
  const auto f = detlint::check_hotalloc(
      "src/foo.cpp",
      "// detlint: hot\n"
      "int descend(std::vector<int>& scratch, int x) {\n"
      "  std::string label = \"node\";\n"
      "  scratch.push_back(x);\n"
      "  auto p = std::make_unique<int>(x);\n"
      "  int* raw = new int(x);\n"
      "  return *raw;\n"
      "}\n");
  ASSERT_EQ(f.size(), 4u);
  for (const auto& finding : f) {
    EXPECT_EQ(finding.pass, "hotalloc");
    EXPECT_EQ(finding.check, "hot-alloc");
  }
}

TEST(DetlintHotalloc, UnannotatedFunctionsMayAllocate) {
  const auto f = detlint::check_hotalloc(
      "src/foo.cpp",
      "std::string label(int x) { return std::to_string(x); }\n"
      "void grow(std::vector<int>& v) { v.push_back(1); }\n");
  EXPECT_TRUE(f.empty());
}

TEST(DetlintHotalloc, ProseMentionOfTheMarkerIsNotAnAnnotation) {
  // Regression: detlint's own docs describe the `// detlint: hot`
  // marker in comments; only a comment whose entire text is the bare
  // marker annotates the next function.
  const auto f = detlint::check_hotalloc(
      "src/foo.cpp",
      "// functions annotated '// detlint: hot' must not allocate\n"
      "// detlint: hot kernels are measured (also prose, has a tail)\n"
      "std::string describe() { return std::string(\"x\"); }\n");
  EXPECT_TRUE(f.empty()) << f[0].message;
}

TEST(DetlintHotalloc, StringViewIsNotStringConstruction) {
  const auto f = detlint::check_hotalloc(
      "src/foo.cpp",
      "// detlint: hot\n"
      "int measure(std::string_view name) { return (int)name.size(); }\n");
  EXPECT_TRUE(f.empty()) << f[0].message;
}

// --- JSON output ------------------------------------------------------

TEST(DetlintJson, EmitsStableSortedSchema) {
  std::vector<Finding> findings = {
      {"src/b.cpp", 9, "banned-call", "msg \"quoted\"", false, "",
       "determinism", ""},
      {"src/a.cpp", 3, "global-mutable", "later file first", true,
       "cache knob", "globals", "enabled"},
  };
  detlint::sort_findings(findings);
  EXPECT_EQ(findings[0].file, "src/a.cpp");  // sorted by file first
  const std::string json = detlint::findings_to_json(findings, 2);
  EXPECT_NE(json.find("\"schema\": \"detlint-json-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"unsuppressed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": 1"), std::string::npos);
  EXPECT_NE(json.find("msg \\\"quoted\\\""), std::string::npos);
  EXPECT_LT(json.find("src/a.cpp"), json.find("src/b.cpp"));
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.back(), '\n');
  // Byte-stable: the same findings render the same document.
  EXPECT_EQ(json, detlint::findings_to_json(findings, 2));
}

// --- the new-pass fixtures -------------------------------------------

TEST(DetlintFixture, LayersFixtureTriggersAllThreeChecks) {
  const std::string base = std::string(DETLINT_TESTDATA_DIR) + "/layers";
  const detlint::LayerConfig cfg =
      detlint::parse_layers(read_file(base + "/layers.txt"));
  ASSERT_TRUE(cfg.errors.empty()) << cfg.errors[0];
  std::vector<Finding> findings;
  for (const std::string rel :
       {"/src/util/climbs.cpp", "/src/hsdir/sideways.cpp",
        "/src/sim/engine.cpp"}) {
    const std::string path = base + rel;
    const auto f = detlint::check_layers(path, read_file(path), cfg, nullptr);
    findings.insert(findings.end(), f.begin(), f.end());
  }
  EXPECT_EQ(count_check(findings, "layer-backedge"), 1u);
  EXPECT_EQ(count_check(findings, "undeclared-edge"), 1u);
  EXPECT_EQ(count_check(findings, "unknown-module"), 1u);
}

TEST(DetlintFixture, GlobalsFixtureCensusMatchesAnnotations) {
  const std::string path =
      std::string(DETLINT_TESTDATA_DIR) + "/globals/bad_globals.cpp";
  auto findings = detlint::check_globals(path, read_file(path));
  // Six FLAG comments + the allowlisted knob.
  ASSERT_EQ(findings.size(), 7u);
  std::vector<std::string> errors;
  const auto entries = detlint::parse_globals_allowlist(
      read_file(std::string(DETLINT_TESTDATA_DIR) + "/globals/allowlist.txt"),
      &errors);
  ASSERT_TRUE(errors.empty());
  detlint::apply_globals_allowlist(findings, entries, nullptr);
  EXPECT_EQ(count_check(findings, "global-mutable"), 7u);
  EXPECT_TRUE(has_check(findings, "global-mutable", /*suppressed=*/true));
  std::size_t unsuppressed = 0;
  for (const auto& f : findings)
    if (!f.suppressed) ++unsuppressed;
  EXPECT_EQ(unsuppressed, 6u);
}

TEST(DetlintFixture, CapturesFixturesSplitGoodFromBad) {
  const std::string base = std::string(DETLINT_TESTDATA_DIR) + "/captures";
  const auto bad = detlint::check_captures(base + "/bad_captures.cpp",
                                           read_file(base +
                                                     "/bad_captures.cpp"));
  EXPECT_EQ(count_check(bad, "ref-capture-write"), 3u);
  const auto good = detlint::check_captures(base + "/good_captures.cpp",
                                            read_file(base +
                                                      "/good_captures.cpp"));
  EXPECT_TRUE(good.empty()) << good[0].message;
}

TEST(DetlintFixture, HotallocFixturesSplitGoodFromBad) {
  const std::string base = std::string(DETLINT_TESTDATA_DIR) + "/hotalloc";
  const auto bad = detlint::check_hotalloc(base + "/bad_hotalloc.cpp",
                                           read_file(base +
                                                     "/bad_hotalloc.cpp"));
  EXPECT_EQ(count_check(bad, "hot-alloc"), 4u);
  const auto good = detlint::check_hotalloc(base + "/good_hotalloc.cpp",
                                            read_file(base +
                                                      "/good_hotalloc.cpp"));
  EXPECT_TRUE(good.empty()) << good[0].message;
}

// --- the shipped hot kernels stay clean under every pass --------------

TEST(DetlintSources, AnnotatedHotKernelsAreAllocationFree) {
  const std::string root = std::string(TORSIM_SOURCE_DIR);
  for (const std::string rel :
       {"/src/dirauth/ring_index.cpp", "/src/crypto/sha1_batch.cpp",
        "/src/popularity/resolver.cpp"}) {
    const std::string path = root + rel;
    const std::string content = read_file(path);
    ASSERT_FALSE(content.empty()) << path;
    const auto f = detlint::check_hotalloc(path, content);
    EXPECT_TRUE(f.empty()) << path << ": " << (f.empty() ? "" : f[0].message);
    // And each of these files really carries at least one annotation —
    // an empty result must mean "clean", never "marker not found".
    EXPECT_NE(content.find("// detlint: hot"), std::string::npos) << path;
  }
}

// --- CLI end-to-end ---------------------------------------------------

#ifdef DETLINT_BIN

/// Runs the detlint binary, captures stdout+stderr, returns the exit
/// code (-1 on popen failure).
int run_cli(const std::string& args, std::string* output) {
  const std::string cmd = std::string(DETLINT_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  output->clear();
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) *output += buf;
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(DetlintCli, ListPassesPrintsThePipeline) {
  std::string out;
  EXPECT_EQ(run_cli("--list-passes", &out), 0);
  EXPECT_EQ(out, "determinism\nlayers\nglobals\ncaptures\nhotalloc\n");
}

TEST(DetlintCli, JsonOutputCarriesTheSchema) {
  const std::string fixture =
      std::string(DETLINT_TESTDATA_DIR) + "/hotalloc/good_hotalloc.cpp";
  std::string out;
  EXPECT_EQ(run_cli("--json --passes=hotalloc " + fixture, &out), 0);
  EXPECT_NE(out.find("\"schema\": \"detlint-json-v1\""), std::string::npos);
  EXPECT_NE(out.find("\"findings\": []"), std::string::npos);
}

TEST(DetlintCli, UnreadableInputIsAnIoErrorNotACleanRun) {
  // Regression: detlint used to exit 0 when an input file could not be
  // read — a vanished file silently passed the gate. I/O problems are
  // exit 3, distinct from findings (1) and usage errors (2).
  std::string out;
  EXPECT_EQ(run_cli("--passes=determinism /dev/null", &out), 3);
  EXPECT_NE(out.find("cannot read"), std::string::npos);
}

TEST(DetlintCli, UsageErrorsExitTwo) {
  std::string out;
  EXPECT_EQ(run_cli("--no-such-flag", &out), 2);
  EXPECT_EQ(run_cli("--passes=imaginary src", &out), 2);
}

#endif  // DETLINT_BIN

}  // namespace
