// detlint — multi-pass determinism analyzer for the torsim tree.
//
// The whole reproduction rests on one invariant: byte-identical output
// for every seed and every --threads value. A seed must fully determine
// every CSV row, golden and report, and the worker count must never
// show in them. detlint statically checks the code patterns that break
// it, as a pipeline of passes sharing one tokenizer and per-file symbol
// sketch:
//
//   determinism  the original PR-3 checks (banned-call, unordered-iter,
//                pointer-key, float-accum, rng-parallel): no ambient
//                clocks/PRNGs, no hash-order emission, no scheduler-
//                ordered accumulation.
//   layers       the module dependency DAG declared in
//                tools/detlint/layers.txt: every cross-module
//                `#include "..."` edge under src/ must be declared, and
//                an edge against the layer order must carry a justified
//                `backedge` grandfather entry. New coupling cannot
//                sneak in unreviewed.
//   globals      census of namespace-scope / function-`static` /
//                `thread_local` mutable state. Every hit must be
//                allowlisted (with justification) in
//                tools/detlint/globals_allowlist.txt — state shared by
//                every run and thread of a process is where output can
//                start to depend on call order or worker count.
//   captures     inside lambdas handed to parallel_for/parallel_map:
//                by-reference capture of a name that the body writes
//                without a per-task index subscript. The order-lucky
//                pattern the serial-equivalence goldens only catch
//                dynamically.
//   hotalloc     inside functions annotated `// detlint: hot`: `new`,
//                make_unique/make_shared, std::string construction,
//                and container growth calls. The ring descent, SHA-1
//                lanes, and resolver tally must stay allocation-free.
//
// Findings are suppressed either inline —
//   ... flagged code ...  // detlint-allow(check-name) reason
//   // detlint-allow-next-line(check-name) reason
// — or via a checked-in suppression file (tools/detlint/suppressions.txt)
// of lines "path-substring check-name reason". Every suppression is an
// explicit, justified annotation; unsuppressed findings fail the build
// (ctest -L lint, CI).
//
// The scanner is deliberately lexical (no AST): it blanks comments and
// string literals, collects declared names in a whole-tree pass, then
// pattern-matches per line with a small scope tracker where a pass
// needs one. That keeps it dependency-free, fast, and easy to extend;
// the price is that checks are heuristics — precise enough for this
// tree, with suppressions as the escape hatch.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace detlint {

struct Finding {
  std::string file;
  int line = 0;            // 1-based
  std::string check;       // e.g. "banned-call"
  std::string message;
  bool suppressed = false;
  std::string suppress_reason;
  std::string pass;        // owning pass, e.g. "determinism"
  std::string symbol;      // globals pass: the declared name
};

/// One line of the suppression file: findings whose path contains
/// `path_substring` and whose check equals `check` are suppressed.
struct Suppression {
  std::string path_substring;
  std::string check;
  std::string reason;
};

/// Names declared in the scanned tree, collected before the per-file
/// check pass so members declared in a header are recognised when a
/// .cpp iterates them.
struct NameSets {
  std::set<std::string> unordered;  // unordered_map/unordered_set vars
  std::set<std::string> floats;     // double/float vars
  std::set<std::string> rngs;       // util::Rng vars
};

// --- pass registry ----------------------------------------------------

struct PassInfo {
  std::string name;
  std::string description;
};

/// The pipeline, in execution order. `--list-passes` prints exactly
/// this, one name per line, so CI scripts can iterate it.
const std::vector<PassInfo>& passes();

bool is_pass_name(const std::string& name);

// --- shared lexer -----------------------------------------------------

/// Replaces comments and string/char literal contents with spaces,
/// preserving line structure. Inline `detlint-allow` annotations are
/// honoured from the original text, not this stripped copy.
std::string strip_comments_and_strings(const std::string& content);

/// Additionally blanks preprocessor directives (including backslash
/// continuations) — used by the scope-tracking passes, which must not
/// mistake a macro body for a declaration.
std::string blank_preprocessor(const std::string& stripped);

/// Collects declared container/float/Rng names from one file.
NameSets collect_names(const std::string& content);

void merge_names(NameSets& into, const NameSets& from);

/// Marks findings covered by an inline `detlint-allow(check)` /
/// `detlint-allow-next-line(check)` annotation as suppressed. Pass the
/// ORIGINAL (unstripped) file content.
void apply_inline_annotations(const std::string& content,
                              std::vector<Finding>& findings);

// --- determinism pass -------------------------------------------------

/// Runs every determinism check over one file and applies inline
/// annotations. `path` is used for reporting and for path-scoped
/// exemptions (std::random_device under src/util/rng).
std::vector<Finding> scan_file(const std::string& path,
                               const std::string& content,
                               const NameSets& names);

// --- layers pass ------------------------------------------------------

/// The declared module dependency DAG (tools/detlint/layers.txt):
///   layer <mod> [<mod> ...]      one line per layer, lowest first
///   edge <src> <dst>             declared include edge; <dst> must sit
///                                on the same or a lower layer
///   backedge <src> <dst> reason  grandfathered edge against the layer
///                                order; the justification is required
struct LayerConfig {
  std::map<std::string, int> layer_of;  // module -> 1-based layer
  std::set<std::pair<std::string, std::string>> edges;
  std::map<std::pair<std::string, std::string>, std::string> backedges;
  std::vector<std::string> errors;  // fatal config problems
  // Declaration line numbers, for stale-entry reporting.
  std::map<std::pair<std::string, std::string>, int> edge_lines;
};

LayerConfig parse_layers(const std::string& text);

/// Module owning `path`: the path component following the last "src/"
/// component, or "" when the file is not under a src/ tree (tools and
/// tests sit above the DAG and are unconstrained).
std::string module_of(const std::string& path);

/// Checks every `#include "..."` edge of one file against the declared
/// DAG. Observed cross-module edges are added to `observed` (may be
/// null) for stale-entry detection.
std::vector<Finding> check_layers(
    const std::string& path, const std::string& content,
    const LayerConfig& config,
    std::set<std::pair<std::string, std::string>>* observed);

// --- globals pass -----------------------------------------------------

/// One line of tools/detlint/globals_allowlist.txt:
///   path-substring symbol justification...
/// The justification is mandatory — every piece of process-wide mutable
/// state must say why no output depends on it.
struct GlobalsAllowEntry {
  std::string path_substring;
  std::string symbol;
  std::string reason;
  int line = 0;  // 1-based line in the allowlist file
};

std::vector<GlobalsAllowEntry> parse_globals_allowlist(
    const std::string& text, std::vector<std::string>* errors);

/// Census of mutable namespace-scope variables, function-local statics,
/// thread_locals, and static data members in one file.
std::vector<Finding> check_globals(const std::string& path,
                                   const std::string& content);

/// Suppresses globals findings matched by an allowlist entry; sets
/// `matched[i]` for every entry that matched at least once.
void apply_globals_allowlist(std::vector<Finding>& findings,
                             const std::vector<GlobalsAllowEntry>& entries,
                             std::vector<bool>* matched);

// --- captures pass ----------------------------------------------------

/// Flags by-reference captures written inside parallel_for/parallel_map
/// lambda bodies without a per-task index subscript. Follows one level
/// of named-lambda indirection (`const auto body = [&](...){...};
/// parallel_map(n, t, body)`).
std::vector<Finding> check_captures(const std::string& path,
                                    const std::string& content);

// --- hotalloc pass ----------------------------------------------------

/// Flags allocation calls inside functions annotated with a
/// `// detlint: hot` comment line directly above the definition.
std::vector<Finding> check_hotalloc(const std::string& path,
                                    const std::string& content);

// --- suppressions -----------------------------------------------------

/// Parses the suppression file format: one `path-substring check reason`
/// per line, '#' comments, blank lines ignored.
std::vector<Suppression> parse_suppressions(const std::string& text);

/// Marks findings matched by a suppression entry.
void apply_suppressions(std::vector<Finding>& findings,
                        const std::vector<Suppression>& suppressions);

// --- output -----------------------------------------------------------

/// Stable sort for human and JSON output: (file, line, pass, check,
/// message).
void sort_findings(std::vector<Finding>& findings);

/// Renders findings as the `detlint-json-v1` document: findings sorted
/// by file:line:pass, every field explicit, trailing newline — byte-
/// stable across runs so CI artifacts diff cleanly.
std::string findings_to_json(const std::vector<Finding>& findings,
                             std::size_t files_scanned);

}  // namespace detlint
