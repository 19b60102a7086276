// torsim-serve-v1: the wire protocol between the warm-world daemon
// (`torsim serve`) and its clients (torsim load / torsim query scripts).
//
// A message is a length-prefixed frame (4-byte big-endian length, then
// that many bytes of text) whose body is a small line-oriented document
// in the scenario-DSL house style: fixed header line, fixed field
// order, strict parse with 1-based line-numbered errors, and a
// canonical renderer with parse(render(x)) == x. See docs/serving.md
// for the full specification and the determinism contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace torsim::serve {

/// Protocol version; bumped on any wire-visible change.
inline constexpr int kProtocolVersion = 1;

/// Hard cap on one frame's body; a peer announcing a larger frame is
/// malformed (or garbled) and the connection is torn down.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

/// The typed queries a WorldSession executes.
enum class QueryKind {
  kStats,         ///< network totals at the current hour
  kHarvest,       ///< service snapshots (onion, descriptor ids) for a range
  kResolve,       ///< read-only descriptor resolution probe for a range
  kScan,          ///< simulated port scan over a range
  kPopularity,    ///< Zipf-weighted fetch tally, top-N services
  kScenarioStep,  ///< advance the world N hours (mutating)
  kShutdown,      ///< stop the daemon after acknowledging (mutating)
};

/// Canonical kind name ("scenario-step" style slugs).
std::string_view query_kind_name(QueryKind kind);

/// Inverse of query_kind_name; throws std::invalid_argument on unknown
/// names.
QueryKind query_kind_from_name(std::string_view name);

/// True for kinds that mutate the world: the batcher executes them as
/// serial barriers instead of fanning them out (docs/serving.md).
bool is_mutating(QueryKind kind);

/// One request. `id` is the client's correlation id (echoed back in
/// the response); `client` is the client's self-assigned id, used by
/// the batcher's (arrival-seq, client) ordering. The remaining fields
/// are per-kind parameters; unused ones must stay 0 (the canonical
/// renderer only emits the fields meaningful for the kind, so a
/// request with stray values would not survive a render/parse
/// round-trip).
struct Request {
  std::uint64_t id = 0;
  std::uint64_t client = 0;
  QueryKind kind = QueryKind::kStats;
  std::uint64_t first = 0;     ///< harvest/resolve/scan: first service index
  std::uint64_t count = 0;     ///< harvest/resolve/scan: number of services
  std::uint64_t seed = 0;      ///< scan/popularity: query-local RNG label
  std::uint64_t requests = 0;  ///< popularity: fetches to draw
  std::uint64_t top = 0;       ///< popularity: ranks to report
  std::uint64_t hours = 0;     ///< scenario-step: hours to advance

  bool operator==(const Request&) const = default;
};

enum class Status {
  kOk,
  kError,       ///< request was understood but failed; see `error`
  kRetryAfter,  ///< admission control rejected; retry after `retry_after`
};

std::string_view status_name(Status status);
Status status_from_name(std::string_view name);

/// One response. `data` carries the payload lines for kOk (rendered
/// with a two-space indent on the wire); `error` the message for
/// kError; `retry_after` the back-off hint in batch ticks for
/// kRetryAfter.
struct Response {
  std::uint64_t id = 0;
  Status status = Status::kOk;
  std::string error;
  std::uint64_t retry_after = 0;
  std::vector<std::string> data;

  bool operator==(const Response&) const = default;
};

// --- document parse/render ----------------------------------------

/// Parses one request document. Strict: fixed field order, no unknown
/// keys, full-consumption integers, per-kind parameter validation.
/// Blank lines and '#' comments are ignored. Throws
/// std::invalid_argument("serve parse error at line N: ...").
Request parse_request(std::string_view text);

/// Canonical request rendering; parse_request(render_request(r)) == r
/// for every valid request.
std::string render_request(const Request& request);

/// Parses one response document; same strictness and error style.
Response parse_response(std::string_view text);

/// Canonical response rendering; round-trips like render_request.
std::string render_response(const Response& response);

/// Parses a script: a sequence of request documents (each starting
/// with its header line) separated by optional blank lines/comments.
/// Line numbers in errors refer to the whole script.
std::vector<Request> parse_script(std::string_view text);

/// Validates per-kind parameters beyond what parsing enforces (e.g.
/// count > 0 for range queries); returns a non-empty message on the
/// first violation, empty when valid. The session rejects invalid
/// requests with a kError response built from this message.
std::string validate_request(const Request& request);

// --- framing -------------------------------------------------------

/// Wraps a document body into a frame: 4-byte big-endian length, then
/// the body bytes. Throws std::invalid_argument when the body exceeds
/// kMaxFrameBytes.
std::string encode_frame(std::string_view body);

/// Incremental frame decoder for one connection: feed() raw bytes as
/// they arrive, take complete bodies out of frames(). A declared
/// length above kMaxFrameBytes poisons the reader — feed() throws
/// std::invalid_argument then and on every later call, and the caller
/// must drop the connection.
class FrameReader {
 public:
  /// Appends raw bytes; returns the number of complete frames now
  /// available via next_frame().
  std::size_t feed(std::string_view bytes);

  /// Pops the oldest complete frame body; returns false when none is
  /// pending.
  bool next_frame(std::string& body);

  /// Bytes buffered but not yet forming a complete frame.
  std::size_t pending_bytes() const { return buffer_.size() - read_pos_; }

 private:
  std::string buffer_;
  std::vector<std::string> complete_;
  std::size_t read_pos_ = 0;
  bool poisoned_ = false;
};

}  // namespace torsim::serve
