// Blocking protocol client for the `torsim serve` unix socket: the building
// block of the load generator and of test harnesses. One Client is one
// connection; it is not thread-safe (each load-generator worker owns
// its own).
#pragma once

#include <string>

#include "serve/proto.hpp"

namespace torsim::serve {

class Client {
 public:
  /// Remembers the path; connect() establishes the connection.
  explicit Client(std::string socket_path);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects (closing any previous connection). Throws
  /// std::runtime_error on failure.
  void connect();
  void close();
  bool connected() const { return fd_ >= 0; }

  /// Sends one request frame. Throws std::runtime_error on a dead
  /// connection.
  void send(const Request& request);

  /// Blocks for the next response frame (any id). Throws
  /// std::runtime_error on connection loss or receive timeout, and
  /// std::invalid_argument when the peer's frame fails strict parsing
  /// (a garbled connection — reconnect and resend).
  Response receive();

  /// Closed-loop round trip: send, then receive until the response id
  /// matches `request.id` (responses for other ids — stale retries —
  /// are discarded). Retry-after responses are returned to the caller,
  /// which owns the back-off policy.
  Response call(const Request& request);

  /// Receive timeout; guards tests against a wedged daemon.
  void set_timeout_millis(int millis) { timeout_millis_ = millis; }

 private:
  std::string socket_path_;
  int fd_ = -1;
  int timeout_millis_ = 10000;
  FrameReader reader_;
};

}  // namespace torsim::serve
