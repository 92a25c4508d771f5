// Open-loop HTTP load generator over loopback.
//
// One thread walks a fixed schedule of requests. A request is sent when
// it is due and one of at most `max_in_flight` connections is free; its
// latency is timed from when it was due, so a stall in the server counts
// against every request it delays. Each request uses its own connection
// (the server answers with Connection: close).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace.hpp"

namespace vpbench {

struct PlannedRequest {
  double due_s = 0.0;  ///< offset from the generator's start
  std::string target;  ///< path and query, e.g. "/block/1.2.3.4?rid=7"
  int kind = 0;        ///< caller-defined class (block, load, ...)
};

struct RequestResult {
  bool answered = false;   ///< full response received within the timeout
  int status = 0;          ///< HTTP status code (0 if none)
  double latency_ms = 0.0; ///< due time -> last response byte (or timeout)
  double late_ms = 0.0;    ///< due time -> send (generator lateness)
  std::string body;
};

struct LoadGenConfig {
  std::uint16_t port = 0;
  std::size_t max_in_flight = 2;
  double timeout_ms = 1000.0;  ///< from the due time
};

/// Called from the generator thread before a request is sent, with the
/// request index and the id of its "net.http" span (-1 untraced). Lets
/// the server-side handler attach its span to the request.
using SendHook = std::function<void(std::size_t index, int http_span)>;

/// Runs `plan` (sorted by due time) and returns one result per request.
/// Traced: every request records a root "request" span (op = index) with
/// children "gen.wait" (due -> send) and "net.http" (send -> done).
std::vector<RequestResult> run_open_loop(const std::vector<PlannedRequest>& plan,
                                         const LoadGenConfig& config,
                                         Tracer& tracer,
                                         const SendHook& on_send);

/// One blocking GET with a generous timeout (used for the final /map).
RequestResult http_get(std::uint16_t port, const std::string& target,
                       double timeout_ms);

}  // namespace vpbench
