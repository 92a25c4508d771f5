#include "load_gen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <ctime>

namespace vpbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Connection {
  int fd = -1;
  std::size_t index = 0;
  bool connected = false;
  std::string out;
  std::size_t sent = 0;
  std::string in;
  int request_span = -1;
  int http_span = -1;
};

/// Closes with an immediate reset so neither end keeps the 4-tuple in
/// TIME_WAIT; thousands of short connections per second would otherwise
/// run the loopback port range dry.
void close_now(int fd) {
  const linger reset{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
  ::close(fd);
}

int open_connection(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Parses "HTTP/1.x NNN ..." and splits off the body.
void parse_response(const std::string& raw, RequestResult& result) {
  if (raw.rfind("HTTP/1.", 0) == 0 && raw.size() >= 12)
    result.status = std::atoi(raw.c_str() + 9);
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end != std::string::npos) result.body = raw.substr(header_end + 4);
}

}  // namespace

std::vector<RequestResult> run_open_loop(const std::vector<PlannedRequest>& plan,
                                         const LoadGenConfig& config,
                                         Tracer& tracer,
                                         const SendHook& on_send) {
  std::vector<RequestResult> results(plan.size());
  const auto start = Clock::now();
  const auto timeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(config.timeout_ms));
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(plan[i].due_s));
  };
  const auto finish = [&](Connection& c, Clock::time_point now, bool answered) {
    RequestResult& r = results[c.index];
    r.latency_ms = std::chrono::duration<double, std::milli>(now - due(c.index)).count();
    r.answered = answered && r.latency_ms <= config.timeout_ms;
    if (answered) parse_response(c.in, r);
    tracer.end_at(c.http_span, now);
    tracer.end_at(c.request_span, now);
    if (c.fd >= 0) close_now(c.fd);
    c.fd = -1;
  };

  std::vector<Connection> active;
  std::vector<pollfd> fds;
  std::size_t next = 0;
  char buffer[65536];
  while (next < plan.size() || !active.empty()) {
    auto now = Clock::now();
    // Requests whose whole answer window passed before a connection was
    // free are failed unsent.
    while (next < plan.size() && now >= due(next) + timeout) {
      RequestResult& r = results[next];
      r.latency_ms = config.timeout_ms;
      r.late_ms = std::chrono::duration<double, std::milli>(now - due(next)).count();
      const int span = tracer.record("request", due(next), now, -1, next);
      tracer.record("gen.wait", due(next), now, span, next);
      ++next;
    }
    for (Connection& c : active)
      if (now >= due(c.index) + timeout) finish(c, now, false);
    std::erase_if(active, [](const Connection& c) { return c.fd < 0; });

    while (active.size() < config.max_in_flight && next < plan.size() &&
           due(next) <= now) {
      Connection c;
      c.index = next++;
      c.out = "GET " + plan[c.index].target +
              " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
      results[c.index].late_ms =
          std::chrono::duration<double, std::milli>(now - due(c.index)).count();
      c.request_span = tracer.begin_at("request", due(c.index), -1, c.index);
      tracer.record("gen.wait", due(c.index), now, c.request_span, c.index);
      c.http_span = tracer.begin_at("net.http", now, c.request_span, c.index);
      if (on_send) on_send(c.index, c.http_span);
      c.fd = open_connection(config.port);
      if (c.fd < 0) {
        finish(c, now, false);
        continue;
      }
      active.push_back(std::move(c));
      now = Clock::now();
    }

    // Sleep until the next event: socket readiness, the next due request
    // (when a connection is free) or the earliest deadline.
    auto wake = now + std::chrono::milliseconds(50);
    if (next < plan.size()) {
      wake = std::min(wake, due(next) + timeout);
      if (active.size() < config.max_in_flight) wake = std::min(wake, due(next));
    }
    for (const Connection& c : active) wake = std::min(wake, due(c.index) + timeout);
    fds.clear();
    for (const Connection& c : active) {
      const bool writing = !c.connected || c.sent < c.out.size();
      fds.push_back(pollfd{c.fd, static_cast<short>(writing ? POLLOUT : POLLIN), 0});
    }
    const auto wait = std::max(Clock::duration::zero(), wake - now);
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(
        std::chrono::duration_cast<std::chrono::seconds>(wait).count());
    ts.tv_nsec = static_cast<long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count() %
        1'000'000'000);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;

    now = Clock::now();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Connection& c = active[i];
      const short ev = fds[i].revents;
      if (ev == 0 || c.fd < 0) continue;
      if (!c.connected) {
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          finish(c, now, false);
          continue;
        }
        c.connected = true;
      }
      if (c.sent < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.sent,
                                 c.out.size() - c.sent, MSG_NOSIGNAL);
        if (n > 0) c.sent += static_cast<std::size_t>(n);
        else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
          finish(c, now, false);
        continue;
      }
      for (;;) {
        const ssize_t n = ::recv(c.fd, buffer, sizeof buffer, 0);
        if (n > 0) {
          c.in.append(buffer, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) finish(c, Clock::now(), true);
        else if (errno != EAGAIN && errno != EWOULDBLOCK) finish(c, now, false);
        break;
      }
    }
    std::erase_if(active, [](const Connection& c) { return c.fd < 0; });
  }
  return results;
}

RequestResult http_get(std::uint16_t port, const std::string& target,
                       double timeout_ms) {
  Tracer untraced{false};
  LoadGenConfig config;
  config.port = port;
  config.max_in_flight = 1;
  config.timeout_ms = timeout_ms;
  return run_open_loop({PlannedRequest{0.0, target, 0}}, config, untraced, {})
      .front();
}

}  // namespace vpbench
