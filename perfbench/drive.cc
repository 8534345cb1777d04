// Open-loop TCP driver: sends a pre-drawn schedule of protocol lines to the
// server over loopback from a single thread, whatever the server's pace,
// and times every line from its intended send time.
//
//   perfbench_tool drive <port> <schedule> <out> <drain_s>
//
// <schedule> holds one request per line, "<intended_us> <conn> <line>",
// sorted by intended time; <conn> is a 0-based connection index. Each
// connection's responses arrive in request order (the server executes a
// connection's lines in order), so they are matched FIFO. After the last
// intended send the driver waits up to <drain_s> seconds for outstanding
// responses; a request still unanswered then is reported unanswered.
//
// <out> gets one line per request, in schedule order:
//   "<sent_ns> <done_ns> <response>"
// with times relative to the schedule's zero: when the request's last byte
// was written and when its response's last byte arrived; -1 for a step that
// never happened.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <fstream>
#include <string>
#include <vector>

#include "tool.h"

namespace perfbench {

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

struct Request {
  int64_t intended_ns = 0;
  uint32_t conn = 0;
  std::string line;
  int64_t sent_ns = -1;
  int64_t done_ns = -1;
  std::string response;
};

struct Conn {
  int fd = -1;
  bool open = false;
  std::string out;     // bytes queued for the socket
  size_t out_off = 0;  // bytes of `out` already written
  /// Requests whose bytes sit in `out`, with the offset just past them.
  std::deque<std::pair<size_t, size_t>> unsent;
  /// Requests sent (or queued) and not yet answered, in order.
  std::deque<size_t> awaiting;
  std::string in;  // partial response line
};

int Connect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Writes as much queued output as the socket takes; stamps the requests
/// whose last byte went out.
void Flush(Conn& c, std::vector<Request>& reqs, int64_t t0) {
  while (c.open && c.out_off < c.out.size()) {
    const ssize_t n =
        write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) c.open = false;
      break;
    }
    c.out_off += static_cast<size_t>(n);
  }
  const int64_t now = NowNs() - t0;
  while (!c.unsent.empty() && c.unsent.front().second <= c.out_off) {
    reqs[c.unsent.front().first].sent_ns = now;
    c.unsent.pop_front();
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
}

/// Reads everything available and completes the requests whose response
/// lines ended. Returns the number of requests completed.
size_t Drain(Conn& c, std::vector<Request>& reqs, int64_t t0) {
  size_t completed = 0;
  char buf[65536];
  while (c.open) {
    const ssize_t n = read(c.fd, buf, sizeof(buf));
    if (n == 0) {
      c.open = false;
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) c.open = false;
      break;
    }
    const int64_t now = NowNs() - t0;
    size_t start = 0;
    for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
      if (buf[i] != '\n') continue;
      c.in.append(buf + start, i - start);
      start = i + 1;
      if (c.awaiting.empty()) {  // unsolicited line: a protocol error
        c.in.clear();
        continue;
      }
      Request& r = reqs[c.awaiting.front()];
      c.awaiting.pop_front();
      r.done_ns = now;
      r.response.swap(c.in);
      c.in.clear();
      ++completed;
    }
    c.in.append(buf + start, static_cast<size_t>(n) - start);
  }
  return completed;
}

bool ReadSchedule(const char* path, std::vector<Request>* reqs,
                  uint32_t* num_conns) {
  std::ifstream in(path);
  if (!in) return false;
  std::string text;
  while (std::getline(in, text)) {
    if (text.empty()) continue;
    char* end = nullptr;
    Request r;
    r.intended_ns = std::strtoll(text.c_str(), &end, 10) * 1000;
    const char* p = end;
    r.conn = static_cast<uint32_t>(std::strtoul(p, &end, 10));
    if (end == p || *end != ' ') return false;
    r.line = std::string(end + 1) + "\n";
    if (!reqs->empty() && r.intended_ns < reqs->back().intended_ns) {
      return false;
    }
    *num_conns = std::max(*num_conns, r.conn + 1);
    reqs->push_back(std::move(r));
  }
  return !reqs->empty();
}

}  // namespace

int RunDrive(int argc, char** argv) {
  if (argc != 6) {
    std::fprintf(stderr, "usage: drive <port> <schedule> <out> <drain_s>\n");
    return 2;
  }
  const long port = std::strtol(argv[2], nullptr, 10);
  const double drain_s = std::strtod(argv[5], nullptr);
  std::vector<Request> reqs;
  uint32_t num_conns = 0;
  if (port <= 0 || port > 65535 || !(drain_s > 0.0) ||
      !ReadSchedule(argv[3], &reqs, &num_conns)) {
    std::fprintf(stderr, "drive: bad port, drain or schedule %s\n", argv[3]);
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  // Wake-ups land on the intended send times, not 50us later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  std::vector<Conn> conns(num_conns);
  for (Conn& c : conns) {
    c.fd = Connect(static_cast<uint16_t>(port));
    if (c.fd < 0) {
      std::fprintf(stderr, "drive: cannot connect to port %ld\n", port);
      return 1;
    }
    c.open = true;
  }

  const int64_t t0 = NowNs() + 20'000'000;  // schedule zero, after set-up
  const int64_t deadline =
      reqs.back().intended_ns + static_cast<int64_t>(drain_s * 1e9);
  size_t next = 0;
  size_t answered = 0;
  std::vector<pollfd> fds(num_conns);
  while (answered < reqs.size()) {
    int64_t now = NowNs() - t0;
    while (next < reqs.size() && reqs[next].intended_ns <= now) {
      Request& r = reqs[next];
      Conn& c = conns[r.conn];
      c.out += r.line;
      c.unsent.emplace_back(next, c.out.size());
      c.awaiting.push_back(next);
      Flush(c, reqs, t0);
      ++next;
    }
    now = NowNs() - t0;
    if (now >= deadline) break;
    const int64_t wake =
        next < reqs.size() ? reqs[next].intended_ns : deadline;
    const int64_t wait_ns = std::max<int64_t>(0, wake - now);
    bool any_open = false;
    for (uint32_t i = 0; i < num_conns; ++i) {
      fds[i].fd = conns[i].open ? conns[i].fd : -1;
      fds[i].events = static_cast<short>(
          POLLIN | (conns[i].out_off < conns[i].out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
      any_open = any_open || conns[i].open;
    }
    if (!any_open) break;
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    if (ppoll(fds.data(), num_conns, &ts, nullptr) < 0 && errno != EINTR) {
      std::perror("drive: ppoll");
      return 1;
    }
    for (uint32_t i = 0; i < num_conns; ++i) {
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        answered += Drain(conns[i], reqs, t0);
      }
      if (fds[i].revents & POLLOUT) Flush(conns[i], reqs, t0);
    }
  }
  for (Conn& c : conns) close(c.fd);

  std::FILE* out = std::fopen(argv[4], "w");
  if (out == nullptr) {
    std::perror("drive: output");
    return 1;
  }
  for (const Request& r : reqs) {
    std::fprintf(out, "%lld %lld %s\n", static_cast<long long>(r.sent_ns),
                 static_cast<long long>(r.done_ns), r.response.c_str());
  }
  const bool wrote = std::fclose(out) == 0;
  std::printf("{\"requests\":%zu,\"answered\":%zu}\n", reqs.size(), answered);
  return wrote ? 0 : 1;
}

}  // namespace perfbench
