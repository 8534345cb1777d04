#include "net/socket_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace hkpr {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Sends `buf` to the non-blocking socket `fd` until it is empty or the
/// kernel refuses more, erasing what was sent. Returns false when the peer
/// is gone. MSG_NOSIGNAL: a write to a peer that has closed must fail with
/// EPIPE, not raise SIGPIPE, whose default action ends the process.
bool SendBuffered(int fd, std::string& buf) {
  while (!buf.empty()) {
    const ssize_t n = send(fd, buf.data(), buf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      buf.erase(0, static_cast<size_t>(n));
      continue;
    }
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

}  // namespace

SocketServer::SocketServer(CommandProcessor& processor,
                           SocketServerOptions options)
    : processor_(processor), options_(std::move(options)) {}

SocketServer::~SocketServer() { Stop(); }

bool SocketServer::Start() {
  if (running_.load()) return true;
  error_.clear();

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + strerror(errno);
    return false;
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    error_ = "bad bind address \"" + options_.bind_address + "\"";
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    error_ = std::string("bind: ") + strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  if (listen(listen_fd_, options_.listen_backlog) != 0 ||
      !SetNonBlocking(listen_fd_)) {
    error_ = std::string("listen: ") + strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    error_ = std::string("epoll/eventfd: ") + strerror(errno);
    Stop();
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  running_.store(true);
  io_thread_ = std::thread([this] { IoLoop(); });
  const size_t executors = std::max<size_t>(1, options_.num_executors);
  executors_.reserve(executors);
  for (size_t i = 0; i < executors; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
  return true;
}

void SocketServer::Stop() {
  if (running_.exchange(false)) {
    // Wake the IO thread and the executors so they observe !running_.
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
    work_cv_.notify_all();
    if (io_thread_.joinable()) io_thread_.join();
    for (std::thread& t : executors_) {
      if (t.joinable()) t.join();
    }
    executors_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [fd, conn] : conns_) {
      std::lock_guard<std::mutex> conn_lock(conn->mu);
      if (!conn->closed) {
        conn->closed = true;
        close(conn->fd);
      }
    }
    conns_.clear();
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
}

uint64_t SocketServer::connections_accepted() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return accepted_;
}

size_t SocketServer::connections_active() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

void SocketServer::IoLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (running_.load()) {
    // No timeout: Stop() writes the eventfd, so an idle server sleeps.
    const int n = epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (!running_.load()) break;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        // Flush every connection the executors queued output for.
        std::deque<std::shared_ptr<Connection>> to_flush;
        {
          std::lock_guard<std::mutex> lock(flush_mu_);
          to_flush.swap(flush_);
        }
        for (const auto& conn : to_flush) FlushWrites(conn);
        continue;
      }
      std::shared_ptr<Connection> conn;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        const auto it = conns_.find(fd);
        if (it == conns_.end()) continue;  // closed earlier this batch
        conn = it->second;
      }
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(conn);
      if (events[i].events & EPOLLOUT) FlushWrites(conn);
    }
  }
}

void SocketServer::AcceptPending() {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;  // EAGAIN: drained
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->session = processor_.NewSession();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_[fd] = conn;
      ++accepted_;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void SocketServer::UpdateEpoll(Connection& conn, bool want_in,
                               bool want_out) {
  epoll_event ev{};
  ev.events = (want_in ? EPOLLIN : 0u) | (want_out ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.read_paused = !want_in;
  conn.epollout_armed = want_out;
}

void SocketServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[16 << 10];
  bool eof = false;
  while (true) {
    const ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->read_buf.append(buf, static_cast<size_t>(n));
      // A line that will never end: reject before the buffer grows
      // without bound.
      if (conn->read_buf.size() > options_.max_line_bytes &&
          conn->read_buf.find('\n') == std::string::npos) {
        conn->write_buf += "err line too long\n";
        conn->want_close = true;
        conn->read_buf.clear();
        conn->pending.clear();
        break;
      }
      continue;
    }
    if (n == 0) {
      eof = true;
    }
    break;  // EAGAIN, error, or EOF
  }
  QueueLines(conn);
  if (eof) {
    // Let already-queued commands finish and their responses flush, then
    // close. With nothing in flight this closes immediately.
    bool drained;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->want_close = true;
      drained = conn->pending.empty() && !conn->executing &&
                conn->write_buf.empty();
    }
    if (drained) {
      CloseConnection(conn);
      return;
    }
  }
  FlushWrites(conn);
}

void SocketServer::ScheduleLocked(const std::shared_ptr<Connection>& conn) {
  // conn->mu held by caller.
  if (conn->executing || conn->closed || conn->pending.empty()) return;
  conn->executing = true;
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    work_.push_back(conn);
  }
  work_cv_.notify_one();
}

void SocketServer::QueueLines(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  size_t start = 0;
  while (true) {
    const size_t newline = conn->read_buf.find('\n', start);
    if (newline == std::string::npos) break;
    size_t end = newline;
    if (end > start && conn->read_buf[end - 1] == '\r') --end;
    conn->pending.emplace_back(conn->read_buf, start, end - start);
    start = newline + 1;
  }
  if (start > 0) conn->read_buf.erase(0, start);
  ScheduleLocked(conn);
}

void SocketServer::RequestFlush(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    flush_.push_back(conn);
  }
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void SocketServer::ExecutorLoop() {
  while (true) {
    std::shared_ptr<Connection> conn;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [this] { return !work_.empty() || !running_; });
      if (!running_.load() && work_.empty()) return;
      conn = std::move(work_.front());
      work_.pop_front();
    }
    // Drain this connection's pipelined lines in order. Only this
    // executor touches conn->session while `executing` is set.
    while (true) {
      std::string line;
      bool drained = false;
      bool close_due = false;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->closed || conn->pending.empty()) {
          conn->executing = false;
          drained = true;
          // The IO thread defers an EOF close while an executor runs; the
          // close is due now, and closing is the IO thread's job.
          close_due = conn->want_close && !conn->closed;
        } else {
          line = std::move(conn->pending.front());
          conn->pending.pop_front();
        }
      }
      if (drained) {
        if (close_due) RequestFlush(conn);
        break;
      }
      const CommandResult result = processor_.Execute(conn->session, line);
      const bool quit = result.quit;
      bool hand_off = false;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->write_buf += result.output;
        if (quit) {
          conn->want_close = true;
          conn->pending.clear();
          conn->executing = false;
        }
        hand_off = !WriteReplyLocked(*conn);
      }
      if (hand_off) RequestFlush(conn);
      if (quit) break;
      if (!running_.load()) {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->executing = false;
        break;
      }
    }
  }
}

bool SocketServer::WriteReplyLocked(Connection& conn) {
  if (conn.closed) return true;  // the IO thread closed it; nothing to do
  if (conn.want_close || conn.read_paused || conn.epollout_armed) {
    return false;
  }
  return SendBuffered(conn.fd, conn.write_buf) && conn.write_buf.empty();
}

void SocketServer::FlushWrites(const std::shared_ptr<Connection>& conn) {
  bool should_close = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    // A send failure means the peer went away mid-write.
    should_close = !SendBuffered(conn->fd, conn->write_buf);
    if (!should_close) {
      if (conn->write_buf.size() > options_.max_write_buffer_bytes) {
        // The client is not draining; cut it loose rather than buffer
        // without bound.
        should_close = true;
      } else {
        const bool want_out = !conn->write_buf.empty();
        const bool want_in =
            !conn->want_close &&
            conn->write_buf.size() <= options_.read_pause_bytes;
        if (want_in == conn->read_paused ||
            want_out != conn->epollout_armed) {
          UpdateEpoll(*conn, want_in, want_out);
        }
        if (conn->want_close && conn->write_buf.empty() &&
            conn->pending.empty() && !conn->executing) {
          should_close = true;
        }
      }
    }
  }
  if (should_close) CloseConnection(conn);
}

void SocketServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(conn->fd);
}

}  // namespace hkpr
