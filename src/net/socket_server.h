// Epoll-based TCP frontend for the hkpr line protocol.
//
// SocketServer accepts many concurrent connections and speaks exactly the
// protocol of examples/hkpr_server.cpp's stdin loop: newline-terminated
// commands in, the CommandProcessor's response text out. Both transports
// call the same CommandProcessor::Execute(), so a command stream produces
// byte-identical responses over a socket and over stdin.
//
// Threading model:
//  - One IO thread runs the epoll loop (level-triggered, no timeout): it
//    accepts, reads into per-connection buffers, splits complete lines,
//    and owns every epoll_ctl call and every close. Reads are
//    non-blocking; a partial line simply stays buffered until more bytes
//    arrive.
//  - A small executor pool runs CommandProcessor::Execute(), which blocks
//    on query completion — blocking there must never stall the IO loop.
//    Each connection is worked by at most one executor at a time
//    (`executing` flag), so pipelined commands on one connection execute
//    and respond strictly in order while distinct connections proceed in
//    parallel.
//  - An executor writes its own reply to the socket, under the
//    connection's lock, when the IO thread has nothing to change: the
//    connection is open and not closing, its reads are not paused, and no
//    EPOLLOUT is armed. Otherwise, or when the kernel refuses some of the
//    bytes or the peer is gone, it hands the connection to the IO thread
//    through a flush queue + eventfd wakeup; the IO thread writes what is
//    left, arms EPOLLOUT, pauses reads or closes. Keeping epoll changes
//    and closes on one thread means no event can name a closed fd number
//    that was since reused.
//  - Every socket write is send(..., MSG_NOSIGNAL): a client that closes
//    mid-reply makes the write fail with EPIPE instead of raising SIGPIPE,
//    which would end the process.
//
// Backpressure: when a connection's pending write buffer passes
// `read_pause_bytes` the server stops reading from it (a pipelining
// client that never drains responses stops being read); past
// `max_write_buffer_bytes` the connection is dropped. A single line
// larger than `max_line_bytes` gets an error line and the connection is
// closed — the buffer cannot be grown unboundedly by a client that never
// sends '\n'.

#ifndef HKPR_NET_SOCKET_SERVER_H_
#define HKPR_NET_SOCKET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/command_processor.h"

namespace hkpr {

struct SocketServerOptions {
  /// TCP port to listen on; 0 binds an ephemeral port (read it back with
  /// port() after Start — how tests and benches avoid collisions).
  uint16_t port = 0;
  /// Listen address. Loopback by default; widen deliberately.
  std::string bind_address = "127.0.0.1";
  /// Executor threads running (blocking) command execution.
  size_t num_executors = 4;
  /// Longest accepted protocol line (bytes, excluding the newline).
  size_t max_line_bytes = 1 << 20;
  /// Reading from a connection pauses while its write buffer is above
  /// this, resumes below.
  size_t read_pause_bytes = 256 << 10;
  /// A connection whose write buffer exceeds this is dropped.
  size_t max_write_buffer_bytes = 8 << 20;
  /// accept() backlog.
  int listen_backlog = 128;
};

class SocketServer {
 public:
  /// `processor` must outlive the server.
  SocketServer(CommandProcessor& processor, SocketServerOptions options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and starts the IO + executor threads. Returns false
  /// (with the reason in error()) if the socket could not be set up.
  bool Start();

  /// Stops accepting, closes every connection, and joins all threads.
  /// Safe to call twice; the destructor calls it.
  void Stop();

  /// The bound port (resolves option port 0 to the real ephemeral port).
  /// Valid after a successful Start().
  uint16_t port() const { return port_; }

  /// Why Start() failed; empty on success.
  const std::string& error() const { return error_; }

  /// Connections accepted over the server's lifetime.
  uint64_t connections_accepted() const;
  /// Currently open connections.
  size_t connections_active() const;

 private:
  struct Connection {
    int fd = -1;
    std::mutex mu;
    std::string read_buf;             // bytes without a newline yet
    std::deque<std::string> pending;  // complete lines awaiting execution
    std::string write_buf;            // response bytes awaiting the kernel
    ClientSession session;
    bool executing = false;   // an executor is working this connection
    bool want_close = false;  // close once pending + write_buf drain
    bool closed = false;      // fd closed; executors must drop it
    bool read_paused = false;
    bool epollout_armed = false;
  };

  void IoLoop();
  void ExecutorLoop();

  void AcceptPending();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  /// Splits read_buf into lines, queues them, schedules an executor.
  void QueueLines(const std::shared_ptr<Connection>& conn);
  /// IO-thread-only: writes write_buf to the socket, manages EPOLLOUT and
  /// read-pause state, closes drained want_close connections.
  void FlushWrites(const std::shared_ptr<Connection>& conn);
  /// Executor-side write of fresh output, with conn.mu held: sends
  /// write_buf when the IO thread has no state to change (not closing,
  /// reads not paused, no EPOLLOUT armed). Returns false when the IO
  /// thread must take over: nothing was sent, the kernel refused some
  /// bytes, or the peer is gone. A closed connection needs nothing.
  static bool WriteReplyLocked(Connection& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  /// Executor -> IO thread: "this connection needs a write, an epoll
  /// change or a close".
  void RequestFlush(const std::shared_ptr<Connection>& conn);
  void ScheduleLocked(const std::shared_ptr<Connection>& conn);
  void UpdateEpoll(Connection& conn, bool want_in, bool want_out);

  CommandProcessor& processor_;
  const SocketServerOptions options_;
  std::string error_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd the executors signal
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};

  std::thread io_thread_;
  std::vector<std::thread> executors_;

  // Live connections, keyed by fd. IO thread inserts/erases; executors
  // hold shared_ptrs through the work queue.
  mutable std::mutex conns_mu_;
  std::map<int, std::shared_ptr<Connection>> conns_;
  uint64_t accepted_ = 0;

  // Executor work queue: connections with pending lines.
  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Connection>> work_;

  // Flush queue: connections with freshly appended output.
  std::mutex flush_mu_;
  std::deque<std::shared_ptr<Connection>> flush_;
};

}  // namespace hkpr

#endif  // HKPR_NET_SOCKET_SERVER_H_
