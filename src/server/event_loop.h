#ifndef KBFORGE_SERVER_EVENT_LOOP_H_
#define KBFORGE_SERVER_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/conn.h"
#include "util/metrics_registry.h"
#include "util/status.h"

namespace kb {
namespace server {

/// Transport and admission settings of a front door. KbServer::Options
/// and Router::Options derive from this, so the knobs are declared
/// once.
struct EventServerOptions {
  int port = 0;         ///< 0 = ephemeral; see EventServer::port()
  int num_workers = 4;  ///< request-handling threads
  /// Admitted requests waiting for a worker; a frame that arrives with
  /// the queue full is shed.
  size_t queue_depth = 16;
  int io_threads = 2;  ///< epoll I/O threads
  int backlog = 0;     ///< listen(2) backlog; <= 0 means SOMAXCONN
  /// Accepts past this many open connections are shed instead of
  /// blocking accept. 0 derives num_workers + queue_depth (every
  /// worker busy plus a full queue); raise it explicitly (e.g. the
  /// concurrency bench) to hold thousands of keep-alive connections.
  size_t max_connections = 0;
  /// Connections with no traffic and no request in flight for this
  /// long are closed (idle_closed metric). 0 = never.
  double idle_timeout_ms = 0;
  /// Parsed-but-unanswered frames allowed per connection. At the cap
  /// the loop stops reading that connection (EPOLLIN disarmed) until
  /// responses drain below half — backpressure instead of unbounded
  /// buffering for a client that pipelines faster than workers drain.
  size_t max_pipeline = 128;
  int retry_after_ms = 20;  ///< hint carried by every overload shed
};

/// Instruments the core updates (registry-owned; any may be null).
struct EventServerMetrics {
  Gauge* open_connections = nullptr;
  Gauge* queue_depth = nullptr;
  Counter* rejected = nullptr;  ///< shed accepts + shed requests
  Counter* errors = nullptr;    ///< bad frames + handler exceptions
  Counter* epoll_wakeups = nullptr;
  Counter* pipelined_frames = nullptr;
  Counter* idle_closed = nullptr;
};

/// One request payload in, one response payload out. Runs on a worker
/// thread, concurrently with itself.
using RequestHandler = std::function<std::string(const std::string& payload)>;

class EventServer;

/// One I/O thread of an EventServer: an epoll set over the shared
/// listen socket and the connections this loop accepted.
class EventLoop {
 public:
  explicit EventLoop(EventServer* server);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll instance + wake eventfd and registers
  /// `listen_fd` (EPOLLEXCLUSIVE). Call before Run.
  Status Init(int listen_fd);
  /// Spawns the loop thread.
  void Start();
  /// Posts a stop task, lets the loop close every connection it owns,
  /// and joins the thread. Idempotent.
  void Stop();

  /// Thread-safe: run `fn` on the loop thread. Dropped (with `fn`
  /// destroyed) once the loop has stopped.
  void Post(std::function<void()> fn);

 private:
  friend class Conn;

  void Run();
  void RunPosts();
  void AcceptReady();
  void ShedAccept(int fd);
  void HandleConnEvent(Conn* conn, uint32_t events);
  void ReadReady(Conn* conn);
  void ParseFrames(Conn* conn);
  /// Sequences a completed response; flushes everything now in order.
  void CompleteOnLoop(Conn* conn, uint64_t seq, std::string&& response,
                      bool close_after);
  void FlushReady(Conn* conn);
  void TryWrite(Conn* conn);
  void UpdateInterest(Conn* conn);
  void SweepIdle();
  void CloseConn(Conn* conn);
  void CloseAll();

  EventServer* server_;
  const EventServerOptions* options_;
  const EventServerMetrics* metrics_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd; Post() and Stop() write it
  int listen_fd_ = -1;
  uint64_t next_conn_id_ = 0;

  std::unordered_map<int, ConnRef> conns_;
  /// Conns closed mid-batch; their memory must outlive the epoll_wait
  /// batch that may still carry events for them (handlers check
  /// closed_). Cleared at the top of every iteration.
  std::vector<ConnRef> graveyard_;
  std::chrono::steady_clock::time_point last_sweep_;

  std::mutex post_mu_;
  std::vector<std::function<void()>> posts_;
  bool stopped_ = false;         ///< guarded by post_mu_; drops Posts
  bool stop_requested_ = false;  ///< loop-thread flag set via Post

  std::thread thread_;
};

/// The request core every front door runs on (DESIGN.md §5f). A small
/// fixed set of I/O threads — each one an epoll EventLoop — owns the
/// listen socket (every loop registers it EPOLLEXCLUSIVE, so the kernel
/// wakes exactly one loop per connection burst) and all accepted
/// connection fds. Loops never execute request logic: they parse
/// length-prefixed frames incrementally out of per-connection read
/// buffers and flush completed responses from per-connection write
/// queues with batched writev, falling back to EPOLLOUT when a peer
/// stops draining. Connection count is therefore decoupled from thread
/// count: ten thousand idle keep-alive clients cost ten thousand fds
/// and nothing else.
///
/// Admission is decided here and nowhere else. A complete frame joins
/// a bounded queue that `num_workers` threads drain through the
/// handler; with the queue full it is shed instead — answered with
/// OverloadedResponse(retry_after_ms) and its connection closed after
/// the in-order flush, so a pipelining client cannot keep a saturated
/// server buffering its backlog. Accepts past the connection cap, or
/// during a drain, are shed with the same envelope. An unframeable
/// stream gets a "bad_frame" error, and a handler that throws gets an
/// "internal" one; both count in `errors`.
class EventServer {
 public:
  EventServer(const EventServerOptions& options,
              const EventServerMetrics& metrics, RequestHandler handler);
  ~EventServer();

  EventServer(const EventServer&) = delete;
  EventServer& operator=(const EventServer&) = delete;

  /// Binds 127.0.0.1:port, listens, spawns the I/O and worker threads.
  /// Call once.
  Status Start();
  /// Joins the I/O threads (closing every connection), then the
  /// workers, then drops whatever is still queued: a worker's late
  /// Complete() lands on a stopped loop and is dropped. Idempotent; a
  /// concurrent caller returns once the first one has finished.
  void Stop();
  /// Graceful shutdown: fresh accepts are shed with the retry hint (a
  /// router fails over), each established connection closes right
  /// after its next response, and idle ones — which hold no worker and
  /// are owed nothing — ride out `timeout_ms`; then Stop().
  void Drain(double timeout_ms);

  /// The bound port (valid after Start; resolves port 0).
  int port() const { return port_; }

 private:
  friend class EventLoop;

  /// A parsed frame waiting for a worker.
  struct Request {
    ConnRef conn;
    uint64_t seq = 0;
    std::string payload;
  };

  /// I/O-thread side of the handoff: queue the frame or shed it; never
  /// runs request logic.
  void Admit(const ConnRef& conn, uint64_t seq, std::string payload);
  void WorkerLoop();

  EventServerOptions options_;
  const EventServerMetrics metrics_;
  const RequestHandler handler_;
  const std::string overloaded_;  ///< OverloadedResponse(retry_after_ms)
  std::atomic<size_t> open_conns_{0};
  std::atomic<bool> draining_{false};

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> started_{false};
  std::once_flag stop_once_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Request> queue_;  ///< guarded by mu_
  bool stopping_ = false;      ///< guarded by mu_

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> workers_;
};

}  // namespace server
}  // namespace kb

#endif  // KBFORGE_SERVER_EVENT_LOOP_H_
