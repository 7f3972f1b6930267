#include "server/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <utility>

#include "server/protocol.h"

namespace kb {
namespace server {
namespace {

// epoll_data tags for the two fds that are not connections. Real Conn
// pointers are word-aligned, so they can never collide with these.
constexpr uint64_t kListenTag = 1;
constexpr uint64_t kWakeTag = 2;

std::string FrameOf(const std::string& payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  std::string framed;
  framed.reserve(4 + payload.size());
  framed.push_back(static_cast<char>((len >> 24) & 0xff));
  framed.push_back(static_cast<char>((len >> 16) & 0xff));
  framed.push_back(static_cast<char>((len >> 8) & 0xff));
  framed.push_back(static_cast<char>(len & 0xff));
  framed.append(payload);
  return framed;
}

void Bump(Counter* counter) {
  if (counter != nullptr) counter->Increment();
}

void Level(Gauge* gauge, int64_t delta) {
  if (gauge != nullptr) gauge->Add(delta);
}

void SetLevel(Gauge* gauge, size_t value) {
  if (gauge != nullptr) gauge->Set(static_cast<int64_t>(value));
}

}  // namespace

EventLoop::EventLoop(EventServer* server)
    : server_(server),
      options_(&server->options_),
      metrics_(&server->metrics_),
      last_sweep_(std::chrono::steady_clock::now()) {}

EventLoop::~EventLoop() {
  Stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::Init(int listen_fd) {
  listen_fd_ = listen_fd;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::Internal(std::string("epoll_create1: ") +
                            std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::Internal(std::string("epoll_ctl(wake): ") +
                            std::strerror(errno));
  }
  // Every loop registers the shared listen socket EPOLLEXCLUSIVE: the
  // kernel wakes one loop per readiness edge instead of thundering all
  // of them.
  ev = epoll_event{};
  ev.events = EPOLLIN | EPOLLEXCLUSIVE;
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Status::Internal(std::string("epoll_ctl(listen): ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

void EventLoop::Start() { thread_ = std::thread([this] { Run(); }); }

void EventLoop::Stop() {
  Post([this] { stop_requested_ = true; });
  if (thread_.joinable()) thread_.join();
}

void EventLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    if (stopped_) return;  // fn (and any captured ConnRef) dies here
    posts_.push_back(std::move(fn));
  }
  uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;  // EAGAIN means the counter is already nonzero
}

void EventLoop::Run() {
  int timeout_ms = -1;
  if (options_->idle_timeout_ms > 0) {
    timeout_ms = static_cast<int>(
        std::clamp(options_->idle_timeout_ms / 4.0, 5.0, 500.0));
  }
  epoll_event events[64];
  for (;;) {
    graveyard_.clear();
    int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    Bump(metrics_->epoll_wakeups);
    for (int i = 0; i < n; ++i) {
      uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        uint64_t drained;
        ssize_t ignored = ::read(wake_fd_, &drained, sizeof(drained));
        (void)ignored;
        RunPosts();
      } else if (tag == kListenTag) {
        AcceptReady();
      } else {
        HandleConnEvent(static_cast<Conn*>(events[i].data.ptr),
                        events[i].events);
      }
    }
    if (stop_requested_) break;
    SweepIdle();
  }
  CloseAll();
  graveyard_.clear();
  std::lock_guard<std::mutex> lock(post_mu_);
  stopped_ = true;
  posts_.clear();
}

void EventLoop::RunPosts() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    batch.swap(posts_);
  }
  for (auto& fn : batch) fn();
}

void EventLoop::AcceptReady() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: drained. Anything else (EMFILE, ECONNABORTED, a racing
      // loop won the connection): back off until the next readiness.
      break;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    bool shed = stop_requested_ || server_->draining_.load();
    // fetch_add-then-check so two loops racing past the cap cannot both
    // admit.
    if (!shed &&
        server_->open_conns_.fetch_add(1) >= options_->max_connections) {
      server_->open_conns_.fetch_sub(1);
      shed = true;
    }
    if (shed) {
      ShedAccept(fd);
      continue;
    }
    Level(metrics_->open_connections, 1);
    auto conn = std::make_shared<Conn>(this, fd, ++next_conn_id_);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn.get();
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      server_->open_conns_.fetch_sub(1);
      Level(metrics_->open_connections, -1);
      continue;  // conn's destructor closes the fd
    }
    conns_.emplace(fd, std::move(conn));
  }
}

void EventLoop::ShedAccept(int fd) {
  Bump(metrics_->rejected);
  // Best effort: tell the peer why before hanging up. If the socket
  // buffer is somehow full we close anyway rather than block.
  std::string framed = FrameOf(server_->overloaded_);
  ::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  ::close(fd);
}

void EventLoop::HandleConnEvent(Conn* conn, uint32_t events) {
  if (conn->closed_) return;  // stale event within this batch
  conn->last_active_ = std::chrono::steady_clock::now();
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    // Flush nothing; the peer is gone or broken.
    CloseConn(conn);
    return;
  }
  if ((events & EPOLLOUT) != 0) TryWrite(conn);
  if (conn->closed_) return;
  if ((events & EPOLLIN) != 0) ReadReady(conn);
}

void EventLoop::ReadReady(Conn* conn) {
  char buf[64 * 1024];
  while (!conn->closed_ && !conn->read_eof_ && !conn->close_pending_ &&
         !conn->read_paused_) {
    ssize_t n = ::recv(conn->fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->rbuf_.append(buf, static_cast<size_t>(n));
      ParseFrames(conn);
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
    } else if (n == 0) {
      conn->read_eof_ = true;
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else {
      CloseConn(conn);
      return;
    }
  }
  if (conn->closed_) return;
  if (conn->read_eof_) {
    // Half-close: finish what is in flight, then close. If nothing is
    // in flight and nothing is queued, that is right now.
    if (conn->next_seq_ == conn->next_flush_ && conn->wq_.empty()) {
      CloseConn(conn);
    } else {
      UpdateInterest(conn);
    }
  }
}

void EventLoop::ParseFrames(Conn* conn) {
  while (!conn->closed_ && !conn->close_pending_) {
    size_t avail = conn->rbuf_.size() - conn->rpos_;
    if (avail < 4) break;
    const unsigned char* p = reinterpret_cast<const unsigned char*>(
        conn->rbuf_.data() + conn->rpos_);
    uint32_t len = (static_cast<uint32_t>(p[0]) << 24) |
                   (static_cast<uint32_t>(p[1]) << 16) |
                   (static_cast<uint32_t>(p[2]) << 8) |
                   static_cast<uint32_t>(p[3]);
    if (len > kMaxFrameBytes) {
      // The stream cannot be re-framed past this point; answer (in
      // order, behind anything already in flight) and close.
      uint64_t seq = conn->next_seq_++;
      Bump(metrics_->errors);
      std::string message = "frame length " + std::to_string(len) +
                            " exceeds limit " + std::to_string(kMaxFrameBytes);
      CompleteOnLoop(conn, seq, ErrorResponse("bad_frame", message),
                     /*close_after=*/true);
      break;
    }
    if (avail - 4 < len) break;  // wait for the rest of the payload
    std::string payload = conn->rbuf_.substr(conn->rpos_ + 4, len);
    conn->rpos_ += 4 + static_cast<size_t>(len);
    uint64_t seq = conn->next_seq_++;
    if (seq > conn->next_flush_) {
      // An earlier frame is still unanswered: the client pipelined.
      Bump(metrics_->pipelined_frames);
    }
    if (conn->next_seq_ - conn->next_flush_ >= options_->max_pipeline) {
      conn->read_paused_ = true;
      UpdateInterest(conn);
    }
    server_->Admit(conns_.at(conn->fd_), seq, std::move(payload));
    if (conn->read_paused_) break;
  }
  if (conn->closed_) return;
  // Compact the read buffer once the cursor has consumed everything or
  // has moved far enough that the dead prefix is worth reclaiming.
  if (conn->rpos_ == conn->rbuf_.size()) {
    conn->rbuf_.clear();
    conn->rpos_ = 0;
  } else if (conn->rpos_ >= 4096) {
    conn->rbuf_.erase(0, conn->rpos_);
    conn->rpos_ = 0;
  }
}

void EventLoop::CompleteOnLoop(Conn* conn, uint64_t seq,
                               std::string&& response, bool close_after) {
  if (conn->closed_ || conn->close_after_flush_) return;  // late completion
  if (close_after) conn->close_pending_ = true;
  conn->ready_.emplace(seq,
                       std::make_pair(std::move(response), close_after));
  FlushReady(conn);
}

void EventLoop::FlushReady(Conn* conn) {
  bool queued = false;
  while (!conn->close_after_flush_) {
    auto it = conn->ready_.find(conn->next_flush_);
    if (it == conn->ready_.end()) break;
    conn->wq_.push_back(FrameOf(it->second.first));
    if (it->second.second) {
      // Everything parsed after this frame is void; completions for
      // those seqs get dropped by the close_after_flush_ check above.
      conn->close_after_flush_ = true;
      conn->ready_.clear();
    } else {
      conn->ready_.erase(it);
    }
    ++conn->next_flush_;
    queued = true;
  }
  if (!queued) return;
  conn->last_active_ = std::chrono::steady_clock::now();
  // Un-pause reading once the pipeline has drained below half the cap.
  if (conn->read_paused_ && !conn->close_pending_ && !conn->read_eof_ &&
      conn->next_seq_ - conn->next_flush_ <= options_->max_pipeline / 2) {
    conn->read_paused_ = false;
    UpdateInterest(conn);
    // Bytes may already sit parsed-but-unconsumed in rbuf_; epoll will
    // not re-announce those, so resume parsing directly.
    ParseFrames(conn);
    if (conn->closed_) return;
  }
  TryWrite(conn);
}

void EventLoop::TryWrite(Conn* conn) {
  while (!conn->wq_.empty()) {
    iovec iov[16];
    int cnt = 0;
    size_t off = conn->woff_;
    for (auto it = conn->wq_.begin();
         it != conn->wq_.end() && cnt < 16; ++it) {
      iov[cnt].iov_base = const_cast<char*>(it->data() + off);
      iov[cnt].iov_len = it->size() - off;
      off = 0;
      ++cnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(cnt);
    ssize_t n = ::sendmsg(conn->fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn->want_write_) {
          conn->want_write_ = true;
          UpdateInterest(conn);
        }
        return;
      }
      CloseConn(conn);
      return;
    }
    size_t written = static_cast<size_t>(n);
    while (written > 0) {
      size_t remaining = conn->wq_.front().size() - conn->woff_;
      if (written >= remaining) {
        written -= remaining;
        conn->wq_.pop_front();
        conn->woff_ = 0;
      } else {
        conn->woff_ += written;
        written = 0;
      }
    }
  }
  if (conn->want_write_) {
    conn->want_write_ = false;
    UpdateInterest(conn);
  }
  if (conn->close_after_flush_ ||
      (conn->read_eof_ && conn->next_seq_ == conn->next_flush_)) {
    CloseConn(conn);
  }
}

void EventLoop::UpdateInterest(Conn* conn) {
  epoll_event ev{};
  bool want_read =
      !conn->read_paused_ && !conn->read_eof_ && !conn->close_pending_;
  ev.events = (want_read ? EPOLLIN : 0u) | (conn->want_write_ ? EPOLLOUT : 0u);
  ev.data.ptr = conn;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd_, &ev);
}

void EventLoop::SweepIdle() {
  if (options_->idle_timeout_ms <= 0) return;
  auto now = std::chrono::steady_clock::now();
  double since_ms =
      std::chrono::duration<double, std::milli>(now - last_sweep_).count();
  if (since_ms < options_->idle_timeout_ms / 4.0) return;
  last_sweep_ = now;
  std::vector<Conn*> idle;
  for (auto& [fd, conn] : conns_) {
    if (conn->next_seq_ != conn->next_flush_ || !conn->wq_.empty()) continue;
    double idle_ms = std::chrono::duration<double, std::milli>(
                         now - conn->last_active_)
                         .count();
    if (idle_ms >= options_->idle_timeout_ms) idle.push_back(conn.get());
  }
  for (Conn* conn : idle) {
    Bump(metrics_->idle_closed);
    CloseConn(conn);
  }
}

void EventLoop::CloseConn(Conn* conn) {
  if (conn->closed_) return;
  conn->closed_ = true;
  int fd = conn->fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conn->fd_ = -1;
  auto it = conns_.find(fd);
  if (it != conns_.end()) {
    // Keep the Conn alive until this epoll batch ends — later events in
    // the same batch may still point at it.
    graveyard_.push_back(std::move(it->second));
    conns_.erase(it);
  }
  server_->open_conns_.fetch_sub(1);
  Level(metrics_->open_connections, -1);
}

void EventLoop::CloseAll() {
  while (!conns_.empty()) CloseConn(conns_.begin()->second.get());
}

EventServer::EventServer(const EventServerOptions& options,
                         const EventServerMetrics& metrics,
                         RequestHandler handler)
    : options_(options),
      metrics_(metrics),
      handler_(std::move(handler)),
      overloaded_(OverloadedResponse(options.retry_after_ms)) {
  options_.num_workers = std::max(1, options_.num_workers);
  options_.io_threads = std::max(1, options_.io_threads);
  if (options_.max_connections == 0) {
    // Every worker busy plus a full queue: the N+Q+1'th concurrent
    // connection is refused with the retry hint.
    options_.max_connections =
        static_cast<size_t>(options_.num_workers) + options_.queue_depth;
  }
}

EventServer::~EventServer() { Stop(); }

Status EventServer::Start() {
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s = Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  int backlog = options_.backlog > 0 ? options_.backlog : SOMAXCONN;
  if (::listen(listen_fd_, backlog) != 0) {
    Status s =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  for (int i = 0; i < options_.io_threads; ++i) {
    auto loop = std::make_unique<EventLoop>(this);
    Status s = loop->Init(listen_fd_);
    if (!s.ok()) {
      loops_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return s;
    }
    loops_.push_back(std::move(loop));
  }
  for (auto& loop : loops_) loop->Start();
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  started_.store(true);
  return Status::OK();
}

void EventServer::Admit(const ConnRef& conn, uint64_t seq,
                        std::string payload) {
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_ && queue_.size() < options_.queue_depth) {
      queue_.push_back(Request{conn, seq, std::move(payload)});
      SetLevel(metrics_.queue_depth, queue_.size());
      admitted = true;
    }
  }
  if (admitted) {
    work_cv_.notify_one();
    return;
  }
  // Queue full: shed this request with the retry hint and drop the
  // connection, exactly like a shed accept.
  Bump(metrics_.rejected);
  conn->Complete(seq, overloaded_, /*close_after=*/true);
}

void EventServer::WorkerLoop() {
  for (;;) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;  // Stop() drops whatever is still queued
      request = std::move(queue_.front());
      queue_.pop_front();
      SetLevel(metrics_.queue_depth, queue_.size());
    }
    std::string response;
    try {
      response = handler_(request.payload);
    } catch (const std::exception& e) {
      Bump(metrics_.errors);
      response = ErrorResponse("internal", e.what());
    }
    // Draining: each connection closes right after its next response.
    request.conn->Complete(request.seq, std::move(response), draining_.load());
  }
}

void EventServer::Stop() {
  if (!started_.load()) return;
  std::call_once(stop_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    work_cv_.notify_all();
    // I/O threads first: a worker's Complete() after this is dropped at
    // the loop's post gate instead of racing a dying epoll set.
    for (auto& loop : loops_) loop->Stop();
    for (std::thread& worker : workers_) worker.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.clear();
    }
    SetLevel(metrics_.queue_depth, 0);
    ::close(listen_fd_);
    listen_fd_ = -1;
  });
}

void EventServer::Drain(double timeout_ms) {
  if (!started_.load()) return;
  draining_.store(true);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double, std::milli>(
                            std::max(0.0, timeout_ms));
  while (open_conns_.load() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Stop();
}

}  // namespace server
}  // namespace kb
