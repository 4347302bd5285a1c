#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace lidi::net {

namespace {

constexpr int kSourceWake = 0;
constexpr int kSourceListener = 1;
constexpr int kSourceConn = 2;

/// Most iovecs one sendmsg gathers: 21 whole frames of three segments each,
/// far below IOV_MAX. A longer outbox drains over further sendmsg calls.
constexpr size_t kMaxIovecs = 64;

/// Handler worker threads. Request frames run here, never on the reactor,
/// so a handler that places nested calls cannot deadlock the event loop
/// that must deliver its responses.
constexpr int kWorkerThreads = 4;

/// Synchronous connect budget per dial attempt.
constexpr int64_t kConnectTimeoutMillis = 1000;

/// Calls with no deadline still complete or fail within this bound.
constexpr int64_t kDefaultCallTimeoutMillis = 10'000;

/// Reconnect backoff after a failed dial: doubles per consecutive failure
/// from the initial value up to the max; calls inside the window fast-fail
/// Unavailable.
constexpr int64_t kReconnectBackoffInitialMillis = 5;
constexpr int64_t kReconnectBackoffMaxMillis = 500;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

/// One registered epoll interest: a wake eventfd, a listener, or a
/// connection. epoll_event.data.ptr points here; the reactor's sources map
/// holds the shared_ptr that keeps it alive until the fd is deregistered.
struct TcpTransport::FdSource {
  int kind;
  int fd = -1;
  virtual ~FdSource() = default;
};

struct TcpTransport::Listener : FdSource {
  Address addr;
  uint16_t port = 0;
};

/// A parked synchronous call: filled in by the reactor when the matching
/// response frame arrives (or the connection dies), then claimed by the
/// caller. All fields are guarded by the owning connection's mu.
struct TcpTransport::PendingCall {
  bool done = false;
  Status status = Status::OK();
  std::string payload;
};

/// One queued outbound frame: head | payload | tail on the wire. The
/// payload rides as a PinnedSlice so a broker's segment bytes are never
/// copied into the outbox (the sendfile-shaped half of the TCP path).
struct TcpTransport::OutChunk {
  std::string head;
  PinnedSlice payload;
  std::string tail;
  size_t pos = 0;

  size_t size() const {
    return head.size() + payload.size() + tail.size();
  }
};

struct TcpTransport::Connection : FdSource {
  Address peer;           // destination address (client conns only)
  bool is_client = false;

  Mutex mu{"net.tcp.conn", lockrank::kNetTcpConn};
  CondVar cv;
  std::deque<OutChunk> outbox LIDI_GUARDED_BY(mu);
  std::map<uint64_t, PendingCall> pending LIDI_GUARDED_BY(mu);
  bool closed LIDI_GUARDED_BY(mu) = false;
  Status close_status LIDI_GUARDED_BY(mu) = Status::OK();
  bool want_write LIDI_GUARDED_BY(mu) = false;

  /// Reactor-thread-only receive buffer (no lock).
  std::string inbuf;

  /// Fails every parked call and marks the connection dead. The fd itself
  /// is closed only by the reactor (or final teardown), so the fd number
  /// cannot be reused while epoll events for it are in flight.
  void CloseLocked(const Status& status) LIDI_REQUIRES(mu) {
    if (closed) return;
    closed = true;
    close_status = status;
    for (auto& [corr, call] : pending) {
      if (call.done) continue;
      call.done = true;
      call.status = status;
    }
    cv.NotifyAll();
  }

  /// Writes as much of the outbox as the socket accepts. One sendmsg
  /// gathers the unsent bytes of every queued chunk (up to kMaxIovecs
  /// segments), so a frame reaches the peer whole and its reactor wakes
  /// once, not once per segment. Returns false on a fatal socket error (the
  /// connection is CloseLocked'd); leftover bytes arm EPOLLOUT on `epfd`
  /// via want_write.
  bool FlushLocked(int epfd) LIDI_REQUIRES(mu) {
    while (!outbox.empty()) {
      iovec iov[kMaxIovecs];
      size_t n_iov = 0;
      size_t gathered = 0;
      for (const OutChunk& chunk : outbox) {
        if (n_iov + 3 > kMaxIovecs) break;
        // The chunk's three segments, addressed by a single running offset.
        size_t skip = chunk.pos;
        for (const Slice segment :
             {Slice(chunk.head), chunk.payload.slice(), Slice(chunk.tail)}) {
          if (skip >= segment.size()) {
            skip -= segment.size();
            continue;
          }
          iov[n_iov].iov_base = const_cast<char*>(segment.data() + skip);
          iov[n_iov].iov_len = segment.size() - skip;
          gathered += iov[n_iov].iov_len;
          ++n_iov;
          skip = 0;
        }
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = n_iov;
      const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          ArmWriteLocked(epfd);  // retry on the next writable event
          return true;
        }
        CloseLocked(Status::Unavailable(Errno("sendmsg")));
        ::shutdown(fd, SHUT_RDWR);  // kick the reactor to reap the fd
        return false;
      }
      // Retire what the kernel took: sent chunks pop, a partly sent one
      // advances its offset.
      size_t sent = static_cast<size_t>(n);
      while (sent > 0) {
        OutChunk& chunk = outbox.front();
        const size_t left = chunk.size() - chunk.pos;
        if (sent < left) {
          chunk.pos += sent;
          break;
        }
        sent -= left;
        outbox.pop_front();
      }
      if (static_cast<size_t>(n) < gathered) {
        ArmWriteLocked(epfd);  // short write: the socket buffer is full
        return true;
      }
    }
    return true;
  }

  void ArmWriteLocked(int epfd) LIDI_REQUIRES(mu);
};

/// The epoll loop: owns an epoll instance, a wake eventfd, and the sources
/// registered with it. Other threads may epoll_ctl fds in (kernel-safe) but
/// only the reactor thread (or final single-threaded teardown) closes them.
struct TcpTransport::Reactor {
  int epfd = -1;
  std::shared_ptr<FdSource> wake;
  std::thread thread;
  std::atomic<bool> stop{false};

  Mutex mu{"net.tcp.reactor", lockrank::kNetTcpReactor};
  std::map<FdSource*, std::shared_ptr<FdSource>> sources LIDI_GUARDED_BY(mu);
  /// Sources other threads want closed (listener teardown, dropped pools);
  /// the reactor drains this after each wake so fd close stays single-owner.
  std::vector<std::shared_ptr<FdSource>> to_close LIDI_GUARDED_BY(mu);

  void AddSource(std::shared_ptr<FdSource> source, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.ptr = source.get();
    {
      MutexLock lock(&mu);
      sources[source.get()] = source;
    }
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, source->fd, &ev);
  }

  void RequestClose(std::shared_ptr<FdSource> source) {
    {
      MutexLock lock(&mu);
      to_close.push_back(std::move(source));
    }
    Wake();
  }

  void Wake() {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake->fd, &one, sizeof(one));
  }

  void RemoveAndClose(FdSource* source) {
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, source->fd, nullptr);
    ::close(source->fd);
    source->fd = -1;
    MutexLock lock(&mu);
    sources.erase(source);
  }
};

void TcpTransport::Connection::ArmWriteLocked(int epfd) {
  if (want_write || closed) return;
  want_write = true;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.ptr = static_cast<FdSource*>(this);
  ::epoll_ctl(epfd, EPOLL_CTL_MOD, fd, &ev);
}

struct TcpTransport::PeerPool {
  std::vector<std::shared_ptr<Connection>> conns;
  size_t next = 0;
  int consecutive_failures = 0;
  int64_t not_before_micros = 0;
};

struct TcpTransport::Work {
  std::shared_ptr<Connection> conn;
  Frame frame;
};

TcpTransport::TcpTransport(TcpTransportOptions options,
                           obs::MetricsRegistry* metrics, const Clock* clock)
    : options_(options),
      clock_(clock != nullptr ? clock : SystemClock::Default()),
      table_(metrics, clock_, options.max_dispatch_inflight),
      reactor_(std::make_unique<Reactor>()) {
  reactor_->epfd = ::epoll_create1(EPOLL_CLOEXEC);
  auto wake = std::make_shared<FdSource>();
  wake->kind = kSourceWake;
  wake->fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  reactor_->wake = wake;
  reactor_->AddSource(wake, EPOLLIN);
  reactor_->thread = std::thread([this] { ReactorLoop(); });
  workers_.reserve(kWorkerThreads);
  for (int i = 0; i < kWorkerThreads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TcpTransport::~TcpTransport() {
  Shutdown();
  StopThreads();
}

void TcpTransport::StopThreads() {
  if (threads_stopped_.exchange(true)) return;
  {
    MutexLock lock(&queue_mu_);
    stopping_ = true;
    queue_cv_.NotifyAll();
  }
  for (auto& worker : workers_) worker.join();
  reactor_->stop.store(true);
  reactor_->Wake();
  reactor_->thread.join();
  // Single-threaded from here: fail every parked call, then close every fd.
  std::vector<std::shared_ptr<FdSource>> sources;
  {
    MutexLock lock(&reactor_->mu);
    for (auto& [ptr, source] : reactor_->sources) sources.push_back(source);
    reactor_->sources.clear();
    reactor_->to_close.clear();
  }
  for (auto& source : sources) {
    if (source->kind == kSourceConn) {
      auto* conn = static_cast<Connection*>(source.get());
      MutexLock lock(&conn->mu);
      conn->CloseLocked(internal::EndpointTable::ShutDownError());
    }
    if (source->fd >= 0) ::close(source->fd);
    source->fd = -1;
  }
  ::close(reactor_->epfd);
  MutexLock lock(&state_mu_);
  listeners_.clear();
  pools_.clear();
}

// --- registration ----------------------------------------------------------

void TcpTransport::RegisterPayload(const Address& addr,
                                   const std::string& method,
                                   PayloadHandler handler) {
  // Under state_mu_, so an endpoint's handlers and its listener change
  // together.
  MutexLock lock(&state_mu_);
  table_.Register(addr, method, std::move(handler));
  if (listeners_.count(addr) > 0) return;

  auto listener = std::make_shared<Listener>();
  listener->kind = kSourceListener;
  listener->addr = addr;
  listener->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (listener->fd < 0) return;  // calls to addr will fail Unavailable
  int one = 1;
  ::setsockopt(listener->fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_port = 0;  // kernel-assigned; resolved via the listener map
  ::inet_pton(AF_INET, options_.bind_host.c_str(), &sin.sin_addr);
  if (::bind(listener->fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) <
          0 ||
      ::listen(listener->fd, 128) < 0) {
    ::close(listener->fd);
    return;
  }
  socklen_t len = sizeof(sin);
  ::getsockname(listener->fd, reinterpret_cast<sockaddr*>(&sin), &len);
  listener->port = ntohs(sin.sin_port);

  reactor_->AddSource(listener, EPOLLIN);
  listeners_[addr] = std::move(listener);
}

void TcpTransport::Unregister(const Address& addr) {
  std::shared_ptr<Listener> listener;
  {
    MutexLock lock(&state_mu_);
    table_.Unregister(addr);
    auto it = listeners_.find(addr);
    if (it != listeners_.end()) {
      listener = it->second;
      listeners_.erase(it);
    }
  }
  // The reactor owns the fd close so in-flight epoll events can't touch a
  // reused descriptor.
  if (listener != nullptr) reactor_->RequestClose(listener);
}

uint16_t TcpTransport::ListenPort(const Address& addr) const {
  MutexLock lock(&state_mu_);
  auto it = listeners_.find(addr);
  return it == listeners_.end() ? 0 : it->second->port;
}

void TcpTransport::AddStaticPeer(const Address& addr, const std::string& host,
                                 uint16_t port) {
  MutexLock lock(&state_mu_);
  static_peers_[addr] = {host, port};
}

void TcpTransport::DropConnections(const Address& peer) {
  std::vector<std::shared_ptr<Connection>> dropped;
  {
    MutexLock lock(&state_mu_);
    auto it = pools_.find(peer);
    if (it == pools_.end()) return;
    dropped = std::move(it->second.conns);
    it->second.conns.clear();
  }
  for (auto& conn : dropped) {
    {
      MutexLock lock(&conn->mu);
      conn->CloseLocked(Status::Unavailable("connection dropped"));
    }
    reactor_->RequestClose(conn);
  }
}

// --- client path -----------------------------------------------------------

Status TcpTransport::Resolve(const Address& to, std::string* host,
                             uint16_t* port) const {
  MutexLock lock(&state_mu_);
  auto it = listeners_.find(to);
  if (it != listeners_.end()) {
    *host = options_.bind_host;
    *port = it->second->port;
    return Status::OK();
  }
  auto peer = static_peers_.find(to);
  if (peer != static_peers_.end()) {
    *host = peer->second.first;
    *port = peer->second.second;
    return Status::OK();
  }
  return internal::EndpointTable::NoEndpointError(to);
}

std::shared_ptr<TcpTransport::Connection> TcpTransport::DialLocked(
    const Address& to, const std::string& host, uint16_t port,
    int64_t deadline_micros, Status* error) {
  // Runs with no transport lock held (the name refers to the caller having
  // claimed the dial slot): a slow connect must not stall other callers.
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = Status::Unavailable(Errno("socket"));
    return nullptr;
  }
  SetNoDelay(fd);
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &sin.sin_addr) != 1) {
    ::close(fd);
    *error = Status::InvalidArgument("unparseable peer host: " + host);
    return nullptr;
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin));
  if (rc < 0 && errno == EINPROGRESS) {
    int64_t budget_millis = kConnectTimeoutMillis;
    if (deadline_micros != 0) {
      const int64_t remaining =
          (deadline_micros - clock_->NowMicros()) / 1000;
      budget_millis = std::min(budget_millis, std::max<int64_t>(remaining, 1));
    }
    pollfd pfd{fd, POLLOUT, 0};
    rc = ::poll(&pfd, 1, static_cast<int>(budget_millis));
    if (rc <= 0) {
      ::close(fd);
      *error = Status::Unavailable("connect to " + to + " timed out");
      return nullptr;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    rc = so_error == 0 ? 0 : -1;
    errno = so_error;
  }
  if (rc < 0) {
    ::close(fd);
    *error = Status::Unavailable("connect to " + to + " failed: " +
                                 std::strerror(errno));
    return nullptr;
  }

  auto conn = std::make_shared<Connection>();
  conn->kind = kSourceConn;
  conn->fd = fd;
  conn->peer = to;
  conn->is_client = true;
  reactor_->AddSource(conn, EPOLLIN);
  return conn;
}

Result<std::shared_ptr<TcpTransport::Connection>> TcpTransport::GetConnection(
    const Address& to, int64_t deadline_micros) {
  std::string host;
  uint16_t port = 0;
  {
    MutexLock lock(&state_mu_);
    PeerPool& pool = pools_[to];
    // Prune connections the reactor has reaped.
    auto& conns = pool.conns;
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::shared_ptr<Connection>& c) {
                                 MutexLock conn_lock(&c->mu);
                                 return c->closed;
                               }),
                conns.end());
    if (!conns.empty()) {
      const bool pool_full =
          conns.size() >=
          static_cast<size_t>(std::max(1, options_.connections_per_peer));
      // During a dial-backoff window, live connections keep serving.
      if (pool_full || pool.not_before_micros > clock_->NowMicros()) {
        pool.next = (pool.next + 1) % conns.size();
        return conns[pool.next];
      }
    }
    if (pool.not_before_micros > clock_->NowMicros()) {
      return Status::Unavailable("connect backoff for " + to);
    }
  }

  Status resolve = Resolve(to, &host, &port);
  if (!resolve.ok()) return resolve;

  Status dial_error = Status::OK();
  std::shared_ptr<Connection> conn =
      DialLocked(to, host, port, deadline_micros, &dial_error);

  MutexLock lock(&state_mu_);
  PeerPool& pool = pools_[to];
  if (conn == nullptr) {
    pool.consecutive_failures++;
    const int64_t backoff = std::min(
        kReconnectBackoffInitialMillis
            << std::min(pool.consecutive_failures - 1, 10),
        kReconnectBackoffMaxMillis);
    pool.not_before_micros = clock_->NowMicros() + backoff * 1000;
    return dial_error;
  }
  pool.consecutive_failures = 0;
  pool.not_before_micros = 0;
  pool.conns.push_back(conn);
  return conn;
}

Result<PinnedSlice> TcpTransport::CallPayload(const Address& from,
                                              const Address& to,
                                              const std::string& method,
                                              Slice request,
                                              const CallOptions& options) {
  internal::CallSpan call = internal::CallSpan::Begin(
      options, to, method, request.size(), clock_->NowMicros());
  obs::LatencyHistogram* latency = nullptr;
  Status s = Status::OK();
  std::string payload;
  do {
    s = table_.BeginCall(from, method, request.size(), &latency);
    if (!s.ok()) break;
    s = table_.CheckDeadline(call.deadline_micros, to);
    if (!s.ok()) break;

    auto conn_result = GetConnection(to, call.deadline_micros);
    if (!conn_result.ok()) {
      s = conn_result.status();
      break;
    }
    std::shared_ptr<Connection> conn = std::move(conn_result.value());

    Frame frame;
    frame.type = Frame::kRequest;
    frame.correlation_id = next_correlation_.fetch_add(1);
    const obs::TraceContext child = call.ChildContext();
    frame.trace_id = child.trace_id;
    frame.span_id = child.span_id;
    frame.deadline_micros = call.deadline_micros;
    frame.from = from;
    frame.to = to;
    frame.method = method;
    EncodedFrame encoded = EncodeFrame(frame, request);

    // Every call still completes within the default budget even with no
    // deadline — a dead peer must not park the caller forever.
    const int64_t effective_deadline = internal::MinDeadline(
        call.deadline_micros,
        call.span.start_micros + kDefaultCallTimeoutMillis * 1000);

    {
      MutexLock lock(&conn->mu);
      if (conn->closed) {
        s = conn->close_status;
        break;
      }
      conn->pending.emplace(frame.correlation_id, PendingCall{});
      OutChunk chunk;
      chunk.head = std::move(encoded.head);
      // The request bytes are borrowed from the caller; the one sanctioned
      // serialize copy of the TCP path pins them for the outbox, so a
      // timed-out caller can return while the frame is still queued.
      chunk.payload = PinnedSlice::Copy(request);
      chunk.tail = std::move(encoded.tail);
      conn->outbox.push_back(std::move(chunk));
      if (!conn->FlushLocked(reactor_->epfd)) {
        auto it = conn->pending.find(frame.correlation_id);
        s = it != conn->pending.end() && it->second.done
                ? it->second.status
                : conn->close_status;
        conn->pending.erase(frame.correlation_id);
        break;
      }

      while (true) {
        auto it = conn->pending.find(frame.correlation_id);
        if (it == conn->pending.end()) {
          s = Status::Internal("pending call vanished");
          break;
        }
        if (it->second.done) {
          s = it->second.status;
          payload = std::move(it->second.payload);
          conn->pending.erase(it);
          break;
        }
        const int64_t remaining_millis =
            (effective_deadline - clock_->NowMicros()) / 1000;
        if (remaining_millis <= 0) {
          conn->pending.erase(it);
          s = internal::EndpointTable::DeadlineError(to);
          break;
        }
        conn->cv.WaitFor(&conn->mu,
                         std::chrono::milliseconds(remaining_millis));
      }
    }
  } while (false);

  call.Finish(s, payload.size(), clock_->NowMicros(), latency, metrics());
  if (!s.ok()) return s;
  return PinnedSlice::Own(std::move(payload));
}

// --- server path -----------------------------------------------------------

void TcpTransport::SendResponse(const std::shared_ptr<Connection>& conn,
                                const Frame& request, const Status& status,
                                PinnedSlice response) {
  Frame reply;
  reply.type = Frame::kResponse;
  reply.correlation_id = request.correlation_id;
  reply.trace_id = request.trace_id;
  reply.span_id = request.span_id;
  reply.status_code = status.code();
  OutChunk chunk;
  chunk.payload =
      status.ok() ? std::move(response) : PinnedSlice::Own(status.message());
  EncodedFrame encoded = EncodeFrame(reply, chunk.payload.slice());
  chunk.head = std::move(encoded.head);
  chunk.tail = std::move(encoded.tail);
  MutexLock lock(&conn->mu);
  if (conn->closed) return;
  conn->outbox.push_back(std::move(chunk));
  conn->FlushLocked(reactor_->epfd);
}

void TcpTransport::HandleRequest(const std::shared_ptr<Connection>& conn,
                                 Frame request) {
  PayloadHandler handler;
  Status s = table_.CheckOpen();
  if (s.ok()) s = table_.CheckDeadline(request.deadline_micros, request.to);
  if (s.ok()) {
    s = table_.Lookup(request.to, request.method, request.payload.size(),
                      &handler);
  }

  PinnedSlice response;
  if (s.ok() && handler) {
    // The handler runs on this worker with the caller's trace ambient, so
    // nested calls it places parent under the caller's span and inherit
    // the deadline budget — exactly the sim backend's contract.
    internal::AmbientTraceScope ambient(obs::TraceContext{
        request.trace_id, request.span_id, request.deadline_micros});
    internal::CallerScope caller(request.from);
    auto result = handler(Slice(request.payload));
    if (result.ok()) {
      response = std::move(result.value());
    } else {
      s = result.status();
    }
  }
  // The admission slot the reactor took covers queue wait plus the
  // handler's whole run (nested calls and all), as on the sim backend.
  // Release it before the reply goes out: a caller woken by the reply may
  // call again at once and must find the slot free.
  table_.Release();
  SendResponse(conn, request, s, std::move(response));
}

void TcpTransport::WorkerLoop() {
  while (true) {
    Work work;
    {
      MutexLock lock(&queue_mu_);
      while (queue_.empty() && !stopping_) queue_cv_.Wait(&queue_mu_);
      if (queue_.empty() && stopping_) return;
      work = std::move(queue_.front());
      queue_.pop_front();
    }
    HandleRequest(work.conn, std::move(work.frame));
  }
}

// --- reactor ---------------------------------------------------------------

void TcpTransport::AcceptAll(const std::shared_ptr<Listener>& listener) {
  while (true) {
    const int fd = ::accept4(listener->fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or the listener is being torn down
    SetNoDelay(fd);
    auto conn = std::make_shared<Connection>();
    conn->kind = kSourceConn;
    conn->fd = fd;
    conn->is_client = false;
    reactor_->AddSource(conn, EPOLLIN);
  }
}

void TcpTransport::ReapConn(const std::shared_ptr<Connection>& conn,
                            const Status& status) {
  {
    MutexLock lock(&conn->mu);
    conn->CloseLocked(status);
  }
  reactor_->RemoveAndClose(conn.get());
}

void TcpTransport::ReadConn(const std::shared_ptr<Connection>& conn) {
  char buf[64 << 10];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      ReapConn(conn, Status::Unavailable("peer disconnected"));
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    ReapConn(conn, Status::Unavailable(Errno("recv")));
    return;
  }

  size_t off = 0;
  while (true) {
    Frame frame;
    size_t consumed = 0;
    std::string error;
    const DecodeStatus ds =
        DecodeFrame(Slice(conn->inbuf.data() + off, conn->inbuf.size() - off),
                    options_.max_frame_bytes, &frame, &consumed, &error);
    if (ds == DecodeStatus::kNeedMore) break;
    if (ds == DecodeStatus::kError) {
      ReapConn(conn, Status::Corruption("protocol error: " + error));
      return;
    }
    off += consumed;
    if (frame.type == Frame::kRequest) {
      // Bounded dispatch: reject-before-work. A request that cannot take an
      // admission slot never reaches the worker queue — the reactor replies
      // Overloaded right here, so the queue depth stays bounded no matter
      // how fast clients push.
      const Status admitted = table_.Admit(frame.to);
      if (!admitted.ok()) {
        SendResponse(conn, frame, admitted, PinnedSlice());
        continue;
      }
      {
        MutexLock lock(&queue_mu_);
        queue_.push_back(Work{conn, std::move(frame)});
      }
      // Wake after unlock: a worker woken under queue_mu_ would preempt
      // this reactor only to block on the mutex it still holds. Workers
      // re-check the queue under the mutex, so the wakeup is not lost.
      queue_cv_.NotifyOne();
    } else {
      bool completed = false;
      {
        MutexLock lock(&conn->mu);
        auto it = conn->pending.find(frame.correlation_id);
        if (it != conn->pending.end() && !it->second.done) {
          it->second.done = true;
          it->second.status =
              StatusFromWire(frame.status_code,
                             frame.status_code == Code::kOk
                                 ? std::string()
                                 : std::move(frame.payload));
          if (frame.status_code == Code::kOk) {
            it->second.payload = std::move(frame.payload);
          }
          completed = true;
        }
        // else: the caller timed out and abandoned the call; drop the frame.
      }
      // Wake after unlock, for the same reason; callers re-check their
      // pending entry under conn->mu.
      if (completed) conn->cv.NotifyAll();
    }
  }
  conn->inbuf.erase(0, off);
}

void TcpTransport::ReactorLoop() {
  epoll_event events[64];
  while (!reactor_->stop.load()) {
    const int n = ::epoll_wait(reactor_->epfd, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < n; ++i) {
      auto* source = static_cast<FdSource*>(events[i].data.ptr);
      std::shared_ptr<FdSource> pinned;
      {
        MutexLock lock(&reactor_->mu);
        auto it = reactor_->sources.find(source);
        if (it == reactor_->sources.end()) continue;  // already reaped
        pinned = it->second;
      }
      if (source->kind == kSourceWake) {
        uint64_t drained;
        while (::read(source->fd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (source->kind == kSourceListener) {
        AcceptAll(std::static_pointer_cast<Listener>(pinned));
        continue;
      }
      auto conn = std::static_pointer_cast<Connection>(pinned);
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        ReapConn(conn, Status::Unavailable("peer disconnected"));
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        MutexLock lock(&conn->mu);
        if (!conn->closed && conn->FlushLocked(reactor_->epfd) &&
            conn->outbox.empty() &&
            conn->want_write) {
          conn->want_write = false;
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.ptr = source;
          ::epoll_ctl(reactor_->epfd, EPOLL_CTL_MOD, conn->fd, &ev);
        }
      }
      if ((events[i].events & EPOLLIN) != 0) {
        ReadConn(conn);
      }
    }
    // Drain deferred closes (listener teardown, dropped pools).
    std::vector<std::shared_ptr<FdSource>> to_close;
    {
      MutexLock lock(&reactor_->mu);
      to_close.swap(reactor_->to_close);
    }
    for (auto& source : to_close) {
      if (source->fd >= 0) reactor_->RemoveAndClose(source.get());
    }
  }
}

}  // namespace lidi::net
