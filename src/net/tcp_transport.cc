#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>
#include <utility>

namespace lidi::net {

namespace {

/// Synchronous connect budget per dial attempt.
constexpr int64_t kConnectTimeoutMillis = 1000;

/// Calls with no deadline still complete or fail within this bound.
constexpr int64_t kDefaultCallTimeoutMillis = 10'000;

/// Reconnect backoff after a failed dial: doubles per consecutive failure
/// from the initial value up to the max; calls inside the window fast-fail
/// Unavailable.
constexpr int64_t kReconnectBackoffInitialMillis = 5;
constexpr int64_t kReconnectBackoffMaxMillis = 500;

/// A connection's receive buffer starts this large and doubles while a
/// frame does not fit.
constexpr size_t kInitialReadBytes = 16u << 10;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Waits until `fd` is ready for `events` or `deadline_micros` (0 = never)
/// passes. Readiness includes hangup and error: the recv or sendmsg that
/// follows reports those. A passed deadline is Timeout with no message; the
/// caller names the peer.
Status WaitReady(int fd, short events, int64_t deadline_micros,
                 const Clock* clock) {
  int timeout_millis = -1;
  if (deadline_micros != 0) {
    const int64_t remaining = deadline_micros - clock->NowMicros();
    if (remaining <= 0) return Status::Timeout("");
    timeout_millis = static_cast<int>((remaining + 999) / 1000);
  }
  pollfd pfd{fd, events, 0};
  const int rc = ::poll(&pfd, 1, timeout_millis);
  if (rc == 0) return Status::Timeout("");
  if (rc < 0 && errno != EINTR) return Status::Unavailable(Errno("poll"));
  return Status::OK();
}

/// Writes head | payload | tail, gathered, resuming after partial writes.
/// Never blocks in sendmsg itself: a full socket buffer waits in WaitReady,
/// so the write stays bounded by `deadline_micros` (0 = unbounded).
Status WriteFrame(int fd, const EncodedFrame& encoded, Slice payload,
                  int64_t deadline_micros, const Clock* clock) {
  iovec iov[3] = {
      {const_cast<char*>(encoded.head.data()), encoded.head.size()},
      {const_cast<char*>(payload.data()), payload.size()},
      {const_cast<char*>(encoded.tail.data()), encoded.tail.size()},
  };
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 3;
  while (true) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return Status::Unavailable(Errno("sendmsg"));
    }
    // Retire what the kernel took.
    size_t sent = n > 0 ? static_cast<size_t>(n) : 0;
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen == 0) return Status::OK();
    msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
    msg.msg_iov->iov_len -= sent;
    Status ready = WaitReady(fd, POLLOUT, deadline_micros, clock);
    if (!ready.ok()) return ready;
  }
}

/// Bytes read off one connection but not yet decoded. Only the thread that
/// owns the connection touches it.
class FrameReader {
 public:
  /// Decodes the next frame into *frame, reading more bytes as needed: poll
  /// + nonblocking recv bounded by `deadline_micros`, or, when it is 0, a
  /// recv that blocks until bytes, end of stream or shutdown(2).
  Status Read(int fd, size_t max_frame_bytes, int64_t deadline_micros,
              const Clock* clock, Frame* frame) {
    while (true) {
      if (end_ > begin_) {
        size_t consumed = 0;
        std::string error;
        const DecodeStatus ds =
            DecodeFrame(Slice(buf_.get() + begin_, end_ - begin_),
                        max_frame_bytes, frame, &consumed, &error);
        if (ds == DecodeStatus::kError) {
          return Status::Corruption("protocol error: " + error);
        }
        if (ds == DecodeStatus::kOk) {
          begin_ += consumed;
          if (begin_ == end_) begin_ = end_ = 0;
          return Status::OK();
        }
      }
      if (end_ == capacity_) MakeRoom();
      if (deadline_micros != 0) {
        Status ready = WaitReady(fd, POLLIN, deadline_micros, clock);
        if (!ready.ok()) return ready;
      }
      const ssize_t n = ::recv(fd, buf_.get() + end_, capacity_ - end_,
                               deadline_micros != 0 ? MSG_DONTWAIT : 0);
      if (n > 0) {
        end_ += static_cast<size_t>(n);
        continue;
      }
      if (n == 0) return Status::Unavailable("peer disconnected");
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::Unavailable(Errno("recv"));
    }
  }

  /// Bytes received past the last decoded frame.
  size_t buffered() const { return end_ - begin_; }

 private:
  /// Slides the undecoded bytes to the front, or doubles the buffer when
  /// they already start there. Uninitialized storage: recv fills it.
  void MakeRoom() {
    if (begin_ > 0) {
      std::memmove(buf_.get(), buf_.get() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
      return;
    }
    const size_t capacity = std::max(kInitialReadBytes, capacity_ * 2);
    std::unique_ptr<char[]> grown(new char[capacity]);
    if (end_ > 0) std::memcpy(grown.get(), buf_.get(), end_);
    buf_ = std::move(grown);
    capacity_ = capacity;
  }

  std::unique_ptr<char[]> buf_;
  size_t capacity_ = 0;
  size_t begin_ = 0;
  size_t end_ = 0;
};

}  // namespace

/// A listening socket and the thread blocked in accept4 on it. The thread
/// owns `fd` and closes it on exit; other threads only shutdown(2) it, under
/// state_mu_, after setting `closing` (both guarded by state_mu_).
struct TcpTransport::Listener {
  int fd = -1;
  uint16_t port = 0;
  bool closing = false;
  std::thread thread;
};

/// One pooled client connection. Exactly one thread owns it at a time: the
/// pool while idle, a call while checked out. Destroying it closes the fd.
struct TcpTransport::ClientConn {
  explicit ClientConn(int socket) : fd(socket) {}
  ~ClientConn() { ::close(fd); }

  ClientConn(const ClientConn&) = delete;
  ClientConn& operator=(const ClientConn&) = delete;

  /// True when the idle socket holds no bytes and the peer has not closed
  /// it.
  bool StillOpen() const {
    char byte;
    const ssize_t n = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }

  const int fd;
  FrameReader reader;
};

/// One accepted connection and the thread serving it. The thread owns the
/// socket; `fd` (guarded by state_mu_) publishes it for shutdown(2) and turns
/// -1 just before the thread closes it, which also marks the thread
/// joinable.
struct TcpTransport::ServerConn {
  int fd = -1;
  std::thread thread;
};

/// Connections to one destination. `busy` lists the checked-out ones so
/// DropConnections can shutdown(2) them under their callers.
struct TcpTransport::PeerPool {
  std::vector<std::unique_ptr<ClientConn>> idle;
  std::vector<ClientConn*> busy;
  int consecutive_failures = 0;
  int64_t not_before_micros = 0;
};

TcpTransport::TcpTransport(TcpTransportOptions options,
                           obs::MetricsRegistry* metrics, const Clock* clock)
    : options_(std::move(options)),
      clock_(clock != nullptr ? clock : SystemClock::Default()),
      table_(metrics, clock_, options_.max_dispatch_inflight) {}

TcpTransport::~TcpTransport() {
  Shutdown();
  std::vector<std::unique_ptr<Listener>> listeners;
  {
    MutexLock lock(&state_mu_);
    for (auto& [addr, listener] : listeners_) {
      listener->closing = true;
      ::shutdown(listener->fd, SHUT_RDWR);  // ends its accept4
      listeners.push_back(std::move(listener));
    }
    listeners_.clear();
    // Ends each connection thread's blocking recv (or its reply's write)
    // once its handler returns.
    for (auto& conn : server_conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (auto& listener : listeners) listener->thread.join();
  // With every accept thread gone the list is final.
  std::vector<std::unique_ptr<ServerConn>> conns;
  {
    MutexLock lock(&state_mu_);
    conns.swap(server_conns_);
  }
  for (auto& conn : conns) conn->thread.join();
  // Idle pooled connections close with pools_.
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

  auto listener = std::make_unique<Listener>();
  listener->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listener->fd < 0) return;  // calls to addr will fail NotFound
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
  Listener* raw = listener.get();
  raw->thread = std::thread([this, raw] { AcceptLoop(raw); });
  listeners_[addr] = std::move(listener);
}

void TcpTransport::Unregister(const Address& addr) {
  std::unique_ptr<Listener> listener;
  {
    MutexLock lock(&state_mu_);
    table_.Unregister(addr);
    auto it = listeners_.find(addr);
    if (it == listeners_.end()) return;
    listener = std::move(it->second);
    listeners_.erase(it);
    listener->closing = true;
    ::shutdown(listener->fd, SHUT_RDWR);
  }
  // Connections it accepted keep their threads; their next request finds
  // no endpoint.
  listener->thread.join();
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
  std::vector<std::unique_ptr<ClientConn>> idle;
  {
    MutexLock lock(&state_mu_);
    auto it = pools_.find(peer);
    if (it == pools_.end()) return;
    idle.swap(it->second.idle);
    // Their callers own them: shutdown(2) fails the call in flight, and the
    // caller closes the socket.
    for (ClientConn* conn : it->second.busy) ::shutdown(conn->fd, SHUT_RDWR);
  }
  // `idle` closes its sockets here, outside the lock.
}

// --- client path -----------------------------------------------------------

Status TcpTransport::Dial(const Address& to, const std::string& host,
                          uint16_t port, int64_t deadline_micros, int* fd_out) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Unavailable(Errno("socket"));
  SetNoDelay(fd);
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &sin.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("unparseable peer host: " + host);
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin));
  if (rc < 0 && errno == EINPROGRESS) {
    const int64_t budget = internal::MinDeadline(
        deadline_micros, clock_->NowMicros() + kConnectTimeoutMillis * 1000);
    if (!WaitReady(fd, POLLOUT, budget, clock_).ok()) {
      ::close(fd);
      return Status::Unavailable("connect to " + to + " timed out");
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    rc = so_error == 0 ? 0 : -1;
    errno = so_error;
  }
  if (rc < 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("connect to " + to + " failed: " + reason);
  }
  *fd_out = fd;
  return Status::OK();
}

Result<std::unique_ptr<TcpTransport::ClientConn>> TcpTransport::Checkout(
    const Address& to, int64_t deadline_micros) {
  std::string host;
  uint16_t port = 0;
  while (true) {
    std::unique_ptr<ClientConn> conn;
    {
      MutexLock lock(&state_mu_);
      auto pool = pools_.find(to);
      if (pool != pools_.end() && !pool->second.idle.empty()) {
        conn = std::move(pool->second.idle.back());
        pool->second.idle.pop_back();
        pool->second.busy.push_back(conn.get());
      } else {
        if (pool != pools_.end() &&
            pool->second.not_before_micros > clock_->NowMicros()) {
          return Status::Unavailable("connect backoff for " + to);
        }
        // Resolve: a local listener first, then static peers.
        auto listener = listeners_.find(to);
        auto peer = static_peers_.find(to);
        if (listener != listeners_.end()) {
          host = options_.bind_host;
          port = listener->second->port;
        } else if (peer != static_peers_.end()) {
          host = peer->second.first;
          port = peer->second.second;
        } else {
          return internal::EndpointTable::NoEndpointError(to);
        }
        break;
      }
    }
    if (conn->StillOpen()) return conn;
    Checkin(to, std::move(conn), /*reusable=*/false);
  }

  int fd = -1;
  const Status dialed = Dial(to, host, port, deadline_micros, &fd);
  MutexLock lock(&state_mu_);
  PeerPool& pool = pools_[to];
  if (!dialed.ok()) {
    pool.consecutive_failures++;
    const int64_t backoff = std::min(
        kReconnectBackoffInitialMillis
            << std::min(pool.consecutive_failures - 1, 10),
        kReconnectBackoffMaxMillis);
    pool.not_before_micros = clock_->NowMicros() + backoff * 1000;
    return dialed;
  }
  pool.consecutive_failures = 0;
  pool.not_before_micros = 0;
  auto conn = std::make_unique<ClientConn>(fd);
  pool.busy.push_back(conn.get());
  return conn;
}

void TcpTransport::Checkin(const Address& to, std::unique_ptr<ClientConn> conn,
                           bool reusable) {
  {
    MutexLock lock(&state_mu_);
    PeerPool& pool = pools_[to];
    auto it = std::find(pool.busy.begin(), pool.busy.end(), conn.get());
    if (it != pool.busy.end()) {
      *it = pool.busy.back();
      pool.busy.pop_back();
    }
    if (reusable) {
      pool.idle.push_back(std::move(conn));
      return;
    }
  }
  conn.reset();  // closes the socket outside the lock
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
  Frame reply;
  do {
    s = table_.BeginCall(from, method, request.size(), &latency);
    if (!s.ok()) break;
    s = table_.CheckDeadline(call.deadline_micros, to);
    if (!s.ok()) break;

    // Every call still completes within the default budget even with no
    // deadline — a dead peer must not park the caller forever.
    const int64_t deadline = internal::MinDeadline(
        call.deadline_micros,
        call.span.start_micros + kDefaultCallTimeoutMillis * 1000);
    auto checkout = Checkout(to, deadline);
    if (!checkout.ok()) {
      s = checkout.status();
      break;
    }
    std::unique_ptr<ClientConn> conn = std::move(checkout.value());

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
    // The request bytes go out straight from the caller's slice: this
    // thread reads the reply itself, so nothing outlives the call.
    s = WriteFrame(conn->fd, EncodeFrame(frame, request), request, deadline,
                   clock_);
    if (s.ok()) {
      s = conn->reader.Read(conn->fd, options_.max_frame_bytes, deadline,
                            clock_, &reply);
    }
    if (s.ok() && (reply.type != Frame::kResponse ||
                   reply.correlation_id != frame.correlation_id)) {
      s = Status::Corruption("protocol error: reply for another call");
    }
    if (s.IsTimeout()) s = internal::EndpointTable::DeadlineError(to);
    // Only a complete reply to this call leaves the connection clean; after
    // a timeout the late reply could still arrive, so the socket goes.
    const bool reusable = s.ok() && conn->reader.buffered() == 0;
    Checkin(to, std::move(conn), reusable);
    if (s.ok() && reply.status_code != Code::kOk) {
      s = StatusFromWire(reply.status_code, std::move(reply.payload));
    }
  } while (false);

  call.Finish(s, reply.payload.size(), clock_->NowMicros(), latency,
              metrics());
  if (!s.ok()) return s;
  return PinnedSlice::Own(std::move(reply.payload));
}

// --- server path -----------------------------------------------------------

void TcpTransport::AcceptLoop(Listener* listener) {
  const int listen_fd = listener->fd;
  while (true) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    const int accept_errno = errno;
    if (fd >= 0) SetNoDelay(fd);
    bool closing = false;
    bool served = false;
    std::vector<std::unique_ptr<ServerConn>> finished;
    {
      MutexLock lock(&state_mu_);
      closing = listener->closing;
      // Join threads whose connections have ended (outside the lock).
      for (auto& conn : server_conns_) {
        if (conn->fd < 0) finished.push_back(std::move(conn));
      }
      std::erase(server_conns_, nullptr);
      if (fd >= 0 && !closing) {
        server_conns_.push_back(std::make_unique<ServerConn>());
        ServerConn* conn = server_conns_.back().get();
        conn->fd = fd;
        try {
          conn->thread = std::thread([this, conn, fd] { Serve(conn, fd); });
          served = true;
        } catch (const std::system_error&) {
          server_conns_.pop_back();  // out of threads: refuse the connection
        }
      }
    }
    for (auto& conn : finished) conn->thread.join();
    if (fd >= 0 && !served) ::close(fd);
    if (closing) break;
    if (fd < 0 && accept_errno != EINTR && accept_errno != ECONNABORTED) {
      // Out of descriptors or memory: let a connection end before retrying.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ::close(listen_fd);
}

void TcpTransport::Serve(ServerConn* conn, int fd) {
  FrameReader reader;
  Frame request;
  // An error, a corrupt frame or the peer's close ends the connection.
  while (reader.Read(fd, options_.max_frame_bytes, 0, clock_, &request)
             .ok()) {
    if (request.type != Frame::kRequest) continue;  // no call to complete
    PinnedSlice response;
    const Status s = Dispatch(request, &response);
    Frame reply;
    reply.type = Frame::kResponse;
    reply.correlation_id = request.correlation_id;
    reply.trace_id = request.trace_id;
    reply.span_id = request.span_id;
    reply.status_code = s.code();
    if (!s.ok()) response = PinnedSlice::Own(s.message());
    // No deadline: the caller closes its end when it gives up, which fails
    // this write.
    if (!WriteFrame(fd, EncodeFrame(reply, response.slice()), response.slice(),
                    0, clock_)
             .ok()) {
      break;
    }
  }
  {
    MutexLock lock(&state_mu_);
    conn->fd = -1;
  }
  ::close(fd);
}

Status TcpTransport::Dispatch(const Frame& request, PinnedSlice* response) {
  // Bounded dispatch: reject-before-work.
  Status s = table_.Admit(request.to);
  if (!s.ok()) return s;
  PayloadHandler handler;
  s = table_.CheckOpen();
  if (s.ok()) s = table_.CheckDeadline(request.deadline_micros, request.to);
  if (s.ok()) {
    s = table_.Lookup(request.to, request.method, request.payload.size(),
                      &handler);
  }
  if (s.ok() && handler) {
    // The handler runs on this connection's thread with the caller's trace
    // ambient, so nested calls it places parent under the caller's span
    // and inherit the deadline budget — exactly the sim backend's contract.
    internal::AmbientTraceScope ambient(obs::TraceContext{
        request.trace_id, request.span_id, request.deadline_micros});
    internal::CallerScope caller(request.from);
    auto result = handler(Slice(request.payload));
    if (result.ok()) {
      *response = std::move(result.value());
    } else {
      s = result.status();
    }
  }
  // The slot covers the handler's whole run, nested calls and all, as on
  // the sim backend. Release it before the reply goes out: a caller woken
  // by the reply may call again at once and must find the slot free.
  table_.Release();
  return s;
}

}  // namespace lidi::net
