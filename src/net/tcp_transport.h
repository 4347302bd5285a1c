#ifndef LIDI_NET_TCP_TRANSPORT_H_
#define LIDI_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/sync.h"
#include "net/frame.h"
#include "net/transport.h"

namespace lidi::net {

struct TcpTransportOptions {
  /// Interface listeners bind to and pooled connections dial. Localhost by
  /// default: the bench topology runs every tier in one process over real
  /// kernel sockets.
  std::string bind_host = "127.0.0.1";

  /// Client-side pooled connections per destination address.
  int connections_per_peer = 2;

  /// Frames above this are a protocol error (connection poisoned).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Bounded request dispatch: maximum admitted request frames in flight
  /// (queued for a worker or executing in one). When the budget is
  /// exhausted the reactor replies Overloaded("dispatch queue full at
  /// <to>") immediately — reject-before-work, the worker queue stays
  /// bounded — and increments "net.dispatch.shed{endpoint=<to>}", through
  /// the same internal::EndpointTable as the sim backend's
  /// max_dispatch_inflight. 0 = unbounded.
  int64_t max_dispatch_inflight = 0;
};

/// Real-socket backend of net::Transport (DESIGN.md §10): one epoll reactor
/// thread over nonblocking localhost TCP with the net/frame.h codec.
///
/// Shape (the synkafka broker/connection state machine, sync-call-over-
/// async): callers serialize a request frame, enqueue it on a pooled
/// per-peer connection, and park on the connection's CondVar; the reactor
/// moves bytes and matches response frames to pending calls by correlation
/// id. Server-side, complete request frames are handed to a pool of worker
/// threads that run the registered handler and stream the response back (a
/// pinned payload is its own iovec in the gathered sendmsg — the zero-copy
/// fetch path costs one deserialize copy per side, never more).
///
/// What sim guarantees that this backend does not: determinism (kernel
/// scheduling and socket readiness order are real), virtual time, and
/// seeded fault injection. What both guarantee identically: the Transport
/// error contract, trace-span/deadline propagation (through the frame
/// header here, the ambient thread-local in-sim), and endpoint stats.
///
/// Lifecycle: RegisterPayload(addr, ...) binds one listener per address
/// (port 0 = kernel-assigned, resolvable via ListenPort); Shutdown() stops
/// dispatch; the destructor joins every thread. Callers must have returned
/// before the transport is destroyed.
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TcpTransportOptions options = {},
                        obs::MetricsRegistry* metrics = nullptr,
                        const Clock* clock = nullptr);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  obs::MetricsRegistry* metrics() const override { return table_.metrics(); }

  void RegisterPayload(const Address& addr, const std::string& method,
                       PayloadHandler handler) override;

  void Unregister(const Address& addr) override;

  using Transport::Call;
  using Transport::CallPayload;

  Result<PinnedSlice> CallPayload(const Address& from, const Address& to,
                                  const std::string& method, Slice request,
                                  const CallOptions& options) override;

  void Shutdown() override { table_.Shutdown(); }

  EndpointStats GetStats(const Address& addr) const override {
    return table_.GetStats(addr);
  }
  void ResetStats() override { table_.ResetStats(); }
  int64_t total_calls() const override { return table_.total_calls(); }

  /// The kernel-assigned port `addr`'s listener accepts on (0 if `addr` has
  /// no registered handlers). Lets a second process — or a raw test socket —
  /// dial this endpoint.
  uint16_t ListenPort(const Address& addr) const;

  /// Maps a destination address served by another process/transport to
  /// host:port, for cross-process topologies.
  void AddStaticPeer(const Address& addr, const std::string& host,
                     uint16_t port);

  /// Test/chaos hook: hard-closes every pooled connection to `peer`, as a
  /// peer crash would. In-flight calls on those connections fail
  /// Unavailable; the next call redials (subject to backoff).
  void DropConnections(const Address& peer);

 private:
  struct FdSource;
  struct Listener;
  struct Connection;
  struct PendingCall;
  struct OutChunk;
  struct Reactor;
  struct PeerPool;
  struct Work;

  /// Resolves `to` to host:port — local listener first, then static peers.
  Status Resolve(const Address& to, std::string* host, uint16_t* port) const;

  /// Returns an open pooled connection to `to`, dialing if needed
  /// (nonblocking connect + poll, bounded by the tighter of the connect
  /// budget and `deadline_micros`). Applies reconnect backoff.
  Result<std::shared_ptr<Connection>> GetConnection(const Address& to,
                                                    int64_t deadline_micros);

  std::shared_ptr<Connection> DialLocked(const Address& to,
                                         const std::string& host,
                                         uint16_t port,
                                         int64_t deadline_micros,
                                         Status* error);

  void ReactorLoop();
  void WorkerLoop();
  /// Runs one admitted request frame and sends its reply; releases the
  /// dispatch slot the reactor took for it.
  void HandleRequest(const std::shared_ptr<Connection>& conn, Frame frame);
  void ReadConn(const std::shared_ptr<Connection>& conn);
  void ReapConn(const std::shared_ptr<Connection>& conn, const Status& status);
  void AcceptAll(const std::shared_ptr<Listener>& listener);
  /// Queues and flushes the response frame to `request`: `response` on
  /// success, else the status message (StatusFromWire on the caller side).
  void SendResponse(const std::shared_ptr<Connection>& conn,
                    const Frame& request, const Status& status,
                    PinnedSlice response);
  void StopThreads();

  const TcpTransportOptions options_;
  const Clock* const clock_;
  // tsa-ok: internally synchronized; its net.table lock is taken under
  // state_mu_ only to keep handlers and listeners in step.
  internal::EndpointTable table_;

  /// Listeners, static peers and peer pools. Never held across a handler
  /// invocation or a blocking socket op (dial happens with it released).
  mutable Mutex state_mu_{"net.tcp.state", lockrank::kNetTcpState};
  std::map<Address, std::shared_ptr<Listener>> listeners_
      LIDI_GUARDED_BY(state_mu_);
  std::map<Address, std::pair<std::string, uint16_t>> static_peers_
      LIDI_GUARDED_BY(state_mu_);
  std::map<Address, PeerPool> pools_ LIDI_GUARDED_BY(state_mu_);

  /// The one reactor; it has its own mutex for the state its thread shares
  /// with callers.
  const std::unique_ptr<Reactor> reactor_;

  /// Worker queue: request frames waiting for a handler thread.
  Mutex queue_mu_{"net.tcp.queue", lockrank::kNetTcpQueue};
  CondVar queue_cv_;
  std::deque<Work> queue_ LIDI_GUARDED_BY(queue_mu_);
  bool stopping_ LIDI_GUARDED_BY(queue_mu_) = false;
  // tsa-ok: spawned in the constructor, joined in Stop/destructor; worker
  // threads never touch the vector itself.
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> next_correlation_{1};
  std::atomic<bool> threads_stopped_{false};
};

}  // namespace lidi::net

#endif  // LIDI_NET_TCP_TRANSPORT_H_
