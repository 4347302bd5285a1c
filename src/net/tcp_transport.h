#ifndef LIDI_NET_TCP_TRANSPORT_H_
#define LIDI_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
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

  /// Frames above this are a protocol error (connection closed).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Bounded request dispatch: maximum admitted requests in flight (running
  /// a handler on a connection thread). When the budget is exhausted the
  /// connection's thread replies Overloaded("dispatch queue full at <to>")
  /// before any handler work and increments
  /// "net.dispatch.shed{endpoint=<to>}", through the same
  /// internal::EndpointTable as the sim backend's max_dispatch_inflight.
  /// 0 = unbounded.
  int64_t max_dispatch_inflight = 0;
};

/// Real-socket backend of net::Transport (DESIGN.md §10): blocking socket
/// I/O over localhost TCP with the net/frame.h codec.
///
/// Client side: a call checks out one pooled connection to its peer for its
/// own use (dialing when none is idle), writes its request frame straight
/// from the caller's slice with gathered sendmsg calls, and reads its own
/// reply with poll + recv, bounded by the call deadline. The connection goes
/// back to the pool only after a complete reply carrying the call's
/// correlation id; a timeout or any error closes it, so a late reply can
/// never reach a later call.
///
/// Server side: each listener has one thread blocked in accept4, and each
/// accepted connection gets one thread that reads a request, runs the
/// handler inline and writes the reply. A handler's nested calls check out
/// connections of their own, served by threads of their own, so a nested
/// call never queues behind the thread that waits for it.
///
/// What sim guarantees that this backend does not: determinism (kernel
/// scheduling is real), virtual time, and seeded fault injection. What both
/// guarantee identically: the Transport error contract, trace-span/deadline
/// propagation (through the frame header here, the ambient thread-local
/// in-sim), and endpoint stats.
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
  struct Listener;
  struct ClientConn;
  struct ServerConn;
  struct PeerPool;

  /// Takes a connection to `to` for the caller's exclusive use: the most
  /// recently pooled idle one the peer has not closed, else a fresh dial
  /// (nonblocking connect + poll, bounded by the tighter of the connect
  /// budget and `deadline_micros`). Applies reconnect backoff.
  Result<std::unique_ptr<ClientConn>> Checkout(const Address& to,
                                               int64_t deadline_micros);

  /// Hands a checked-out connection back: to the idle pool when `reusable`,
  /// else it is closed.
  void Checkin(const Address& to, std::unique_ptr<ClientConn> conn,
               bool reusable);

  /// Connects to `to` at host:port and returns the socket in *fd.
  Status Dial(const Address& to, const std::string& host, uint16_t port,
              int64_t deadline_micros, int* fd);

  void AcceptLoop(Listener* listener);
  /// One accepted connection's thread: request, handler, reply, until the
  /// peer closes, a frame is corrupt or the transport is destroyed.
  void Serve(ServerConn* conn, int fd);
  /// Admit -> CheckOpen -> CheckDeadline -> Lookup -> handler -> Release;
  /// the handler's response lands in *response.
  Status Dispatch(const Frame& request, PinnedSlice* response);

  const TcpTransportOptions options_;
  const Clock* const clock_;
  // tsa-ok: internally synchronized; its net.table lock is taken under
  // state_mu_ only to keep handlers and listeners in step.
  internal::EndpointTable table_;

  /// Listeners, static peers, peer pools and the accepted connections. Never
  /// held across a handler invocation or a blocking socket op; the only
  /// socket calls made under it are shutdown(2) on sockets another thread
  /// owns (see DESIGN.md §10.3).
  mutable Mutex state_mu_{"net.tcp.state", lockrank::kNetTcpState};
  std::map<Address, std::unique_ptr<Listener>> listeners_
      LIDI_GUARDED_BY(state_mu_);
  std::map<Address, std::pair<std::string, uint16_t>> static_peers_
      LIDI_GUARDED_BY(state_mu_);
  std::map<Address, PeerPool> pools_ LIDI_GUARDED_BY(state_mu_);
  std::vector<std::unique_ptr<ServerConn>> server_conns_
      LIDI_GUARDED_BY(state_mu_);

  std::atomic<uint64_t> next_correlation_{1};
};

}  // namespace lidi::net

#endif  // LIDI_NET_TCP_TRANSPORT_H_
