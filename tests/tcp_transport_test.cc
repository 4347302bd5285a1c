#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/sync.h"
#include "net/address.h"
#include "net/frame.h"
#include "net/transport.h"

namespace lidi {
namespace {

using net::CallOptions;
using net::TcpTransport;
using net::TcpTransportOptions;
using net::Transport;

constexpr char kServer[] = "server-a";
constexpr char kClient[] = "client-1";

void RegisterEcho(Transport* t, const std::string& addr) {
  t->Register(addr, "echo", [](Slice req) -> Result<std::string> {
    return "echo:" + req.ToString();
  });
}

TEST(TcpTransportTest, CallReachesHandlerOverRealSockets) {
  TcpTransport t;
  RegisterEcho(&t, kServer);
  ASSERT_GT(t.ListenPort(kServer), 0);  // a real kernel listener exists
  auto r = t.Call(kClient, kServer, "echo", "hi");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), "echo:hi");
  EXPECT_EQ(t.total_calls(), 1);
  EXPECT_EQ(t.GetStats(kClient).calls_sent, 1);
  EXPECT_EQ(t.GetStats(kServer).calls_received, 1);
}

TEST(TcpTransportTest, PayloadPathCarriesPinnedResponse) {
  TcpTransport t;
  const std::string big(256 * 1024, 'k');
  t.RegisterPayload(kServer, "fetch",
                    [&big](Slice) -> Result<PinnedSlice> {
                      return PinnedSlice::Own(std::string(big));
                    });
  auto r = t.CallPayload(kClient, kServer, "fetch", "");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), big.size());
  EXPECT_EQ(r.value().ToString(), big);
}

TEST(TcpTransportTest, HandlerErrorStatusTravelsBack) {
  TcpTransport t;
  t.Register(kServer, "fail", [](Slice) -> Result<std::string> {
    return Status::ObsoleteVersion("stale write");
  });
  auto r = t.Call(kClient, kServer, "fail", "");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsObsoleteVersion());
  EXPECT_EQ(r.status().message(), "stale write");
}

TEST(TcpTransportTest, CrossTransportCallViaStaticPeer) {
  TcpTransport server;
  RegisterEcho(&server, kServer);
  TcpTransport client;
  client.AddStaticPeer(kServer, "127.0.0.1", server.ListenPort(kServer));
  auto r = client.Call(kClient, kServer, "echo", "cross");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), "echo:cross");
}

TEST(TcpTransportTest, ConcurrentCallersShareThePool) {
  TcpTransport t;
  RegisterEcho(&t, kServer);

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t, &ok, i] {
      for (int j = 0; j < kCallsPerThread; ++j) {
        const std::string body =
            std::to_string(i) + ":" + std::to_string(j);
        auto r = t.Call("caller-" + std::to_string(i), kServer, "echo", body);
        if (r.ok() && r.value() == "echo:" + body) ok.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), kThreads * kCallsPerThread);
  EXPECT_EQ(t.total_calls(), kThreads * kCallsPerThread);
}

TEST(TcpTransportTest, LargeFramesQueuedBehindAShortWriteArriveIntact) {
  // Four callers at once, each on a connection of its own. Every frame is
  // larger than the loopback socket buffer, so each request's sendmsg
  // returns short and resumes after poll reports the socket writable, while
  // the server's thread reads it in pieces. The 4 MB replies take the same
  // partial-write path back from the server side.
  TcpTransport t;
  t.RegisterPayload(kServer, "mirror", [](Slice req) -> Result<PinnedSlice> {
    return PinnedSlice::Copy(req);
  });

  constexpr int kCallers = 4;
  constexpr int kCallsPerCaller = 2;
  constexpr size_t kFrameBytes = 4u << 20;
  std::atomic<int> intact{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&t, &intact, i] {
      // Distinct random bytes per call: a reply spliced from another
      // caller's frame, or a misplaced segment, cannot compare equal.
      Random rng(1000 + static_cast<uint64_t>(i));
      for (int j = 0; j < kCallsPerCaller; ++j) {
        const std::string body = rng.Bytes(kFrameBytes);
        auto r = t.CallPayload("caller-" + std::to_string(i), kServer,
                               "mirror", Slice(body));
        if (r.ok() && r.value().slice() == Slice(body)) intact.fetch_add(1);
      }
    });
  }
  for (auto& th : callers) th.join();
  EXPECT_EQ(intact.load(), kCallers * kCallsPerCaller);
}

TEST(TcpTransportTest, PeerDisconnectMidCallFailsUnavailable) {
  TcpTransport server;
  Mutex mu;
  CondVar cv;
  bool in_handler = false;
  bool release_handler = false;
  server.Register(kServer, "slow",
                  [&](Slice) -> Result<std::string> {
                    MutexLock lock(&mu);
                    in_handler = true;
                    cv.NotifyAll();
                    while (!release_handler) cv.Wait(&mu);
                    return std::string("late");
                  });

  TcpTransport client;
  client.AddStaticPeer(kServer, "127.0.0.1", server.ListenPort(kServer));

  Status observed = Status::OK();
  std::thread caller([&] {
    observed = client.Call(kClient, kServer, "slow", "").status();
  });
  {
    MutexLock lock(&mu);
    while (!in_handler) cv.Wait(&mu);
  }
  // The peer "crashes" while the call is parked awaiting its response.
  client.DropConnections(kServer);
  caller.join();
  EXPECT_TRUE(observed.IsUnavailable()) << observed.ToString();

  {
    MutexLock lock(&mu);
    release_handler = true;
    cv.NotifyAll();
  }
  // The pool redials on the next call (no lingering poisoned state).
  server.Register(kServer, "echo", [](Slice req) -> Result<std::string> {
    return "echo:" + req.ToString();
  });
  auto r = client.Call(kClient, kServer, "echo", "again");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(TcpTransportTest, DeadlineExpiresWhileHandlerRuns) {
  TcpTransport t;
  t.Register(kServer, "slow", [](Slice) -> Result<std::string> {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    return std::string("late");
  });
  CallOptions options;
  options.deadline_micros = SystemClock::Default()->NowMicros() + 50'000;
  auto r = t.Call(kClient, kServer, "slow", "", options);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  EXPECT_EQ(r.status().message(),
            std::string("deadline budget exhausted calling ") + kServer);
}

TEST(TcpTransportTest, TimedOutCallsLateReplyNeverReachesTheNextCall) {
  TcpTransport t;
  t.Register(kServer, "echo", [](Slice req) -> Result<std::string> {
    if (req == Slice("slow")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    return "echo:" + req.ToString();
  });
  Clock* clock = SystemClock::Default();
  const int64_t start = clock->NowMicros();
  CallOptions options;
  options.deadline_micros = start + 50'000;
  auto slow = t.Call(kClient, kServer, "echo", "slow", options);
  ASSERT_FALSE(slow.ok());
  EXPECT_TRUE(slow.status().IsTimeout()) << slow.status().ToString();

  // Calls to the same peer while the slow handler still runs, and until
  // well after its late reply would have arrived, each read their own reply.
  for (int i = 0; clock->NowMicros() < start + 400'000; ++i) {
    const std::string body = "next-" + std::to_string(i);
    auto r = t.Call(kClient, kServer, "echo", body);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), "echo:" + body);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST(TcpTransportTest, IdleConnectionClosedByPeerIsRedialed) {
  TcpTransport client;
  auto server = std::make_unique<TcpTransport>();
  RegisterEcho(server.get(), kServer);
  client.AddStaticPeer(kServer, "127.0.0.1", server->ListenPort(kServer));
  ASSERT_TRUE(client.Call(kClient, kServer, "echo", "first").ok());

  // The peer goes away while the client's connection to it sits idle in
  // the pool, and a new transport serves the address on another port.
  server.reset();
  TcpTransport replacement;
  RegisterEcho(&replacement, kServer);
  client.AddStaticPeer(kServer, "127.0.0.1", replacement.ListenPort(kServer));

  auto r = client.Call(kClient, kServer, "echo", "second");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), "echo:second");
}

TEST(TcpTransportTest, NestedCallCycleWithMoreCallersThanWorkers) {
  // A's handler calls B and B's handler calls back into A, so each call
  // holds two handlers while its innermost one runs. Eight callers keep up
  // to sixteen handlers waiting at once, more than any fixed pool of four
  // handler threads could run.
  TcpTransport t;
  Transport* transport = &t;
  t.Register("node-a", "leaf", [](Slice req) -> Result<std::string> {
    return "leaf:" + req.ToString();
  });
  t.Register("node-b", "relay", [transport](Slice req) {
    return transport->Call("node-b", "node-a", "leaf", req);
  });
  t.Register("node-a", "outer", [transport](Slice req) {
    return transport->Call("node-a", "node-b", "relay", req);
  });

  constexpr int kCallers = 8;
  constexpr int kCallsPerCaller = 50;
  std::atomic<int> correct{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&t, &correct, i] {
      for (int j = 0; j < kCallsPerCaller; ++j) {
        CallOptions options;
        options.deadline_micros =
            SystemClock::Default()->NowMicros() + 2'000'000;
        const std::string body = std::to_string(i) + "/" + std::to_string(j);
        auto r = t.Call("caller-" + std::to_string(i), "node-a", "outer",
                        body, options);
        if (r.ok() && r.value() == "leaf:" + body) correct.fetch_add(1);
      }
    });
  }
  for (auto& th : callers) th.join();
  EXPECT_EQ(correct.load(), kCallers * kCallsPerCaller);
}

TEST(TcpTransportTest, AlreadyExpiredDeadlineFailsBeforeDialing) {
  TcpTransport t;
  CallOptions options;
  options.deadline_micros = 1;  // epochs ago on the steady clock
  auto r = t.Call(kClient, "never-registered", "m", "", options);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
}

TEST(TcpTransportTest, TraceAndDeadlinePropagateThroughFrameHeader) {
  TcpTransport t;
  std::atomic<uint64_t> seen_trace{0};
  std::atomic<int64_t> seen_deadline{0};
  t.Register(kServer, "traced",
             [&](Slice) -> Result<std::string> {
               const obs::TraceContext& ambient = net::internal::AmbientTrace();
               seen_trace = ambient.trace_id;
               seen_deadline = ambient.deadline_micros;
               return std::string("ok");
             });
  obs::TraceContext root = t.metrics()->StartTrace(
      SystemClock::Default()->NowMicros() + 5'000'000);
  CallOptions options;
  options.trace = &root;
  auto r = t.Call(kClient, kServer, "traced", "", options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(seen_trace.load(), root.trace_id);
  EXPECT_EQ(seen_deadline.load(), root.deadline_micros);
}

/// Adversarial wire input through a raw kernel socket: garbage and corrupted
/// frames must poison only that connection (server closes it), never the
/// transport.
class RawSocket {
 public:
  explicit RawSocket(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &sin.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) == 0;
  }
  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }
  void Send(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  /// Sends what the peer takes, then half-closes, so the peer reads end of
  /// stream after the bytes. A peer that closed first is not an error.
  void SendAndCloseWrite(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::shutdown(fd_, SHUT_WR);
  }
  /// Reads until the peer closes; returns everything received.
  std::string ReadToEof() {
    std::string out;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }
  /// Reads until at least one full frame decodes (or EOF).
  bool ReadFrame(net::Frame* frame) {
    std::string buf;
    char chunk[4096];
    while (true) {
      size_t consumed = 0;
      std::string error;
      if (net::DecodeFrame(Slice(buf), net::kDefaultMaxFrameBytes, frame,
                           &consumed, &error) == net::DecodeStatus::kOk) {
        return true;
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(TcpTransportTest, RawSocketSpeaksTheFrameProtocol) {
  TcpTransport t;
  RegisterEcho(&t, kServer);
  RawSocket sock(t.ListenPort(kServer));
  ASSERT_TRUE(sock.connected());

  net::Frame req;
  req.type = net::Frame::kRequest;
  req.correlation_id = 77;
  req.from = "raw-client";
  req.to = kServer;
  req.method = "echo";
  const std::string payload = "raw";
  sock.Send(net::EncodeFrameToString(req, Slice(payload)));

  net::Frame resp;
  ASSERT_TRUE(sock.ReadFrame(&resp));
  EXPECT_EQ(resp.type, net::Frame::kResponse);
  EXPECT_EQ(resp.correlation_id, 77u);
  EXPECT_EQ(resp.status_code, Code::kOk);
  EXPECT_EQ(resp.payload, "echo:raw");
}

TEST(TcpTransportTest, CorruptFramePoisonsOnlyThatConnection) {
  TcpTransport t;
  RegisterEcho(&t, kServer);

  net::Frame req;
  req.type = net::Frame::kRequest;
  req.from = "raw";
  req.to = kServer;
  req.method = "echo";
  std::string wire = net::EncodeFrameToString(req, Slice("x"));
  wire.back() ^= 0x1;  // break the CRC

  RawSocket bad(t.ListenPort(kServer));
  ASSERT_TRUE(bad.connected());
  bad.Send(wire);
  EXPECT_EQ(bad.ReadToEof(), "");  // server closed without responding

  // The transport itself still serves well-formed callers.
  auto r = t.Call(kClient, kServer, "echo", "still-alive");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), "echo:still-alive");
}

TEST(TcpTransportTest, OversizedFrameIsRejectedAtTheWire) {
  TcpTransportOptions options;
  options.max_frame_bytes = 1 << 16;
  TcpTransport t(options);
  RegisterEcho(&t, kServer);

  RawSocket sock(t.ListenPort(kServer));
  ASSERT_TRUE(sock.connected());
  // A length prefix claiming 1 GiB: the server must drop the connection
  // after the 4-byte read, not allocate.
  std::string prefix(4, '\0');
  const uint32_t huge = 1u << 30;
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  sock.Send(prefix);
  EXPECT_EQ(sock.ReadToEof(), "");
}

/// Seeded mutation harness for the server's frame reader (the frame_test
/// style, over a real socket). Each seed mutates a valid request — a few
/// flipped bits, a truncation, a length prefix over the limit, or random
/// bytes in its place — and sends it on a raw connection, half the time
/// behind one intact request. The server must answer with well-formed
/// response frames (the intact request's echo) or nothing, then close the
/// connection; a well-formed call must succeed afterwards. Replay one seed
/// with LIDI_FRAME_SEED=<seed>.
TEST(TcpTransportTest, SeededMutatedFramesNeverCrashTheServer) {
  TcpTransportOptions options;
  options.max_frame_bytes = 1 << 16;
  TcpTransport t(options);
  RegisterEcho(&t, kServer);

  uint64_t first_seed = 1;
  uint64_t seeds = 200;
  if (const char* env = std::getenv("LIDI_FRAME_SEED")) {
    first_seed = std::strtoull(env, nullptr, 10);
    seeds = 1;
  }
  for (uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
    SCOPED_TRACE("LIDI_FRAME_SEED=" + std::to_string(seed));
    Random rng(seed);
    net::Frame req;
    req.type = net::Frame::kRequest;
    req.from = "raw";
    req.to = kServer;
    req.method = "echo";
    req.correlation_id = seed;
    const std::string intact_body = rng.Bytes(rng.Uniform(64));
    const std::string intact =
        net::EncodeFrameToString(req, Slice(intact_body));
    std::string mutated =
        net::EncodeFrameToString(req, Slice(rng.Bytes(rng.Uniform(256))));
    switch (rng.Uniform(4)) {
      case 0:  // bit flips anywhere, the length prefix included
        for (uint64_t i = 0, n = 1 + rng.Uniform(3); i < n; ++i) {
          mutated[rng.Uniform(mutated.size())] ^=
              static_cast<char>(1 << rng.Uniform(8));
        }
        break;
      case 1:  // torn: the peer stops mid-frame
        mutated.resize(rng.Uniform(mutated.size()));
        break;
      case 2: {  // a length prefix over max_frame_bytes
        const uint32_t len = static_cast<uint32_t>(
            options.max_frame_bytes + 1 + rng.Uniform(1u << 30));
        for (int i = 0; i < 4; ++i) {
          mutated[i] = static_cast<char>((len >> (8 * i)) & 0xff);
        }
        break;
      }
      default:  // not a frame at all
        mutated = rng.Bytes(1 + rng.Uniform(256));
        break;
    }
    const bool lead = rng.Uniform(2) == 0;

    RawSocket sock(t.ListenPort(kServer));
    ASSERT_TRUE(sock.connected());
    sock.SendAndCloseWrite(lead ? intact + mutated : mutated);
    const std::string back = sock.ReadToEof();

    // Whatever came back is whole response frames, nothing else.
    size_t off = 0;
    int replies = 0;
    while (off < back.size()) {
      net::Frame resp;
      size_t consumed = 0;
      std::string error;
      ASSERT_EQ(net::DecodeFrame(Slice(back.data() + off, back.size() - off),
                                 net::kDefaultMaxFrameBytes, &resp, &consumed,
                                 &error),
                net::DecodeStatus::kOk)
          << error;
      EXPECT_EQ(resp.type, net::Frame::kResponse);
      EXPECT_EQ(resp.correlation_id, seed);
      if (replies == 0 && lead) {
        EXPECT_EQ(resp.status_code, Code::kOk);
        EXPECT_EQ(resp.payload, "echo:" + intact_body);
      }
      off += consumed;
      ++replies;
    }
    if (lead) {
      EXPECT_GE(replies, 1);
    }
  }

  auto r = t.Call(kClient, kServer, "echo", "still-serving");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), "echo:still-serving");
}

TEST(TcpTransportTest, ShutdownFailsSubsequentCallsAndJoinsCleanly) {
  auto t = std::make_unique<TcpTransport>();
  RegisterEcho(t.get(), kServer);
  ASSERT_TRUE(t->Call(kClient, kServer, "echo", "pre").ok());
  t->Shutdown();
  auto r = t->Call(kClient, kServer, "echo", "post");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_EQ(r.status().message(), "transport shut down");
  t.reset();  // destructor joins the accept and connection threads
}

TEST(TcpTransportTest, TierCodeRunsUnmodifiedOverTcp) {
  // The satellite claim in one test: a handler registered through the same
  // Transport* surface the tiers use, addressed through the typed factory.
  TcpTransport t;
  Transport* transport = &t;
  const net::Address broker = net::MakeAddress(net::Tier::kKafkaBroker, 0);
  transport->Register(broker, "kafka.produce",
                      [](Slice req) -> Result<std::string> {
                        return "ack:" + std::to_string(req.size());
                      });
  auto r = transport->Call("producer-0", broker, "kafka.produce", "abc");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), "ack:3");
}

}  // namespace
}  // namespace lidi
