// Stress-tier chaos tests for the Unix-socket front end (DESIGN.md §13):
// a real `SocketServer` on a temp socket, attacked with garbage frames,
// mid-exchange disconnects, stalled writers and concurrent clients. The
// server must classify each abuse (closed_protocol / closed_stall /
// rejected_capacity), keep serving well-behaved peers, and stop cleanly
// with clients still connected. Runs under ASan/TSan in CI.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "hin/graph.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "test_util.h"

namespace hetesim::service {
namespace {

using hetesim::testing::BuildFig4Graph;

/// Raw blocking client for protocol-abuse tests: no framing, no retries,
/// just bytes on the wire.
class RawConnection {
 public:
  explicit RawConnection(const std::string& path) {
    struct sockaddr_un addr;
    memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return;
    memcpy(addr.sun_path, path.c_str(), path.size());
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    if (connect(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
      close(fd_);
      fd_ = -1;
    }
  }
  ~RawConnection() {
    if (fd_ >= 0) close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  bool SendAll(const std::string& bytes) {
    size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = send(fd_, bytes.data() + done, bytes.size() - done,
                             MSG_NOSIGNAL);
      if (n <= 0) return false;
      done += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads until EOF or `bytes` arrived; returns what it got.
  std::string ReadUpTo(size_t bytes) {
    std::string buffer;
    buffer.reserve(bytes);
    while (buffer.size() < bytes) {
      char chunk[256];
      const size_t want = std::min(sizeof(chunk), bytes - buffer.size());
      const ssize_t n = recv(fd_, chunk, want, 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<size_t>(n));
    }
    return buffer;
  }

  /// True when the server terminated the connection: orderly EOF, or
  /// ECONNRESET when it closed with our bytes still unread.
  bool WaitForClose() {
    char byte;
    return recv(fd_, &byte, 1, 0) <= 0;
  }

 private:
  int fd_ = -1;
};

class SocketServerTest : public ::testing::Test {
 protected:
  SocketServerTest() : graph_(BuildFig4Graph()) {
    ServiceOptions service_options;
    service_options.admission.workers = 2;
    service_options.memory_mb = 64;       // real reservations, real releases
    service_options.cache_enabled = false;  // cache entries would persist
    service_ = QueryService::Create(graph_, service_options);
    socket_path_ = StrFormat("%shsq_%d_%s.sock", ::testing::TempDir().c_str(),
                             static_cast<int>(getpid()),
                             ::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name());
  }

  void StartServer(ServerOptions options = {}) {
    options.socket_path = socket_path_;
    Result<std::unique_ptr<SocketServer>> server =
        SocketServer::Start(service_.get(), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    unlink(socket_path_.c_str());
  }

  /// Replaces the service with a one-worker service on which `HogRequest`
  /// runs for most of a second or longer, far longer than a cancel takes to
  /// stop it. Call before `StartServer`.
  void UseHogService() {
    static const HinGraph hog_graph = testing::RandomTripartite(300, 300, 20, 0.2, 5);
    ServiceOptions service_options;
    service_options.admission.workers = 1;
    service_options.memory_mb = 64;
    service_options.cache_enabled = false;
    service_ = QueryService::Create(hog_graph, service_options);
  }

  /// A single-source query whose right half multiplies a chain of 200
  /// dense 300 x 300 transitions.
  static QueryRequest HogRequest() {
    QueryRequest hog;
    hog.kind = QueryKind::kSingleSource;
    hog.path = "A";
    for (int i = 0; i < 200; ++i) hog.path += "-B-A";
    hog.source = 0;
    return hog;
  }

  /// Waits until the hog executes: its chain products are then charged to
  /// the budget.
  void AwaitHogExecuting() const {
    while (service_->MemoryUsedBytes() < (256u << 10) &&
           service_->stats().completed == 0) {
      std::this_thread::yield();
    }
  }

  static QueryRequest PairRequest(uint64_t id) {
    QueryRequest request;
    request.id = id;
    request.kind = QueryKind::kPair;
    request.path = "A-P-A";
    request.source = 0;
    request.target = 1;
    return request;
  }

  HinGraph graph_;
  std::unique_ptr<QueryService> service_;
  std::string socket_path_;
  std::unique_ptr<SocketServer> server_;
};

TEST_F(SocketServerTest, PingAndQueriesMatchInProcessResults) {
  StartServer();
  SocketClient client(socket_path_);
  ASSERT_TRUE(client.Ping());
  const QueryResponse over_wire = client.Execute(PairRequest(1));
  ASSERT_TRUE(over_wire.served()) << over_wire.message;
  const QueryResponse in_process = service_->Execute(PairRequest(2));
  ASSERT_TRUE(in_process.served());
  ASSERT_EQ(over_wire.scores.size(), in_process.scores.size());
  EXPECT_NEAR(over_wire.scores[0], in_process.scores[0], 1e-12);
  EXPECT_EQ(over_wire.id, 1u);  // ids echo through the wire
  EXPECT_GE(server_->stats().requests, 1u);
}

TEST_F(SocketServerTest, GarbageHeaderClosesOnlyThatConnection) {
  StartServer();
  RawConnection abuser(socket_path_);
  ASSERT_TRUE(abuser.connected());
  ASSERT_TRUE(abuser.SendAll("garbageframe"));  // exactly one header's worth
  EXPECT_TRUE(abuser.WaitForClose());  // unsynchronized stream: cut it
  EXPECT_GE(server_->stats().closed_protocol, 1u);

  // A well-behaved client on a fresh connection is unaffected.
  SocketClient client(socket_path_);
  EXPECT_TRUE(client.Execute(PairRequest(3)).served());
}

TEST_F(SocketServerTest, MalformedPayloadGetsErrorResponseAndKeepsConnection) {
  StartServer();
  RawConnection connection(socket_path_);
  ASSERT_TRUE(connection.connected());
  // Valid frame header, undecodable request payload: the frame layer is
  // still synchronized, so the server answers instead of hanging up.
  ASSERT_TRUE(connection.SendAll(EncodeFrame(FrameType::kRequest, "garbage")));
  const std::string header_bytes = connection.ReadUpTo(kFrameHeaderBytes);
  ASSERT_EQ(header_bytes.size(), kFrameHeaderBytes);
  Result<FrameHeader> header = DecodeFrameHeader(
      reinterpret_cast<const uint8_t*>(header_bytes.data()));
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  ASSERT_EQ(header->type, FrameType::kResponse);
  Result<QueryResponse> response =
      DecodeResponse(connection.ReadUpTo(header->payload_bytes));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->outcome, ResponseOutcome::kError);

  // Same connection, now a real request: still serviceable.
  ASSERT_TRUE(connection.SendAll(
      EncodeFrame(FrameType::kRequest, EncodeRequest(PairRequest(4)))));
  const std::string second_header = connection.ReadUpTo(kFrameHeaderBytes);
  ASSERT_EQ(second_header.size(), kFrameHeaderBytes);
  Result<FrameHeader> header2 = DecodeFrameHeader(
      reinterpret_cast<const uint8_t*>(second_header.data()));
  ASSERT_TRUE(header2.ok());
  Result<QueryResponse> served =
      DecodeResponse(connection.ReadUpTo(header2->payload_bytes));
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->served());
}

TEST_F(SocketServerTest, StalledClientIsDisconnected) {
  ServerOptions options;
  options.io_timeout_ms = 200;  // fast stall verdicts for the test
  StartServer(options);
  RawConnection staller(socket_path_);
  ASSERT_TRUE(staller.connected());
  // Half a header, then silence: the read blocks until the stall guard
  // fires and the server cuts the connection.
  ASSERT_TRUE(staller.SendAll("HSQ1"));
  EXPECT_TRUE(staller.WaitForClose());
  EXPECT_GE(server_->stats().closed_stall, 1u);
}

TEST_F(SocketServerTest, DisconnectMidQueryLeavesServerHealthy) {
  StartServer();
  for (int i = 0; i < 8; ++i) {
    RawConnection vanisher(socket_path_);
    ASSERT_TRUE(vanisher.connected());
    ASSERT_TRUE(vanisher.SendAll(
        EncodeFrame(FrameType::kRequest, EncodeRequest(PairRequest(100 + i)))));
    // Destructor closes the socket, possibly while the query runs.
  }
  SocketClient client(socket_path_);
  EXPECT_TRUE(client.Execute(PairRequest(9)).served());
  // Nothing leaks server-side: once the abandoned queries drain, every
  // reservation is back. Poll briefly — the cancels are asynchronous.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service_->MemoryUsedBytes() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(service_->MemoryUsedBytes(), 0u);
}

TEST_F(SocketServerTest, HangUpCancelsTheExecutingQuery) {
  // The client hangs up while the hog executes: the accept loop sees the
  // hang-up and cancels the request, so the handler returns and the budget
  // drains long before the query would have finished.
  UseHogService();
  StartServer();
  {
    RawConnection client(socket_path_);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendAll(
        EncodeFrame(FrameType::kRequest, EncodeRequest(HogRequest()))));
    AwaitHogExecuting();
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((service_->stats().completed == 0 || service_->MemoryUsedBytes() != 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->stats().disconnect_cancels, 1u);
  EXPECT_EQ(service_->stats().completed, 1u);
  EXPECT_EQ(service_->stats().served, 0u);
  EXPECT_EQ(service_->MemoryUsedBytes(), 0u);
}

TEST_F(SocketServerTest, ConcurrentClientsAllGetWellFormedAnswers) {
  StartServer();
  constexpr int kClients = 8;
  constexpr int kQueriesEach = 25;
  std::atomic<int> transport_errors{0};
  std::atomic<int> served{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      SocketClient client(socket_path_);
      for (int i = 0; i < kQueriesEach; ++i) {
        QueryRequest request = PairRequest(static_cast<uint64_t>(c) * 100 + i);
        if (i % 3 == 1) {
          request.kind = QueryKind::kSingleSource;
        } else if (i % 3 == 2) {
          request.kind = QueryKind::kTopK;
          request.path = "C-P-A";
          request.source = i % 2;
          request.k = 2;
        }
        const QueryResponse response = client.Execute(request);
        if (response.outcome == ResponseOutcome::kTransportError) {
          ++transport_errors;
        } else if (response.served()) {
          ++served;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(transport_errors.load(), 0);
  EXPECT_EQ(served.load(), kClients * kQueriesEach);
  EXPECT_EQ(server_->stats().requests,
            static_cast<uint64_t>(kClients * kQueriesEach));
}

TEST_F(SocketServerTest, AcceptsBeyondCapacityAreRejectedNotQueued) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(options);
  SocketClient first(socket_path_);
  ASSERT_TRUE(first.Ping());  // occupies the only handler slot
  SocketClient second(socket_path_);
  const QueryResponse refused = second.Execute(PairRequest(5));
  EXPECT_EQ(refused.outcome, ResponseOutcome::kTransportError);
  EXPECT_GE(server_->stats().rejected_capacity, 1u);
  // The occupant keeps working.
  EXPECT_TRUE(first.Execute(PairRequest(6)).served());
}

TEST_F(SocketServerTest, StopWithLiveClientsReturnsAndCutsThem) {
  StartServer();
  SocketClient client(socket_path_);
  ASSERT_TRUE(client.Ping());
  server_->Stop();
  server_->Stop();  // idempotent
  // The cut client sees a transport error, not a hang.
  const QueryResponse response = client.Execute(PairRequest(7));
  EXPECT_EQ(response.outcome, ResponseOutcome::kTransportError);
  // The socket file is gone; fresh connects fail fast.
  SocketClient late(socket_path_);
  EXPECT_EQ(late.Execute(PairRequest(8)).outcome,
            ResponseOutcome::kTransportError);
}

TEST_F(SocketServerTest, StopCancelsTheExecutingQuery) {
  // Stop cancels the query a handler is executing before it joins the
  // handlers: it returns long before the hog would have finished, with
  // the query cancelled rather than served and every reservation back.
  UseHogService();
  StartServer();
  RawConnection client(socket_path_);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendAll(
      EncodeFrame(FrameType::kRequest, EncodeRequest(HogRequest()))));
  AwaitHogExecuting();
  server_->Stop();
  EXPECT_EQ(service_->stats().completed, 1u);
  EXPECT_EQ(service_->stats().served, 0u);
  EXPECT_EQ(service_->MemoryUsedBytes(), 0u);
  // The client is cut without an answer.
  EXPECT_TRUE(client.WaitForClose());
}

TEST_F(SocketServerTest, InjectedFrameCorruptionYieldsErrorNotCrash) {
  if (!FaultInjector::CompiledIn()) {
    GTEST_SKIP() << "built without HETESIM_FAULT_INJECTION";
  }
  StartServer();
  FaultInjector::Global().Reset();
  FaultInjector::Global().Seed(17);
  FaultInjector::Global().Arm("service.frame.corrupt", /*probability=*/1.0,
                              /*max_failures=*/1);
  SocketClient client(socket_path_);
  // A long path dominates the payload, so the injected flip of the middle
  // byte deterministically lands inside the path string — every possible
  // flip there makes the path unparseable, so the verdict is always kError
  // (a flip in, say, an ignored field could accidentally leave a servable
  // request).
  QueryRequest target = PairRequest(10);
  target.path.clear();
  for (int i = 0; i < 60; ++i) target.path += "A-P-";
  target.path += "A";
  const QueryResponse corrupted = client.Execute(target);
  FaultInjector::Global().Reset();
  // The server mangled the payload after a clean read: decode fails, the
  // client gets a well-formed error response on a live connection.
  EXPECT_EQ(corrupted.outcome, ResponseOutcome::kError);
  EXPECT_TRUE(client.Execute(PairRequest(11)).served());
}

TEST_F(SocketServerTest, InjectedMidFlightCancelSurfacesAsCancelled) {
  if (!FaultInjector::CompiledIn()) {
    GTEST_SKIP() << "built without HETESIM_FAULT_INJECTION";
  }
  StartServer();
  FaultInjector::Global().Reset();
  FaultInjector::Global().Seed(29);
  FaultInjector::Global().Arm("service.conn.cancel", /*probability=*/1.0,
                              /*max_failures=*/1);
  SocketClient client(socket_path_);
  const QueryResponse response = client.Execute(PairRequest(12));
  FaultInjector::Global().Reset();
  // The cancel races the worker: either it landed or the query beat it.
  if (!response.served()) {
    EXPECT_EQ(response.outcome, ResponseOutcome::kCancelled);
  }
  EXPECT_TRUE(client.Execute(PairRequest(13)).served());
}

}  // namespace
}  // namespace hetesim::service
