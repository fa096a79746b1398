#ifndef HETESIM_SERVICE_SERVER_H_
#define HETESIM_SERVICE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/annotations.h"
#include "common/context.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "service/protocol.h"
#include "service/service.h"

namespace hetesim::service {

struct ServerOptions {
  /// Filesystem path of the Unix domain socket. A stale file from a
  /// previous run is unlinked on bind.
  std::string socket_path;
  /// Connections served concurrently; an accept beyond this is closed
  /// immediately (the client sees a transport error and backs off).
  int max_connections = 32;
  /// Slow-client guard: a peer that keeps a frame read or write blocked
  /// longer than this is disconnected — one stalled client must never pin
  /// a connection handler forever.
  int io_timeout_ms = 5000;
};

/// \brief Unix-socket front end for a `QueryService`.
///
/// One handler per connection (bounded by `max_connections`), running on
/// an owned `ThreadPool`; the protocol is lockstep request/response
/// (service/protocol.h). A handler runs each decoded request through
/// `QueryService::Execute` itself. While it is inside `Execute`, the accept
/// loop watches its socket: a client that disconnects mid-query cancels the
/// request's token, so abandoned work stops holding an execution slot.
///
/// Fault points (compiled out unless HETESIM_FAULT_INJECTION):
///   service.frame.corrupt — flips a payload byte after read, exercising
///                           the decode-reject path against a live peer
///   service.conn.cancel   — cancels a request's token as it enters the
///                           service, as a vanished client would
class SocketServer {
 public:
  /// Binds, listens, and starts accepting. `service` must outlive the
  /// server.
  [[nodiscard]] static Result<std::unique_ptr<SocketServer>> Start(
      QueryService* service, const ServerOptions& options);

  /// Stops accepting, cancels every executing query, disconnects all
  /// clients, joins the handler pool, and removes the socket file.
  /// Idempotent; also run by the destructor.
  void Stop();
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  const std::string& socket_path() const { return options_.socket_path; }

  struct Stats {
    uint64_t accepted = 0;
    uint64_t rejected_capacity = 0;
    uint64_t closed_stall = 0;
    uint64_t closed_protocol = 0;
    uint64_t disconnect_cancels = 0;  ///< queries cancelled by a hang-up
    uint64_t requests = 0;
  };
  Stats stats() const;

 private:
  SocketServer(QueryService* service, const ServerOptions& options);

  /// Accepts connections and cancels the executing request of every
  /// connection whose peer hung up.
  void AcceptLoop();
  void HandleConnection(int fd);
  /// One request/response exchange; false = close the connection.
  bool ServeOne(int fd);

  /// Exact-length frame IO within `io_timeout_ms` (service/protocol.h);
  /// false on timeout, EOF, error or a stopping server.
  bool Receive(int fd, uint8_t* buffer, size_t bytes);
  bool Send(int fd, const std::string& frame);
  /// Counts a stalled peer; true when the transfer completed.
  bool Completed(IoResult result);

  /// Registers (`add`) or removes connection `fd`.
  void TrackConnection(int fd, bool add) EXCLUDES(mutex_);
  /// Records the token of the request `fd`'s handler executes (null: none).
  void TrackExecution(int fd, const CancelToken* cancel) EXCLUDES(mutex_);

  QueryService* const service_;
  const ServerOptions options_;
  const std::chrono::milliseconds io_timeout_;

  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<int> active_connections_{0};

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_capacity_{0};
  std::atomic<uint64_t> closed_stall_{0};
  std::atomic<uint64_t> closed_protocol_{0};
  std::atomic<uint64_t> disconnect_cancels_{0};
  std::atomic<uint64_t> requests_{0};

  mutable Mutex mutex_;
  /// Every open connection, with the token of the request its handler runs
  /// inside `Execute`, if any: the accept loop polls those for a hang-up,
  /// and `Stop` cancels them and shuts every connection down.
  std::unordered_map<int, std::optional<CancelToken>> connections_
      GUARDED_BY(mutex_);
  bool stopped_ GUARDED_BY(mutex_) = false;

  /// Declared last so their destructors join before members vanish.
  std::unique_ptr<ThreadPool> handler_pool_;
  std::unique_ptr<ThreadPool> accept_pool_;
};

}  // namespace hetesim::service

#endif  // HETESIM_SERVICE_SERVER_H_
