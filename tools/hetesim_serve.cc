// hetesim_serve — the resident HeteSim query server (DESIGN.md §13).
//
// Usage:
//   hetesim_serve --graph FILE --socket PATH
//       [--workers N]            queries executing at once (2)
//       [--queue-depth N]        admission queue capacity (64)
//       [--memory-mb N]          service memory budget, 0 = unlimited (0)
//       [--no-cache]             disable the shared path-matrix cache: the
//                                server keeps no query state, and every
//                                query, top-k included, computes its halves
//       [--store-dir DIR]        persistent tier under the cache: misses
//                                read from it, evictions demote into it,
//                                so restarts are warm (DESIGN.md §16)
//       [--store-codec NAME]     demotion encoding: lossless | quantized
//       [--tenant-rate X]        per-tenant quota, cost-seconds/second (0 = off)
//       [--tenant-burst X]       per-tenant burst allowance, cost-seconds (1.0)
//       [--truncate-slice-ms X]  degraded top-k deadline slice (10)
//       [--io-timeout-ms N]      slow-client stall guard (5000)
//       [--max-connections N]    concurrent connections (32)
//       [--metrics-out FILE]     write a Prometheus-text metrics snapshot
//                                on shutdown
//
// Prints "listening on PATH" once ready (CI waits for this line), then
// serves until SIGTERM/SIGINT, on which it stops accepting, cancels
// in-flight queries, drains, and exits 0. Usage errors exit 2; runtime
// failures exit 1.
//
// Graph files use the text format of datagen/io.h.

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cli_args.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "datagen/io.h"
#include "hin/digest.h"
#include "hin/graph.h"
#include "service/server.h"
#include "service/service.h"
#include "store/store.h"

namespace hetesim {
namespace {

using cli::Args;
using service::QueryService;
using service::ServerOptions;
using service::ServiceOptions;
using service::SocketServer;

// Self-pipe: the signal handler writes one byte; the main thread blocks on
// the read end. Keeps the handler async-signal-safe (no locks, no IO).
int g_signal_pipe[2] = {-1, -1};

extern "C" void HandleShutdownSignal(int /*signo*/) {
  const char byte = 1;
  // A full pipe just means a signal is already pending; dropping is fine.
  [[maybe_unused]] ssize_t n = write(g_signal_pipe[1], &byte, 1);
}

Result<ServiceOptions> ServiceOptionsFromArgs(const Args& args) {
  ServiceOptions options;
  HETESIM_ASSIGN_OR_RETURN(options.admission.workers,
                           args.GetInt("workers", 2, 1, 256));
  HETESIM_ASSIGN_OR_RETURN(options.admission.queue_capacity,
                           args.GetInt("queue-depth", 64, 1, 1 << 20));
  HETESIM_ASSIGN_OR_RETURN(options.admission.tenant_rate,
                           args.GetDouble("tenant-rate", 0.0, 0.0, 1e9));
  HETESIM_ASSIGN_OR_RETURN(options.admission.tenant_burst,
                           args.GetDouble("tenant-burst", 1.0, 0.0, 1e9));
  HETESIM_ASSIGN_OR_RETURN(int64_t memory_mb,
                           args.GetInt64("memory-mb", 0, 0, 1 << 20));
  options.memory_mb = static_cast<size_t>(memory_mb);
  options.cache_enabled = !args.Has("no-cache");
  HETESIM_ASSIGN_OR_RETURN(options.truncate_slice_ms,
                           args.GetDouble("truncate-slice-ms", 10.0, 0.0, 1e6));
  return options;
}

Result<ServerOptions> ServerOptionsFromArgs(const Args& args) {
  ServerOptions options;
  auto socket_path = args.Get("socket");
  if (!socket_path) {
    return Status::InvalidArgument("--socket PATH is required");
  }
  options.socket_path = *socket_path;
  HETESIM_ASSIGN_OR_RETURN(options.io_timeout_ms,
                           args.GetInt("io-timeout-ms", 5000, 1, 3600000));
  HETESIM_ASSIGN_OR_RETURN(options.max_connections,
                           args.GetInt("max-connections", 32, 1, 4096));
  return options;
}

[[nodiscard]] Status RunServer(const Args& args) {
  auto graph_path = args.Get("graph");
  if (!graph_path) return Status::InvalidArgument("--graph FILE is required");
  HETESIM_ASSIGN_OR_RETURN(ServiceOptions service_options,
                           ServiceOptionsFromArgs(args));
  HETESIM_ASSIGN_OR_RETURN(ServerOptions server_options,
                           ServerOptionsFromArgs(args));
  HETESIM_ASSIGN_OR_RETURN(HinGraph graph, LoadHinGraphFromFile(*graph_path));
  if (auto store_dir = args.Get("store-dir")) {
    if (store_dir->empty()) {
      return Status::InvalidArgument("--store-dir needs a path");
    }
    StoreOptions store_options;
    store_options.directory = *store_dir;
    store_options.graph_digest = GraphDigest(graph);
    HETESIM_ASSIGN_OR_RETURN(
        const std::string codec_word,
        args.GetChoice("store-codec", "lossless", {"lossless", "quantized"}));
    HETESIM_ASSIGN_OR_RETURN(store_options.codec,
                             StoreCodecFromString(codec_word));
    HETESIM_ASSIGN_OR_RETURN(std::unique_ptr<MatrixStore> store,
                             MatrixStore::Open(store_options));
    service_options.store = std::move(store);
  }

  if (pipe(g_signal_pipe) != 0) {
    return Status::IOError(std::string("pipe(): ") + strerror(errno));
  }
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_handler = HandleShutdownSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  // A client vanishing mid-write must not kill the process.
  signal(SIGPIPE, SIG_IGN);

  std::unique_ptr<QueryService> query_service =
      QueryService::Create(graph, service_options);
  HETESIM_ASSIGN_OR_RETURN(
      std::unique_ptr<SocketServer> server,
      SocketServer::Start(query_service.get(), server_options));

  printf("listening on %s\n", server_options.socket_path.c_str());
  fflush(stdout);

  // Block until a shutdown signal arrives.
  char byte = 0;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }

  printf("shutting down\n");
  fflush(stdout);
  server->Stop();
  query_service->Shutdown();

  if (auto metrics_out = args.Get("metrics-out")) {
    std::ofstream out(*metrics_out);
    if (out) out << MetricsRegistry::Global().RenderPrometheus();
  }
  const service::ServiceStats stats = query_service->stats();
  printf("served=%llu rejected=%llu shed=%llu degraded=%llu\n",
         static_cast<unsigned long long>(stats.served),
         static_cast<unsigned long long>(stats.admission.rejected()),
         static_cast<unsigned long long>(stats.admission.shed()),
         static_cast<unsigned long long>(stats.degraded));
  return Status::OK();
}

int Main(int argc, char** argv) {
  // The binary has exactly one job, so there is no command word on the
  // real command line; Args::Parse expects one, so inject "serve".
  std::vector<const char*> argv_with_command;
  argv_with_command.push_back(argc > 0 ? argv[0] : "hetesim_serve");
  argv_with_command.push_back("serve");
  for (int i = 1; i < argc; ++i) argv_with_command.push_back(argv[i]);
  Result<Args> args = Args::Parse(static_cast<int>(argv_with_command.size()),
                                  argv_with_command.data());
  if (!args.ok()) {
    fprintf(stderr, "error: %s\n", std::string(args.status().message()).c_str());
    return 2;
  }
  const Status status = RunServer(*args);
  if (!status.ok()) {
    fprintf(stderr, "error: %s\n", std::string(status.message()).c_str());
    return status.IsInvalidArgument() ? 2 : 1;
  }
  return 0;
}

}  // namespace
}  // namespace hetesim

int main(int argc, char** argv) { return hetesim::Main(argc, argv); }
