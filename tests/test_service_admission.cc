// Stress-tier property test for the service's resource accounting
// (DESIGN.md §13): every admitted query releases exactly its MemoryBudget
// reservation and its admission queue charge on EVERY exit path — success,
// degradation, deadline, cancellation, shed, shutdown, and fault-injected
// allocation failure. The invariant checked once each batch's callers have
// returned is simply `MemoryUsedBytes() == 0` (the cache is off, so
// per-query working sets are the only budget customers) plus conservation
// of completions.
// Runs under ASan/TSan in CI; with HETESIM_FAULT_INJECTION compiled in it
// additionally drives the `service.admit.alloc` chaos site.

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "hin/graph.h"
#include "service/protocol.h"
#include "service/service.h"
#include "test_util.h"

namespace hetesim::service {
namespace {

using hetesim::testing::BuildFig4Graph;

ServiceOptions SmallServiceOptions() {
  ServiceOptions options;
  options.admission.workers = 2;
  options.admission.queue_capacity = 8;  // small: overload paths fire
  options.memory_mb = 4;
  options.cache_enabled = false;  // cache entries would legitimately persist
  return options;
}

/// One batch of queries exercising every exit path at once, from more
/// callers than the queue holds. Returns the number executed; every call
/// has returned when it does.
size_t DriveMixedBatch(QueryService& service, int rounds) {
  constexpr int kCallers = 12;
  const char* kPaths[] = {"A-P-A", "C-P-A", "A-P-C"};
  std::vector<std::thread> callers;

  for (int worker = 0; worker < kCallers; ++worker) {
    callers.emplace_back([&, worker] {
      for (int i = 0; i < rounds; ++i) {
        QueryRequest request;
        request.id = static_cast<uint64_t>(worker) * 1000 + i;
        request.tenant = static_cast<uint32_t>(worker);
        const int variant = (worker + i) % 6;
        request.path = kPaths[i % 3];
        switch (variant) {
          case 0:  // plain pair
            request.kind = QueryKind::kPair;
            request.source = i % 3;
            request.target = (i + 1) % 3;
            break;
          case 1:  // single-source row
            request.kind = QueryKind::kSingleSource;
            request.path = "A-P-A";
            request.source = i % 3;
            break;
          case 2:  // top-k (reads or fills the path's cached halves)
            request.kind = QueryKind::kTopK;
            request.path = "C-P-A";
            request.source = i % 2;
            request.k = 2;
            break;
          case 3:  // hopeless deadline: rejected before compute
            request.kind = QueryKind::kPair;
            request.source = 0;
            request.target = 1;
            request.deadline_ms = 1e-6;
            break;
          case 4:  // malformed path: error response, nothing charged
            request.kind = QueryKind::kPair;
            request.path = "A-Z-Q";
            break;
          default:  // cancelled before or during the call
            request.kind = QueryKind::kSingleSource;
            request.path = "A-P-A";
            request.source = i % 3;
            break;
        }
        const CancelToken cancel;
        std::thread canceller;
        if (variant == 5 && i % 2 == 0) cancel.Cancel();
        if (variant == 5 && i % 2 == 1) {
          canceller = std::thread([cancel] { cancel.Cancel(); });
        }
        (void)service.Execute(request, cancel);
        if (canceller.joinable()) canceller.join();
      }
    });
  }
  for (std::thread& t : callers) t.join();
  return static_cast<size_t>(kCallers) * static_cast<size_t>(rounds);
}

TEST(ServiceMemoryProperty, EveryExitPathReleasesItsReservation) {
  const HinGraph graph = BuildFig4Graph();
  auto service = QueryService::Create(graph, SmallServiceOptions());
  uint64_t total = 0;
  for (int batch = 0; batch < 5; ++batch) {
    total += DriveMixedBatch(*service, /*rounds=*/40);
    // The invariant: after a full drain, not one byte stays reserved, no
    // matter which mix of success/reject/shed/cancel/error the batch hit.
    EXPECT_EQ(service->MemoryUsedBytes(), 0u) << "batch " << batch;
  }
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.completed, total);
  // Sanity: the batch really exercised both served and refused paths.
  EXPECT_GT(stats.served, 0u);
  EXPECT_GT(stats.admission.rejected() + stats.admission.shed(), 0u);
  EXPECT_GT(stats.memory_peak_bytes, 0u);  // reservations actually happened
}

TEST(ServiceMemoryProperty, ShutdownMidFlightReleasesEverything) {
  const HinGraph graph = BuildFig4Graph();
  for (int round = 0; round < 3; ++round) {
    auto service = QueryService::Create(graph, SmallServiceOptions());
    std::vector<std::thread> callers;
    for (int caller = 0; caller < 8; ++caller) {
      callers.emplace_back([&service, caller] {
        for (int i = 0; i < 8; ++i) {
          QueryRequest request;
          request.id = static_cast<uint64_t>(caller * 8 + i);
          request.kind = i % 2 == 0 ? QueryKind::kPair : QueryKind::kSingleSource;
          request.path = "A-P-A";
          request.source = i % 3;
          request.target = (i + 1) % 3;
          (void)service->Execute(request);
        }
      });
    }
    // Shut down while some of the calls are still waiting or running.
    while (service->stats().completed < 20) std::this_thread::yield();
    service->Shutdown();
    for (std::thread& t : callers) t.join();
    EXPECT_EQ(service->MemoryUsedBytes(), 0u) << "round " << round;
    EXPECT_EQ(service->stats().completed, 64u);
  }
}

TEST(ServiceMemoryProperty, InjectedAllocFailuresStillBalanceTheBudget) {
  if (!FaultInjector::CompiledIn()) {
    GTEST_SKIP() << "built without HETESIM_FAULT_INJECTION";
  }
  const HinGraph graph = BuildFig4Graph();
  for (uint64_t seed : {1u, 7u, 23u}) {
    auto service = QueryService::Create(graph, SmallServiceOptions());
    FaultInjector::Global().Reset();
    FaultInjector::Global().Seed(seed);
    FaultInjector::Global().Arm("service.admit.alloc", /*probability=*/0.4);
    const size_t total = DriveMixedBatch(*service, /*rounds=*/30);
    FaultInjector::Global().Reset();
    EXPECT_EQ(service->MemoryUsedBytes(), 0u) << "seed " << seed;
    EXPECT_EQ(service->stats().completed, total);
  }
}

}  // namespace
}  // namespace hetesim::service
