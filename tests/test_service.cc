// Service suite: the framed wire protocol, the admission pipeline, and the
// in-process QueryService end to end (DESIGN.md §13).
//
// Claims proven here:
//  * the codec round-trips every request/response field, and decoding is
//    total — any byte-level corruption yields InvalidArgument, never a
//    crash or an over-allocation;
//  * the admission controller implements the documented decision order
//    (queue bound, deadline feasibility, tenant quota, memory pressure,
//    degradation ladder) — driven entirely on a fake clock;
//  * an in-process service returns the same scores as calling the engine
//    directly, and every refusal is a well-formed response, not an error
//    path.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/context.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "core/hetesim.h"
#include "core/topk.h"
#include "datagen/dblp_generator.h"
#include "hin/metapath.h"
#include "service/admission.h"
#include "service/protocol.h"
#include "service/service.h"
#include "test_util.h"

namespace hetesim::service {
namespace {

using hetesim::testing::BuildFig4Graph;

// ---------------------------------------------------------------------------
// Protocol

QueryRequest SampleRequest() {
  QueryRequest request;
  request.id = 0xdeadbeefcafeULL;
  request.kind = QueryKind::kTopK;
  request.tenant = 7;
  request.deadline_ms = 123.5;
  request.path = "C-P-A";
  request.source = 42;
  request.target = -1;
  request.k = 10;
  return request;
}

QueryResponse SampleResponse() {
  QueryResponse response;
  response.id = 0xdeadbeefcafeULL;
  response.outcome = ResponseOutcome::kDegraded;
  response.degradation = DegradationLevel::kTruncatedTopK;
  response.status_code = StatusCode::kOk;
  response.message = "partial";
  response.retry_after_ms = 12.25;
  response.truncated = true;
  response.items = {{3, 0.75}, {1, 0.5}};
  response.scores = {0.1, 0.2, 0.3};
  response.queue_ms = 1.5;
  response.exec_ms = 2.5;
  return response;
}

TEST(Protocol, RequestRoundTrip) {
  const QueryRequest request = SampleRequest();
  Result<QueryRequest> decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, request.id);
  EXPECT_EQ(decoded->kind, request.kind);
  EXPECT_EQ(decoded->tenant, request.tenant);
  EXPECT_DOUBLE_EQ(decoded->deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded->path, request.path);
  EXPECT_EQ(decoded->source, request.source);
  EXPECT_EQ(decoded->target, request.target);
  EXPECT_EQ(decoded->k, request.k);
}

TEST(Protocol, ResponseRoundTrip) {
  const QueryResponse response = SampleResponse();
  Result<QueryResponse> decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, response.id);
  EXPECT_EQ(decoded->outcome, response.outcome);
  EXPECT_EQ(decoded->degradation, response.degradation);
  EXPECT_EQ(decoded->status_code, response.status_code);
  EXPECT_EQ(decoded->message, response.message);
  EXPECT_DOUBLE_EQ(decoded->retry_after_ms, response.retry_after_ms);
  EXPECT_TRUE(decoded->truncated);
  ASSERT_EQ(decoded->items.size(), response.items.size());
  for (size_t i = 0; i < response.items.size(); ++i) {
    EXPECT_EQ(decoded->items[i].id, response.items[i].id);
    EXPECT_DOUBLE_EQ(decoded->items[i].score, response.items[i].score);
  }
  EXPECT_EQ(decoded->scores, response.scores);
  EXPECT_DOUBLE_EQ(decoded->queue_ms, response.queue_ms);
  EXPECT_DOUBLE_EQ(decoded->exec_ms, response.exec_ms);
}

TEST(Protocol, FrameHeaderRoundTrip) {
  const std::string frame = EncodeFrame(FrameType::kRequest, "hello");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 5);
  Result<FrameHeader> header =
      DecodeFrameHeader(reinterpret_cast<const uint8_t*>(frame.data()));
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->type, FrameType::kRequest);
  EXPECT_EQ(header->payload_bytes, 5u);
}

TEST(Protocol, HeaderRejectsCorruption) {
  const std::string good = EncodeFrame(FrameType::kPing, "");
  auto decode = [](std::string bytes) {
    return DecodeFrameHeader(reinterpret_cast<const uint8_t*>(bytes.data()));
  };
  {
    std::string bad = good;
    bad[0] ^= 0xff;  // magic
    EXPECT_FALSE(decode(bad).ok());
  }
  {
    std::string bad = good;
    bad[4] = 99;  // unknown frame type
    EXPECT_FALSE(decode(bad).ok());
  }
  {
    std::string bad = good;
    bad[5] = 1;  // reserved byte must be zero
    EXPECT_FALSE(decode(bad).ok());
  }
  {
    std::string bad = good;
    // Length far beyond kMaxFramePayload.
    bad[8] = bad[9] = bad[10] = bad[11] = static_cast<char>(0xff);
    EXPECT_FALSE(decode(bad).ok());
  }
}

TEST(Protocol, DecodeRejectsTruncationAndTrailingBytes) {
  const std::string payload = EncodeRequest(SampleRequest());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(DecodeRequest(payload.substr(0, cut)).ok())
        << "truncation at " << cut << " decoded";
  }
  EXPECT_FALSE(DecodeRequest(payload + "x").ok());

  const std::string response_payload = EncodeResponse(SampleResponse());
  for (size_t cut = 0; cut < response_payload.size(); ++cut) {
    EXPECT_FALSE(DecodeResponse(response_payload.substr(0, cut)).ok());
  }
  EXPECT_FALSE(DecodeResponse(response_payload + "x").ok());
}

// Every single-byte corruption must decode cleanly or fail cleanly; a
// malicious length/count field must never reach an allocation. (The real
// fuzzing runs under ASan in CI; this is the deterministic core.)
TEST(Protocol, SingleByteCorruptionNeverCrashes) {
  const std::string request_payload = EncodeRequest(SampleRequest());
  for (size_t i = 0; i < request_payload.size(); ++i) {
    for (uint8_t delta : {0x01, 0x80, 0xff}) {
      std::string bad = request_payload;
      bad[i] = static_cast<char>(bad[i] ^ delta);
      (void)DecodeRequest(bad);  // must not crash or over-allocate
    }
  }
  const std::string response_payload = EncodeResponse(SampleResponse());
  for (size_t i = 0; i < response_payload.size(); ++i) {
    for (uint8_t delta : {0x01, 0x80, 0xff}) {
      std::string bad = response_payload;
      bad[i] = static_cast<char>(bad[i] ^ delta);
      (void)DecodeResponse(bad);
    }
  }
}

// ---------------------------------------------------------------------------
// Token bucket (fake clock throughout)

TEST(TokenBucketTest, StartsFullThenRefillsAtRate) {
  const Clock::time_point t0 = Clock::now();
  TokenBucket bucket(/*rate=*/10.0, /*burst=*/5.0);
  EXPECT_TRUE(bucket.TryTake(5.0, t0));   // starts at burst
  EXPECT_FALSE(bucket.TryTake(0.1, t0));  // drained, no time passed
  const Clock::time_point t1 = t0 + std::chrono::milliseconds(100);
  EXPECT_TRUE(bucket.TryTake(1.0, t1));  // 0.1 s * 10/s = 1 token
  EXPECT_FALSE(bucket.TryTake(0.5, t1));
  // Refill saturates at burst, not beyond.
  const Clock::time_point t2 = t1 + std::chrono::seconds(60);
  EXPECT_TRUE(bucket.TryTake(5.0, t2));
  EXPECT_FALSE(bucket.TryTake(0.1, t2));
}

TEST(TokenBucketTest, SecondsUntilIsTheRefillTime) {
  const Clock::time_point t0 = Clock::now();
  TokenBucket bucket(/*rate=*/2.0, /*burst=*/1.0);
  EXPECT_DOUBLE_EQ(bucket.SecondsUntil(1.0, t0), 0.0);
  EXPECT_TRUE(bucket.TryTake(1.0, t0));
  EXPECT_NEAR(bucket.SecondsUntil(1.0, t0), 0.5, 1e-9);
}

// ---------------------------------------------------------------------------
// Admission controller (fake clock throughout)

AdmissionOptions BaseOptions() {
  AdmissionOptions options;
  options.workers = 2;
  options.queue_capacity = 20;
  options.flops_per_second = 2e8;
  return options;
}

TEST(Admission, AdmitsAtIdleAtFullLevel) {
  AdmissionController controller(BaseOptions(), nullptr);
  const AdmissionDecision decision =
      controller.Admit(0, 1e3, /*deadline=*/0, Clock::now());
  EXPECT_TRUE(decision.admitted);
  EXPECT_EQ(decision.level, DegradationLevel::kFull);
  EXPECT_EQ(controller.queue_depth(), 1);
  controller.Finish(1e3, 0);
  EXPECT_EQ(controller.queue_depth(), 0);
}

TEST(Admission, QueueFullIsAStructuralReject) {
  AdmissionOptions options = BaseOptions();
  options.queue_capacity = 2;
  AdmissionController controller(options, nullptr);
  const Clock::time_point now = Clock::now();
  EXPECT_TRUE(controller.Admit(0, 1e3, 0, now).admitted);
  EXPECT_TRUE(controller.Admit(0, 1e3, 0, now).admitted);
  const AdmissionDecision refused = controller.Admit(0, 1e3, 0, now);
  EXPECT_FALSE(refused.admitted);
  EXPECT_EQ(refused.reject_outcome, ResponseOutcome::kRejected);
  EXPECT_STREQ(refused.reason, "queue full");
  EXPECT_GT(refused.retry_after_ms, 0);
  EXPECT_EQ(controller.stats().rejected_queue_full, 1u);
  // Finishing one admitted query reopens the queue.
  controller.Finish(1e3, 0);
  EXPECT_TRUE(controller.Admit(0, 1e3, 0, now).admitted);
}

TEST(Admission, InfeasibleDeadlineRejectsBeforeCompute) {
  AdmissionController controller(BaseOptions(), nullptr);
  // Cost alone: 2e8 flops at 2e8 flops/s = 1 s >> a 10 ms budget.
  const AdmissionDecision refused =
      controller.Admit(0, 2e8, /*deadline=*/10.0, Clock::now());
  EXPECT_FALSE(refused.admitted);
  EXPECT_EQ(refused.reject_outcome, ResponseOutcome::kRejected);
  EXPECT_STREQ(refused.reason, "deadline infeasible");
  EXPECT_EQ(controller.stats().rejected_deadline, 1u);
  // The same query with a feasible budget is admitted.
  EXPECT_TRUE(controller.Admit(0, 2e8, /*deadline=*/5000.0, Clock::now()).admitted);
}

TEST(Admission, QueuedWorkCountsAgainstTheDeadline) {
  AdmissionController controller(BaseOptions(), nullptr);
  const Clock::time_point now = Clock::now();
  // Stack up ~1 s of queued work per worker (2 workers, 4e8 flops).
  EXPECT_TRUE(controller.Admit(0, 4e8, 0, now).admitted);
  // A cheap query could finish instantly — but not behind that queue.
  const AdmissionDecision refused = controller.Admit(0, 1e3, 100.0, now);
  EXPECT_FALSE(refused.admitted);
  EXPECT_STREQ(refused.reason, "deadline infeasible");
  EXPECT_GT(refused.estimated_wait_ms, 100.0);
}

TEST(Admission, TenantQuotaIsPerTenantAndWeighted) {
  AdmissionOptions options = BaseOptions();
  options.queue_capacity = 100;
  options.tenant_rate = 1.0;   // 1 cost-second per second
  options.tenant_burst = 1.0;  // bucket starts with 1 cost-second
  options.tenant_weights = {1.0, 2.0};
  AdmissionController controller(options, nullptr);
  const Clock::time_point now = Clock::now();
  // 2e8 flops at 2e8 flops/s = 1 cost-second: drains tenant 0's bucket.
  EXPECT_TRUE(controller.Admit(0, 2e8, 0, now).admitted);
  const AdmissionDecision refused = controller.Admit(0, 2e8, 0, now);
  EXPECT_FALSE(refused.admitted);
  EXPECT_EQ(refused.reject_outcome, ResponseOutcome::kRejected);
  EXPECT_STREQ(refused.reason, "tenant quota");
  EXPECT_GT(refused.retry_after_ms, 0);
  // Tenant 1 has its own bucket — and at weight 2, twice the burst.
  EXPECT_TRUE(controller.Admit(1, 2e8, 0, now).admitted);
  EXPECT_TRUE(controller.Admit(1, 2e8, 0, now).admitted);
  EXPECT_FALSE(controller.Admit(1, 2e8, 0, now).admitted);
  // The bucket refills with (fake) time.
  const Clock::time_point later = now + std::chrono::seconds(2);
  EXPECT_TRUE(controller.Admit(0, 2e8, 0, later).admitted);
  EXPECT_EQ(controller.stats().rejected_quota, 2u);
}

TEST(Admission, MemoryPressureShedsAboveTheHardFraction) {
  MemoryBudget budget(1000);
  ASSERT_TRUE(budget.TryReserve(960));  // 96% used, hard threshold is 95%
  AdmissionController controller(BaseOptions(), &budget);
  const AdmissionDecision refused = controller.Admit(0, 1e3, 0, Clock::now());
  EXPECT_FALSE(refused.admitted);
  EXPECT_EQ(refused.reject_outcome, ResponseOutcome::kShed);
  EXPECT_STREQ(refused.reason, "memory pressure");
  EXPECT_EQ(controller.stats().shed_memory, 1u);
  budget.Release(960);
  EXPECT_TRUE(controller.Admit(0, 1e3, 0, Clock::now()).admitted);
}

TEST(Admission, DegradationLadderFollowsQueueLoad) {
  // Capacity 20: load thresholds land at depth 10 (uncached), 15
  // (truncated), 19 (shed). Every admission is charged but never finished,
  // so depth ratchets up one per admitted call.
  AdmissionController controller(BaseOptions(), nullptr);
  std::vector<DegradationLevel> levels;
  int shed_at = -1;
  for (int i = 0; i < 20; ++i) {
    const AdmissionDecision decision = controller.Admit(0, 1e3, 0, Clock::now());
    if (!decision.admitted) {
      EXPECT_EQ(decision.reject_outcome, ResponseOutcome::kShed);
      EXPECT_STREQ(decision.reason, "overload");
      shed_at = i;
      break;
    }
    levels.push_back(decision.level);
  }
  ASSERT_EQ(shed_at, 19);  // load 19/20 = 0.95 sheds
  EXPECT_EQ(levels[0], DegradationLevel::kFull);
  EXPECT_EQ(levels[9], DegradationLevel::kFull);  // load 9/20 < 0.5
  EXPECT_EQ(levels[10], DegradationLevel::kUncached);
  EXPECT_EQ(levels[14], DegradationLevel::kUncached);
  EXPECT_EQ(levels[15], DegradationLevel::kTruncatedTopK);
  EXPECT_EQ(levels[18], DegradationLevel::kTruncatedTopK);
  const AdmissionStats stats = controller.stats();
  EXPECT_EQ(stats.admitted, 19u);
  EXPECT_EQ(stats.admitted_degraded, 9u);  // depths 10..18
  EXPECT_EQ(stats.shed_load, 1u);
}

TEST(Admission, FinishCalibratesThroughputTowardMeasured) {
  AdmissionController controller(BaseOptions(), nullptr);
  EXPECT_DOUBLE_EQ(controller.flops_per_second(), 2e8);
  ASSERT_TRUE(controller.Admit(0, 1e8, 0, Clock::now()).admitted);
  // Measured: 1e8 flops in 1 s = 1e8 flops/s; EWMA alpha 0.2.
  controller.Finish(1e8, 1.0);
  EXPECT_NEAR(controller.flops_per_second(), 0.8 * 2e8 + 0.2 * 1e8, 1.0);
  // Absurd samples are clamped, not adopted.
  ASSERT_TRUE(controller.Admit(0, 1e3, 0, Clock::now()).admitted);
  controller.Finish(1e3, 1e-12);
  EXPECT_LE(controller.flops_per_second(), 1e12);
}

// ---------------------------------------------------------------------------
// QueryService end to end (in-process)

class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest() : graph_(BuildFig4Graph()) {
    ServiceOptions options;
    options.admission.workers = 2;
    service_ = QueryService::Create(graph_, options);
  }

  static QueryRequest Pair(const std::string& path, int64_t source,
                           int64_t target) {
    QueryRequest request;
    request.kind = QueryKind::kPair;
    request.path = path;
    request.source = source;
    request.target = target;
    return request;
  }

  HinGraph graph_;
  std::unique_ptr<QueryService> service_;
};

TEST_F(QueryServiceTest, PairMatchesDirectEngine) {
  const QueryResponse response = service_->Execute(Pair("A-P-A", 0, 1));
  ASSERT_TRUE(response.served()) << response.message;
  EXPECT_EQ(response.outcome, ResponseOutcome::kOk);
  ASSERT_EQ(response.scores.size(), 1u);

  HeteSimEngine engine(graph_, HeteSimOptions{}, nullptr);
  Result<MetaPath> path = MetaPath::Parse(graph_.schema(), "A-P-A");
  ASSERT_TRUE(path.ok());
  Result<std::vector<double>> direct =
      engine.ComputePairs(*path, {{0, 1}}, QueryContext::Background());
  ASSERT_TRUE(direct.ok());
  EXPECT_NEAR(response.scores[0], (*direct)[0], 1e-12);
}

TEST_F(QueryServiceTest, SingleSourceMatchesDirectEngine) {
  QueryRequest request;
  request.kind = QueryKind::kSingleSource;
  request.path = "A-P-A";
  request.source = 0;
  const QueryResponse response = service_->Execute(request);
  ASSERT_TRUE(response.served()) << response.message;

  HeteSimEngine engine(graph_, HeteSimOptions{}, nullptr);
  Result<MetaPath> path = MetaPath::Parse(graph_.schema(), "A-P-A");
  ASSERT_TRUE(path.ok());
  Result<std::vector<double>> direct = engine.ComputeSingleSource(*path, 0);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(response.scores.size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_NEAR(response.scores[i], (*direct)[i], 1e-12) << "target " << i;
  }
}

TEST_F(QueryServiceTest, InjectedSpgemmFaultFailsSingleSourceCleanly) {
  // Chaos case: a cold single-source request whose half products hit an
  // injected allocation failure answers ResourceExhausted instead of taking
  // the server down, and the next request after the fault stops is served.
  if (!FaultInjector::CompiledIn()) {
    GTEST_SKIP() << "built without HETESIM_FAULT_INJECTION";
  }
  QueryRequest request;
  request.kind = QueryKind::kSingleSource;
  request.path = "A-P-C-P-A";
  request.source = 0;
  FaultInjector::Global().Reset();
  FaultInjector::Global().Arm("spgemm.alloc", 1.0);
  const QueryResponse faulted = service_->Execute(request);
  FaultInjector::Global().Reset();
  EXPECT_FALSE(faulted.served());
  EXPECT_EQ(faulted.status_code, StatusCode::kResourceExhausted) << faulted.message;

  const QueryResponse recovered = service_->Execute(request);
  ASSERT_TRUE(recovered.served()) << recovered.message;
  HeteSimEngine engine(graph_, HeteSimOptions{}, nullptr);
  Result<MetaPath> path = MetaPath::Parse(graph_.schema(), request.path);
  ASSERT_TRUE(path.ok());
  Result<std::vector<double>> direct = engine.ComputeSingleSource(*path, 0);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(recovered.scores.size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_NEAR(recovered.scores[i], (*direct)[i], 1e-12) << "target " << i;
  }
}

TEST_F(QueryServiceTest, InjectedSpgemmFaultFailsOnlyItsOwnTopK) {
  // Chaos case: the first top-k on a path computes its halves, and an
  // injected allocation failure in a half product answers that query
  // ResourceExhausted instead of taking the server down. The failure is not
  // latched on the path: the next top-k computes the halves again and is
  // served.
  if (!FaultInjector::CompiledIn()) {
    GTEST_SKIP() << "built without HETESIM_FAULT_INJECTION";
  }
  QueryRequest request;
  request.kind = QueryKind::kTopK;
  request.path = "A-P-C-P-A";
  request.source = 0;
  request.k = 3;
  FaultInjector::Global().Reset();
  FaultInjector::Global().Arm("spgemm.alloc", 1.0, /*max_failures=*/1);
  const QueryResponse faulted = service_->Execute(request);
  EXPECT_GE(FaultInjector::Global().StatsFor("spgemm.alloc").failures, 1u);
  FaultInjector::Global().Reset();
  EXPECT_FALSE(faulted.served());
  EXPECT_EQ(faulted.status_code, StatusCode::kResourceExhausted) << faulted.message;

  const QueryResponse recovered = service_->Execute(request);
  ASSERT_TRUE(recovered.served()) << recovered.message;
  EXPECT_FALSE(recovered.truncated);
  Result<MetaPath> path = MetaPath::Parse(graph_.schema(), request.path);
  ASSERT_TRUE(path.ok());
  Result<TopKSearcher> searcher = TopKSearcher::Prepare(graph_, *path);
  ASSERT_TRUE(searcher.ok());
  Result<TopKResult> direct = searcher->Query(0, 3);
  ASSERT_TRUE(direct.ok());
  ASSERT_FALSE(direct->items.empty());
  ASSERT_EQ(recovered.items.size(), direct->items.size());
  for (size_t i = 0; i < direct->items.size(); ++i) {
    EXPECT_EQ(recovered.items[i].id, direct->items[i].id);
    EXPECT_NEAR(recovered.items[i].score, direct->items[i].score, 1e-12);
  }
}

TEST_F(QueryServiceTest, TopKMatchesDirectSearcher) {
  QueryRequest request;
  request.kind = QueryKind::kTopK;
  request.path = "C-P-A";
  request.source = 0;  // KDD
  request.k = 3;
  const QueryResponse response = service_->Execute(request);
  ASSERT_TRUE(response.served()) << response.message;
  EXPECT_FALSE(response.truncated);

  Result<MetaPath> path = MetaPath::Parse(graph_.schema(), "C-P-A");
  ASSERT_TRUE(path.ok());
  Result<TopKSearcher> searcher = TopKSearcher::Prepare(
      graph_, *path, HeteSimOptions{}, QueryContext::Background());
  ASSERT_TRUE(searcher.ok());
  Result<TopKResult> direct =
      searcher->Query(0, 3, QueryContext::Background());
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(response.items.size(), direct->items.size());
  for (size_t i = 0; i < direct->items.size(); ++i) {
    EXPECT_EQ(response.items[i].id, direct->items[i].id);
    EXPECT_NEAR(response.items[i].score, direct->items[i].score, 1e-12);
  }
}

TEST_F(QueryServiceTest, TopKChargesAtMostEveryTarget) {
  // The wire accepts any k up to INT_MAX, but a response never holds more
  // items than there are targets. A budgeted service must charge such a
  // request like k = num_targets instead of shedding it as oversized.
  ServiceOptions options;
  options.admission.workers = 2;
  options.memory_mb = 64;
  std::unique_ptr<QueryService> budgeted = QueryService::Create(graph_, options);
  Result<MetaPath> path = MetaPath::Parse(graph_.schema(), "C-P-A");
  ASSERT_TRUE(path.ok());
  QueryRequest request;
  request.kind = QueryKind::kTopK;
  request.path = "C-P-A";
  request.source = 0;
  request.k = static_cast<int32_t>(graph_.NumNodes(path->TargetType()));
  const QueryResponse every_target = budgeted->Execute(request);
  request.k = std::numeric_limits<int32_t>::max();
  const QueryResponse huge_k = budgeted->Execute(request);
  ASSERT_TRUE(every_target.served()) << every_target.message;
  ASSERT_TRUE(huge_k.served()) << huge_k.message;
  ASSERT_FALSE(every_target.items.empty());
  ASSERT_EQ(huge_k.items.size(), every_target.items.size());
  for (size_t i = 0; i < every_target.items.size(); ++i) {
    EXPECT_EQ(huge_k.items[i].id, every_target.items[i].id);
    EXPECT_EQ(huge_k.items[i].score, every_target.items[i].score);
  }
}

TEST(QueryServiceMemory, ChargesAScoreRowOnce) {
  // A 1 MiB service over 60,000 targets: a dense score row (480,000 B) fits
  // once beside the cache, and a top-k's row plus its touched list (960,000
  // B) fits alone. The admission reservation must not hold a second copy of
  // the row while the query reserves its own.
  const HinGraph graph = testing::RandomTripartite(50, 200, 60000, 0.0005, 5);
  ServiceOptions options;
  options.admission.workers = 1;
  options.memory_mb = 1;
  std::unique_ptr<QueryService> service = QueryService::Create(graph, options);
  QueryRequest topk;
  topk.kind = QueryKind::kTopK;
  topk.path = "ABC";
  topk.source = 0;
  topk.k = 10;
  const QueryResponse ranked = service->Execute(topk);
  ASSERT_TRUE(ranked.served()) << ranked.message;
  QueryRequest single;
  single.kind = QueryKind::kSingleSource;
  single.path = "ABC";
  single.source = 0;
  const QueryResponse row = service->Execute(single);
  ASSERT_TRUE(row.served()) << row.message;
  ASSERT_EQ(row.scores.size(), 60000u);

  const MetaPath path = *MetaPath::Parse(graph.schema(), "ABC");
  const TopKResult direct = TopKSearcher::Prepare(graph, path).value().Query(0, 10).value();
  ASSERT_FALSE(direct.items.empty());
  ASSERT_EQ(ranked.items.size(), direct.items.size());
  for (size_t i = 0; i < direct.items.size(); ++i) {
    EXPECT_EQ(ranked.items[i].id, direct.items[i].id);
    EXPECT_NEAR(ranked.items[i].score, direct.items[i].score, 1e-12);
    EXPECT_NEAR(row.scores[static_cast<size_t>(direct.items[i].id)],
                direct.items[i].score, 1e-12);
  }
}

TEST(QueryServiceMemory, TopKReadsTheCacheAfterEviction) {
  // A 1 MiB service. A top-k on A-B-A caches the path's one half (A-B,
  // about 35% of the budget) and that half's index (about as much); a
  // single-source query on C-B-C then caches a half of about 72%, which
  // fits beside neither, so admitting it evicts both. The next top-k on
  // A-B-A finds them gone and computes them again (two cache misses)
  // instead of answering from state held outside the budget, and still
  // ranks like a direct searcher. Between requests the cache stays below
  // the soft memory-pressure threshold, so no request is shed or degraded.
  const HinGraph graph = testing::RandomTripartite(4200, 100, 8600, 0.05, 5);
  ServiceOptions options;
  options.admission.workers = 1;
  options.memory_mb = 1;
  std::unique_ptr<QueryService> service = QueryService::Create(graph, options);
  const size_t soft_bytes = static_cast<size_t>(
      options.admission.memory_soft_fraction * static_cast<double>(1 << 20));
  QueryRequest topk;
  topk.kind = QueryKind::kTopK;
  topk.path = "ABA";
  topk.source = 0;
  topk.k = 10;
  QueryRequest single;
  single.kind = QueryKind::kSingleSource;
  single.path = "CBC";
  single.source = 0;
  const Counter& misses =
      MetricsRegistry::Global().GetCounter("hetesim_cache_misses_total");

  const QueryResponse first = service->Execute(topk);
  ASSERT_EQ(first.outcome, ResponseOutcome::kOk) << first.message;
  ASSERT_LT(service->MemoryUsedBytes(), soft_bytes);
  const QueryResponse row = service->Execute(single);
  ASSERT_EQ(row.outcome, ResponseOutcome::kOk) << row.message;
  ASSERT_LT(service->MemoryUsedBytes(), soft_bytes);
  const uint64_t misses_before = misses.value();
  const QueryResponse again = service->Execute(topk);
  ASSERT_EQ(again.outcome, ResponseOutcome::kOk) << again.message;
  EXPECT_EQ(misses.value() - misses_before, 2u)
      << "the evicted half and index were not looked up again";

  const MetaPath path = *MetaPath::Parse(graph.schema(), "ABA");
  const TopKResult direct = TopKSearcher::Prepare(graph, path).value().Query(0, 10).value();
  ASSERT_FALSE(direct.items.empty());
  EXPECT_EQ(first.items, direct.items);
  EXPECT_EQ(again.items, direct.items);
}

TEST(QueryServiceMemory, FullCacheKeepsServing) {
  // A 1 MiB service walks every path of up to four steps over A, C and T
  // once per query kind. The cache fills its share of the budget and evicts
  // to admit each new half, but it never takes the room that admission and
  // the queries' working sets need: no request is shed for memory pressure
  // and an A-P-A pair is still served at the end. Queries whose own working
  // set exceeds the budget may fail; they do not wedge the service.
  DblpConfig config;
  config.num_papers = 2500;
  config.num_authors = 1000;
  config.seed = 11;
  const DblpDataset dataset = GenerateDblp(config).value();
  ServiceOptions options;
  options.admission.workers = 1;
  options.memory_mb = 1;
  std::unique_ptr<QueryService> service =
      QueryService::Create(dataset.graph, options);

  const std::vector<std::string> ends = {"A", "C", "T"};
  std::vector<std::string> paths;
  for (const std::string& x : ends) {
    for (const std::string& y : ends) paths.push_back(x + "-P-" + y);
  }
  for (const std::string& x : ends) {
    for (const std::string& z : ends) {
      for (const std::string& y : ends) paths.push_back(x + "-P-" + z + "-P-" + y);
    }
  }
  int served = 0;
  for (const QueryKind kind : {QueryKind::kTopK, QueryKind::kSingleSource}) {
    for (const std::string& path : paths) {
      QueryRequest request;
      request.kind = kind;
      request.path = path;
      request.source = 1;
      request.k = 10;
      const QueryResponse response = service->Execute(request);
      EXPECT_EQ(response.message.find("memory pressure"), std::string::npos)
          << path << ": " << response.message;
      if (response.served()) ++served;
    }
  }
  EXPECT_GT(served, 36);
  QueryRequest pair;
  pair.kind = QueryKind::kPair;
  pair.path = "A-P-A";
  pair.source = 1;
  pair.target = 2;
  const QueryResponse response = service->Execute(pair);
  EXPECT_TRUE(response.served()) << response.message;
}

TEST_F(QueryServiceTest, MalformedPathIsAWellFormedErrorResponse) {
  // Unknown node type: the schema lookup fails before anything is charged.
  const QueryResponse response = service_->Execute(Pair("A-Z-Q", 0, 1));
  EXPECT_FALSE(response.served());
  EXPECT_EQ(response.outcome, ResponseOutcome::kError);
  EXPECT_NE(response.status_code, StatusCode::kOk);
  EXPECT_FALSE(response.message.empty());
}

TEST_F(QueryServiceTest, TopKNeedsPositiveK) {
  QueryRequest request;
  request.kind = QueryKind::kTopK;
  request.path = "C-P-A";
  request.source = 0;
  request.k = 0;
  const QueryResponse response = service_->Execute(request);
  EXPECT_EQ(response.outcome, ResponseOutcome::kError);
  EXPECT_EQ(response.status_code, StatusCode::kInvalidArgument);
}

TEST_F(QueryServiceTest, HopelessDeadlineIsRejectedBeforeCompute) {
  QueryRequest request = Pair("A-P-A", 0, 1);
  request.deadline_ms = 1e-6;
  const QueryResponse response = service_->Execute(request);
  EXPECT_FALSE(response.served());
  EXPECT_EQ(response.outcome, ResponseOutcome::kRejected);
  EXPECT_EQ(response.status_code, StatusCode::kResourceExhausted);
  EXPECT_EQ(response.message, "deadline infeasible");
}

TEST_F(QueryServiceTest, ShutdownShedsNewQueriesAndIsIdempotent) {
  service_->Shutdown();
  service_->Shutdown();
  const QueryResponse response = service_->Execute(Pair("A-P-A", 0, 1));
  EXPECT_FALSE(response.served());
  EXPECT_EQ(response.outcome, ResponseOutcome::kShed);
  EXPECT_EQ(response.status_code, StatusCode::kFailedPrecondition);
  EXPECT_EQ(response.message, "service shutting down");
}

TEST_F(QueryServiceTest, CancelledSubmissionCompletesEitherWay) {
  // A token cancelled before the call stops the query before it runs.
  const CancelToken before;
  before.Cancel();
  const QueryResponse refused = service_->Execute(Pair("A-P-A", 0, 1), before);
  EXPECT_EQ(refused.outcome, ResponseOutcome::kCancelled);
  EXPECT_EQ(refused.status_code, StatusCode::kCancelled);

  // One cancelled from another thread races the call: either it landed
  // (kCancelled) or the query finished first — both must leave a
  // completed, well-formed state.
  const CancelToken during;
  std::thread canceller([during] { during.Cancel(); });
  const QueryResponse response = service_->Execute(Pair("A-P-A", 0, 1), during);
  canceller.join();
  if (response.outcome == ResponseOutcome::kCancelled) {
    EXPECT_EQ(response.status_code, StatusCode::kCancelled);
  } else {
    EXPECT_TRUE(response.served());
  }
  EXPECT_EQ(service_->stats().completed, 2u);
}

TEST_F(QueryServiceTest, StatsCountCompletionsAndRefusals) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service_->Execute(Pair("A-P-A", 0, 1)).served());
  }
  (void)service_->Execute(Pair("A-Z-Q", 0, 1));  // error, still completed
  const ServiceStats stats = service_->stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.served, 5u);
  EXPECT_EQ(stats.admission.admitted, 5u);
  EXPECT_GT(stats.flops_per_second, 0);
}

// ---------------------------------------------------------------------------
// One dispatcher: a query runs on its caller's thread, at most
// `admission.workers` at once, and waiting for a slot is the queue.

class QueryServiceDispatch : public ::testing::Test {
 protected:
  QueryServiceDispatch() : graph_(testing::RandomTripartite(300, 300, 20, 0.2, 5)) {}

  std::unique_ptr<QueryService> CreateService(int workers, int queue_capacity) {
    ServiceOptions options;
    options.admission.workers = workers;
    options.admission.queue_capacity = queue_capacity;
    // Admit any deadline: these tests expire them in the slot wait.
    options.admission.deadline_headroom = 0;
    options.memory_mb = 64;
    options.cache_enabled = false;  // cache entries would legitimately persist
    return QueryService::Create(graph_, options);
  }

  /// A single-source query along a path of `hops` A-B-A round trips. Its
  /// right half multiplies a chain of `hops` dense 300 x 300 transitions.
  static QueryRequest Walk(int hops) {
    QueryRequest request;
    request.kind = QueryKind::kSingleSource;
    request.path = "A";
    for (int i = 0; i < hops; ++i) request.path += "-B-A";
    request.source = 0;
    return request;
  }

  /// Runs a query that holds its slot for seconds, far longer than any
  /// test needs, until `cancel` stops it. Returns once the query runs: its
  /// chain products are then charged to the budget.
  std::thread StartHog(QueryService& service, const CancelToken& cancel,
                       QueryResponse* response) {
    std::thread hog([&service, cancel, response] {
      *response = service.Execute(Walk(200), cancel);
    });
    while (service.MemoryUsedBytes() < (256u << 10) &&
           service.stats().completed == 0) {
      std::this_thread::yield();
    }
    return hog;
  }

  /// Waits until `admitted` requests passed admission.
  static void AwaitAdmitted(const QueryService& service, uint64_t admitted) {
    while (service.stats().admission.admitted < admitted) {
      std::this_thread::yield();
    }
  }

  HinGraph graph_;
};

TEST_F(QueryServiceDispatch, WaitingForASlotIsTheQueue) {
  std::unique_ptr<QueryService> service = CreateService(/*workers=*/1, 64);
  const CancelToken hog_cancel;
  QueryResponse hog_response;
  std::thread hog = StartHog(*service, hog_cancel, &hog_response);
  // Two callers arrive while the hog holds the only slot; whichever runs
  // second waited at least as long as the first one ran.
  QueryResponse responses[2];
  std::vector<std::thread> callers;
  for (QueryResponse& response : responses) {
    callers.emplace_back(
        [&service, &response] { response = service->Execute(Walk(8)); });
  }
  AwaitAdmitted(*service, 3);
  hog_cancel.Cancel();
  hog.join();
  for (std::thread& t : callers) t.join();

  EXPECT_EQ(hog_response.outcome, ResponseOutcome::kCancelled) << hog_response.message;
  ASSERT_TRUE(responses[0].served()) << responses[0].message;
  ASSERT_TRUE(responses[1].served()) << responses[1].message;
  const bool first_ran_first = responses[0].queue_ms <= responses[1].queue_ms;
  const QueryResponse& first = first_ran_first ? responses[0] : responses[1];
  const QueryResponse& second = first_ran_first ? responses[1] : responses[0];
  EXPECT_GT(first.exec_ms, 0.0);
  EXPECT_GE(second.queue_ms, first.exec_ms);
  EXPECT_EQ(service->MemoryUsedBytes(), 0u);
}

TEST_F(QueryServiceDispatch, QueueBoundCountsWaitingCallers) {
  // The bound counts admitted queries that have not finished, running or
  // waiting: with the hog running and one caller waiting, a third caller
  // finds a queue of two and is turned away.
  std::unique_ptr<QueryService> service = CreateService(/*workers=*/1, 2);
  const CancelToken hog_cancel;
  QueryResponse hog_response;
  std::thread hog = StartHog(*service, hog_cancel, &hog_response);
  QueryResponse waiting;
  std::thread waiter([&service, &waiting] { waiting = service->Execute(Walk(1)); });
  AwaitAdmitted(*service, 2);
  const QueryResponse third = service->Execute(Walk(1));
  hog_cancel.Cancel();
  hog.join();
  waiter.join();

  EXPECT_EQ(third.outcome, ResponseOutcome::kRejected);
  EXPECT_EQ(third.message, "queue full");
  EXPECT_TRUE(waiting.served()) << waiting.message;
  EXPECT_EQ(service->stats().admission.rejected_queue_full, 1u);
  EXPECT_EQ(service->MemoryUsedBytes(), 0u);
}

TEST_F(QueryServiceDispatch, DeadlinePassingInTheSlotWaitReleasesEverything) {
  std::unique_ptr<QueryService> service = CreateService(/*workers=*/1, 64);
  const CancelToken hog_cancel;
  QueryResponse hog_response;
  std::thread hog = StartHog(*service, hog_cancel, &hog_response);
  QueryRequest request = Walk(1);
  request.deadline_ms = 30;
  const QueryResponse expired = service->Execute(request);
  hog_cancel.Cancel();
  hog.join();

  EXPECT_EQ(expired.outcome, ResponseOutcome::kDeadlineExceeded) << expired.message;
  EXPECT_EQ(expired.status_code, StatusCode::kDeadlineExceeded);
  EXPECT_GE(expired.queue_ms, 30.0);
  EXPECT_EQ(expired.exec_ms, 0.0);
  EXPECT_EQ(service->MemoryUsedBytes(), 0u);
}

TEST_F(QueryServiceDispatch, ShutdownReturnsEveryWaitingCaller) {
  std::unique_ptr<QueryService> service = CreateService(/*workers=*/1, 64);
  QueryResponse hog_response;
  std::thread hog = StartHog(*service, CancelToken(), &hog_response);
  constexpr int kWaiting = 4;
  QueryResponse responses[kWaiting];
  std::vector<std::thread> callers;
  for (QueryResponse& response : responses) {
    callers.emplace_back(
        [&service, &response] { response = service->Execute(Walk(1)); });
  }
  AwaitAdmitted(*service, 1 + kWaiting);
  // Shutdown cancels the running hog and wakes every waiting caller.
  service->Shutdown();
  hog.join();
  for (std::thread& t : callers) t.join();

  EXPECT_EQ(hog_response.outcome, ResponseOutcome::kCancelled) << hog_response.message;
  for (const QueryResponse& response : responses) {
    EXPECT_EQ(response.outcome, ResponseOutcome::kCancelled) << response.message;
  }
  EXPECT_EQ(service->stats().completed, 1u + kWaiting);
  EXPECT_EQ(service->MemoryUsedBytes(), 0u);
}

}  // namespace
}  // namespace hetesim::service
