#include "workload/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "common/mutex.h"
#include "common/thread_pool.h"
#include "datagen/acm_generator.h"
#include "datagen/dblp_generator.h"
#include "datagen/io.h"
#include "hin/digest.h"
#include "hin/metapath.h"
#include "service/client.h"
#include "service/protocol.h"
#include "store/store.h"

namespace hetesim::workload {
namespace {

using Clock = QueryContext::Clock;

Result<std::unique_ptr<HinGraph>> BuildGraph(const GraphSpec& spec) {
  switch (spec.kind) {
    case GraphSpec::Kind::kDblp: {
      DblpConfig config;
      config.seed = spec.seed;
      if (spec.papers > 0) config.num_papers = spec.papers;
      if (spec.authors > 0) config.num_authors = spec.authors;
      HETESIM_ASSIGN_OR_RETURN(DblpDataset dataset, GenerateDblp(config));
      return std::make_unique<HinGraph>(std::move(dataset.graph));
    }
    case GraphSpec::Kind::kAcm: {
      AcmConfig config;
      config.seed = spec.seed;
      if (spec.papers > 0) config.num_papers = spec.papers;
      if (spec.authors > 0) config.num_authors = spec.authors;
      HETESIM_ASSIGN_OR_RETURN(AcmDataset dataset, GenerateAcm(config));
      return std::make_unique<HinGraph>(std::move(dataset.graph));
    }
    case GraphSpec::Kind::kFile: {
      HETESIM_ASSIGN_OR_RETURN(HinGraph graph,
                               LoadHinGraphFromFile(spec.path));
      return std::make_unique<HinGraph>(std::move(graph));
    }
  }
  return Status::Internal("unreachable graph kind");
}

QueryOutcome OutcomeFromStatus(const Status& status) {
  if (status.ok()) return QueryOutcome::kOk;
  if (status.IsDeadlineExceeded()) return QueryOutcome::kDeadlineExceeded;
  if (status.IsCancelled()) return QueryOutcome::kCancelled;
  return QueryOutcome::kError;
}

QueryOutcome OutcomeFromResponse(const service::QueryResponse& response) {
  using service::ResponseOutcome;
  switch (response.outcome) {
    case ResponseOutcome::kOk:
      return response.truncated ? QueryOutcome::kTruncated : QueryOutcome::kOk;
    case ResponseOutcome::kDegraded: return QueryOutcome::kDegraded;
    case ResponseOutcome::kRejected: return QueryOutcome::kRejected;
    case ResponseOutcome::kShed: return QueryOutcome::kShed;
    case ResponseOutcome::kDeadlineExceeded:
      return QueryOutcome::kDeadlineExceeded;
    case ResponseOutcome::kCancelled: return QueryOutcome::kCancelled;
    case ResponseOutcome::kError: return QueryOutcome::kError;
    case ResponseOutcome::kTransportError: return QueryOutcome::kError;
  }
  return QueryOutcome::kError;
}

service::QueryKind KindOf(QueryType type) {
  switch (type) {
    case QueryType::kPair: return service::QueryKind::kPair;
    case QueryType::kSingleSource: return service::QueryKind::kSingleSource;
    case QueryType::kTopK: return service::QueryKind::kTopK;
  }
  return service::QueryKind::kPair;
}

/// Reduced-scale runs shrink the warmup proportionally (to a tenth of the
/// override) so a scenario tuned for thousands of queries still records a
/// meaningful sample when CI runs a few hundred.
int64_t EffectiveWarmup(const WorkloadConfig& config, int64_t override_queries) {
  if (override_queries <= 0) return config.warmup_queries;
  return std::min(config.warmup_queries, override_queries / 10);
}

}  // namespace

WorkloadRunner::WorkloadRunner(WorkloadConfig config,
                               std::unique_ptr<HinGraph> graph)
    : config_(std::move(config)), graph_(std::move(graph)) {}

Result<std::unique_ptr<WorkloadRunner>> WorkloadRunner::Create(
    const WorkloadConfig& config) {
  HETESIM_ASSIGN_OR_RETURN(std::unique_ptr<HinGraph> graph,
                           BuildGraph(config.graph));
  // make_unique needs a public constructor; the runner is assembled in
  // place instead.
  std::unique_ptr<WorkloadRunner> runner(
      new WorkloadRunner(config, std::move(graph)));  // hetesim-lint: allow(no-naked-new)

  if (config.cache_enabled) {
    runner->cache_ = std::make_shared<PathMatrixCache>();
    if (config.cache_mb > 0) {
      runner->budget_ =
          std::make_shared<MemoryBudget>(config.cache_mb * 1024 * 1024);
      runner->cache_->SetMemoryBudget(runner->budget_);
    }
  }

  // `store dir=...` — the persistent tier. Attached before searcher
  // preparation so a warm restart serves even the one-time materialization
  // from disk (that is the whole point of the cold_restart benchmark).
  std::shared_ptr<MatrixStore> store;
  if (config.store.enabled) {
    if (!config.cache_enabled) {
      return Status::InvalidArgument(
          "scenario '" + config.name +
          "': 'store' needs the cache ('cache off' conflicts with it)");
    }
    StoreOptions store_options;
    store_options.directory = config.store.dir;
    store_options.graph_digest = GraphDigest(*runner->graph_);
    HETESIM_ASSIGN_OR_RETURN(store_options.codec,
                             StoreCodecFromString(config.store.codec));
    HETESIM_ASSIGN_OR_RETURN(std::unique_ptr<MatrixStore> opened,
                             MatrixStore::Open(store_options));
    store = std::move(opened);
    runner->cache_->AttachStore(store);
  }

  HeteSimOptions options;
  options.num_threads = 1;  // per-query sequential; concurrency = in-flight queries
  runner->engine_ = std::make_unique<HeteSimEngine>(*runner->graph_, options,
                                                    runner->cache_);

  for (const QueryClassSpec& cls : config.classes) {
    Result<MetaPath> path = MetaPath::Parse(runner->graph_->schema(), cls.path_spec);
    if (!path.ok()) {
      return Status::InvalidArgument("class '" + cls.name + "': " +
                                     std::string(path.status().message()));
    }
    ClassRuntime runtime(std::move(*path));
    runtime.domain.num_sources =
        runner->graph_->NumNodes(runtime.path.SourceType());
    runtime.domain.num_targets =
        runner->graph_->NumNodes(runtime.path.TargetType());
    if (cls.type == QueryType::kTopK && !config.service.enabled) {
      // Preparation is one-time serving setup (the paper's materialization
      // step), deliberately outside per-query latency, and a pinned searcher
      // truncates a storm's µs deadlines where the engine's cache reads
      // would fail them. In service mode the engine answers instead.
      HETESIM_ASSIGN_OR_RETURN(
          TopKSearcher searcher,
          TopKSearcher::Prepare(*runner->graph_, runtime.path, options,
                                QueryContext::Background(),
                                runner->cache_.get()));
      runtime.searcher = std::make_unique<TopKSearcher>(std::move(searcher));
    }
    runner->classes_.push_back(std::move(runtime));
  }

  if (config.service.enabled) {
    service::ServiceOptions service_options;
    service_options.admission.workers =
        config.service.workers > 0 ? config.service.workers : config.workers;
    service_options.admission.queue_capacity = config.service.queue_depth;
    service_options.admission.tenant_rate = config.service.tenant_rate;
    service_options.admission.tenant_burst = config.service.tenant_burst;
    service_options.memory_mb = config.service.memory_mb;
    service_options.cache_enabled = config.cache_enabled;
    service_options.store = store;
    service_options.truncate_slice_ms = config.service.truncate_slice_ms;
    service_options.engine.num_threads = 1;  // same convention as direct mode
    runner->service_ =
        service::QueryService::Create(*runner->graph_, service_options);
  }
  return runner;
}

Result<Schedule> WorkloadRunner::BuildRunSchedule(
    int64_t override_queries) const {
  WorkloadConfig config = config_;
  if (override_queries > 0) {
    config.num_queries = override_queries;
    config.warmup_queries = EffectiveWarmup(config_, override_queries);
  }
  std::vector<ClassDomain> domains;
  domains.reserve(classes_.size());
  for (const ClassRuntime& runtime : classes_) domains.push_back(runtime.domain);
  return BuildSchedule(config, domains);
}

QueryObservation WorkloadRunner::ExecuteQuery(
    const QuerySpec& spec, const RunOptions& options,
    service::ServiceClient* client) const {
  (void)options;
  const ClassRuntime& runtime = classes_[static_cast<size_t>(spec.class_id)];
  const QueryClassSpec& cls = config_.classes[static_cast<size_t>(spec.class_id)];

  if (client != nullptr) {
    service::QueryRequest request;
    request.id = static_cast<uint64_t>(spec.index);
    request.kind = KindOf(cls.type);
    request.tenant = static_cast<uint32_t>(spec.tenant);
    request.deadline_ms = spec.deadline_ms;
    request.path = cls.path_spec;
    request.source = spec.source;
    request.target = spec.target;
    request.k = spec.k;

    const Clock::time_point issue = Clock::now();
    const service::QueryResponse response = client->Execute(request);
    QueryObservation observation;
    observation.outcome = OutcomeFromResponse(response);
    observation.latency_seconds =
        std::chrono::duration<double>(Clock::now() - issue).count();
    observation.deadline_missed =
        spec.deadline_ms > 0 &&
        (observation.latency_seconds * 1e3 > spec.deadline_ms ||
         observation.outcome == QueryOutcome::kTruncated ||
         observation.outcome == QueryOutcome::kDeadlineExceeded ||
         observation.outcome == QueryOutcome::kCancelled);
    return observation;
  }

  const Clock::time_point issue = Clock::now();
  QueryContext ctx;
  if (spec.deadline_ms > 0) {
    ctx = ctx.WithDeadline(
        issue + std::chrono::microseconds(
                    static_cast<int64_t>(spec.deadline_ms * 1e3)));
  }
  if (budget_ != nullptr) ctx = ctx.WithBudget(budget_.get());

  QueryObservation observation;
  switch (cls.type) {
    case QueryType::kPair: {
      Result<std::vector<double>> scores = engine_->ComputePairs(
          runtime.path, {{spec.source, spec.target}}, ctx);
      observation.outcome = OutcomeFromStatus(scores.status());
      break;
    }
    case QueryType::kSingleSource: {
      Result<std::vector<double>> row =
          engine_->ComputeSingleSource(runtime.path, spec.source, ctx);
      observation.outcome = OutcomeFromStatus(row.status());
      break;
    }
    case QueryType::kTopK: {
      Result<TopKResult> result =
          runtime.searcher->Query(spec.source, spec.k, ctx);
      if (result.ok()) {
        observation.topk = std::move(*result);
        observation.outcome = observation.topk->truncated
                                  ? QueryOutcome::kTruncated
                                  : QueryOutcome::kOk;
      } else {
        observation.outcome = OutcomeFromStatus(result.status());
      }
      break;
    }
  }

  const double latency =
      std::chrono::duration<double>(Clock::now() - issue).count();
  observation.latency_seconds = latency;
  observation.deadline_missed =
      spec.deadline_ms > 0 &&
      (latency * 1e3 > spec.deadline_ms ||
       observation.outcome == QueryOutcome::kTruncated ||
       observation.outcome == QueryOutcome::kDeadlineExceeded ||
       observation.outcome == QueryOutcome::kCancelled);
  return observation;
}

std::unique_ptr<service::ServiceClient> WorkloadRunner::MakeClient(
    const RunOptions& options, int worker_id) const {
  std::unique_ptr<service::ServiceClient> base;
  if (!options.service_socket.empty()) {
    base = std::make_unique<service::SocketClient>(options.service_socket);
  } else if (service_ != nullptr) {
    base = std::make_unique<service::InProcessClient>(service_.get());
  } else {
    return nullptr;  // direct engine path
  }
  if (config_.service.retries <= 0) return base;
  service::RetryOptions retry_options;
  retry_options.max_attempts = config_.service.retries + 1;
  // Distinct deterministic jitter stream per worker.
  retry_options.seed =
      config_.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(worker_id) + 1;
  return std::make_unique<service::RetryingClient>(std::move(base),
                                                   retry_options);
}

Result<ScenarioReport> WorkloadRunner::Run(const RunOptions& options) {
  HETESIM_ASSIGN_OR_RETURN(Schedule schedule,
                           BuildRunSchedule(options.override_queries));
  const int64_t num_queries = static_cast<int64_t>(schedule.specs.size());
  const int64_t warmup = EffectiveWarmup(config_, options.override_queries);
  const int workers =
      options.override_workers > 0 ? options.override_workers : config_.workers;

  std::vector<std::string> class_names;
  class_names.reserve(config_.classes.size());
  for (const QueryClassSpec& cls : config_.classes) class_names.push_back(cls.name);
  LatencyRecorder recorder(class_names, config_.tenants);

  const bool open_loop = config_.arrival == ArrivalMode::kOpenLoop;
  const bool pace = options.realtime;
  const bool service_mode =
      service_ != nullptr || !options.service_socket.empty();
  std::atomic<int64_t> next{0};
  std::atomic<int> worker_seq{0};
  std::atomic<uint64_t> total_retries{0};

  Mutex done_mutex;
  CondVar done_cv;
  int workers_done = 0;  // guarded by done_mutex

  const Clock::time_point run_start = Clock::now();
  auto worker_loop = [&]() {
    // Connection-per-worker, like a real deployment; null in direct mode.
    const std::unique_ptr<service::ServiceClient> client =
        MakeClient(options, worker_seq.fetch_add(1, std::memory_order_relaxed));
    for (;;) {
      const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_queries) break;
      const QuerySpec& spec = schedule.specs[static_cast<size_t>(i)];
      Clock::time_point latency_base = Clock::now();
      if (open_loop && pace) {
        const Clock::time_point arrival =
            run_start + std::chrono::microseconds(spec.arrival_us);
        std::this_thread::sleep_until(arrival);
        // Open-loop latency counts from the *scheduled* arrival, so queueing
        // delay behind slow queries shows up in the tail — the whole point
        // of an open-loop driver.
        latency_base = arrival;
      }
      QueryObservation observation = ExecuteQuery(spec, options, client.get());
      if (open_loop && pace) {
        observation.latency_seconds =
            std::chrono::duration<double>(Clock::now() - latency_base).count();
        observation.deadline_missed =
            observation.deadline_missed ||
            (spec.deadline_ms > 0 &&
             observation.latency_seconds * 1e3 > spec.deadline_ms);
      }
      if (spec.index >= warmup) {
        recorder.Record(spec.class_id, spec.tenant, observation.latency_seconds,
                        observation.outcome, observation.deadline_missed);
      }
      if (options.observer) options.observer(spec, observation);
      if (!open_loop && pace && spec.think_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(spec.think_us));
      }
    }
    if (const auto* retrying =
            dynamic_cast<const service::RetryingClient*>(client.get())) {
      total_retries.fetch_add(retrying->retries_attempted(),
                              std::memory_order_relaxed);
    }
    MutexLock lock(done_mutex);
    ++workers_done;
    done_cv.NotifyAll();
  };

  {
    // Dedicated pool: the global pool stays free for engine internals, and
    // worker loops may block (think time, open-loop pacing) without
    // starving library parallel regions.
    ThreadPool pool(workers);
    for (int w = 0; w < workers; ++w) pool.Submit(worker_loop);
    MutexLock lock(done_mutex);
    while (workers_done < workers) done_cv.Wait(done_mutex);
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - run_start).count();

  ScenarioReport report;
  report.name = config_.name;
  report.seed = config_.seed;
  report.arrival = open_loop ? "open" : "closed";
  report.workers = workers;
  report.tenants = config_.tenants;
  report.warmup_queries = warmup;
  report.wall_seconds = wall;
  report.schedule_digest = schedule.digest;
  for (size_t c = 0; c < classes_.size(); ++c) {
    report.classes.push_back(recorder.ClassReport(static_cast<int>(c), wall));
    ClassStats& cls = report.classes.back();
    cls.deadline_ms = config_.classes[c].deadline.mean_ms;
    report.total_queries += cls.queries;
    report.goodput_qps += cls.goodput_qps;
  }
  report.tenants_stats = recorder.TenantReport();
  if (wall > 0) {
    report.throughput_qps = static_cast<double>(report.total_queries) / wall;
  }
  if (service_mode) {
    report.service_enabled = true;
    report.service_mode = options.service_socket.empty() ? "inproc" : "socket";
    report.service_retries = total_retries.load(std::memory_order_relaxed);
    // Per-outcome totals come from the recorder (post-warmup, like every
    // other report number), not the service's own counters (which include
    // warmup and, over a socket, aren't visible here anyway).
    for (const ClassStats& cls : report.classes) {
      report.service_rejected += static_cast<uint64_t>(cls.rejected);
      report.service_shed += static_cast<uint64_t>(cls.shed);
      report.service_degraded += static_cast<uint64_t>(cls.degraded);
    }
    if (service_ != nullptr) {
      report.service_flops_per_second = service_->stats().flops_per_second;
    }
  }
  if (cache_ != nullptr && budget_ != nullptr) {
    const PathMatrixCache::Stats stats = cache_->stats();
    report.cache_peak_bytes = stats.peak_accounted_bytes;
    report.cache_limit_bytes = budget_->limit_bytes();
    report.cache_evictions = stats.evictions;
  }
  if (cache_ != nullptr && cache_->store() != nullptr) {
    // Graceful-shutdown persistence: write the resident working set out so
    // the next run against this directory restarts warm even if nothing
    // was ever evicted. Best effort — a full disk must not fail the run.
    HETESIM_IGNORE_STATUS(cache_->FlushToStore());
    const PathMatrixCache::Stats stats = cache_->stats();
    report.store_enabled = true;
    report.store_hits = stats.store_hits;
    report.store_misses = stats.store_misses;
    report.store_demotions = stats.store_demotions;
  }
  return report;
}

}  // namespace hetesim::workload
