// `perfbench_tool replay`: the traced run. Replays a workload's requests
// in-process against the same graph with default options and records a
// span (name, start, end, parent, request id) around every call this file
// makes into a module's public function. Spans stay in memory until the
// replay ends; a layer's self time is its span minus the spans nested in
// it. The calls inside a module stay opaque here, so each ledger row is
// named after the outermost call the benchmark makes into that layer.
//
// Phases:
//   probe   for each of the workload's paths, time DecomposePath, the two
//           reachable halves (with cost-model flops and output nnz), the
//           transpose of the right half, and a write and a read of both
//           halves through a MatrixStore.
//   ledger  the workload's own request sequence, mirroring what the system
//           does per request: the CLI's load-free part of one invocation
//           (cli_oneshot), or the ad-hoc walk with its cache fills
//           (serve_adhoc). serve_hot's ledger is the kernels phase, since
//           its timed requests never touch a cold path.
//   kernels the workload's requests against warm state — the core query
//           kernels between the codec calls a socket round trip makes —
//           once untraced and once traced, twice each, for the overhead.
//   service (cli_oneshot only) the same requests through an in-process
//           QueryService, so the service layer has figures on the workload
//           that bypasses it.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/context.h"
#include "common/metrics.h"
#include "core/hetesim.h"
#include "core/materialize.h"
#include "core/path_matrix.h"
#include "core/topk.h"
#include "datagen/io.h"
#include "hin/digest.h"
#include "hin/metapath.h"
#include "matrix/cost_model.h"
#include "service/protocol.h"
#include "service/service.h"
#include "store/store.h"
#include "tool/common.h"
#include "tool/tool.h"

namespace perfbench {
namespace {

namespace hs = hetesim;
namespace svc = hetesim::service;

struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  int parent;
  int64_t request;
};

/// In-memory span recorder. Disabled tracers record nothing, so the same
/// replay code runs traced and untraced.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  int Begin(const char* name, int64_t request) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, Clock::now(), {}, current_, request});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void End(int index) {
    if (index < 0) return;
    spans_[index].end = Clock::now();
    current_ = spans_[index].parent;
  }
  void Rename(int index, const char* name) {
    if (index >= 0) spans_[index].name = name;
  }

  /// Sum of self time per span name over every span whose outermost
  /// ancestor is a "request" span, divided by the number of such roots.
  std::map<std::string, double> SelfMsPerRequest(int64_t* requests) const {
    std::vector<double> self(spans_.size(), 0.0);
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] += MsBetween(spans_[i].start, spans_[i].end);
      if (spans_[i].parent >= 0) self[spans_[i].parent] -= MsBetween(spans_[i].start, spans_[i].end);
    }
    std::map<std::string, double> totals;
    *requests = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (std::string(spans_[i].name) == "request") {
        ++*requests;
        continue;  // the request span's own self time is the benchmark's loop
      }
      int root = static_cast<int>(i);
      while (spans_[root].parent >= 0) root = spans_[root].parent;
      if (std::string(spans_[root].name) == "request") totals[spans_[i].name] += self[i];
    }
    if (*requests > 0) {
      for (auto& [name, ms] : totals) ms /= static_cast<double>(*requests);
    }
    return totals;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int current_ = -1;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int64_t request = -1)
      : tracer_(tracer), index_(tracer.Begin(name, request)), start_(Clock::now()) {}
  ~Scope() { tracer_.End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  double ElapsedMs() const { return MsBetween(start_, Clock::now()); }
  void Rename(const char* name) { tracer_.Rename(index_, name); }

 private:
  Tracer& tracer_;
  int index_;
  Clock::time_point start_;
};

uint64_t CounterValue(const char* name) {
  return hs::MetricsRegistry::Global().GetCounter(name).value();
}

double ChainFlops(const std::vector<hs::SparseMatrix>& chain) {
  if (chain.empty()) return 0.0;
  hs::MatrixEstimate acc = hs::EstimateOf(chain[0]);
  double flops = 0.0;
  for (size_t i = 1; i < chain.size(); ++i) {
    const hs::MatrixEstimate next = hs::EstimateOf(chain[i]);
    flops += hs::EstimateProductFlops(acc, next);
    acc = hs::EstimateProduct(acc, next);
  }
  return flops;
}

svc::QueryRequest WireRequest(const Request& r) {
  svc::QueryRequest request;
  request.id = (static_cast<uint64_t>(r.conn) << 40) | static_cast<uint64_t>(r.seq);
  request.kind = r.kind == Kind::kPair     ? svc::QueryKind::kPair
                 : r.kind == Kind::kSingle ? svc::QueryKind::kSingleSource
                                           : svc::QueryKind::kTopK;
  request.path = r.path;
  request.source = r.source;
  request.target = r.kind == Kind::kPair ? r.target : 0;
  request.k = r.kind == Kind::kTopK ? r.k : 0;
  return request;
}

/// The frames one socket round trip encodes and decodes, request side.
void RequestCodec(const svc::QueryRequest& request) {
  const std::string frame =
      svc::EncodeFrame(svc::FrameType::kRequest, svc::EncodeRequest(request));
  hs::Result<svc::QueryRequest> decoded =
      svc::DecodeRequest(std::string_view(frame).substr(svc::kFrameHeaderBytes));
  if (!decoded.ok()) std::fprintf(stderr, "replay: request codec failed\n");
}

/// Response side of the round trip.
void ResponseCodec(const svc::QueryResponse& response) {
  const std::string frame =
      svc::EncodeFrame(svc::FrameType::kResponse, svc::EncodeResponse(response));
  hs::Result<svc::QueryResponse> decoded =
      svc::DecodeResponse(std::string_view(frame).substr(svc::kFrameHeaderBytes));
  if (!decoded.ok()) std::fprintf(stderr, "replay: response codec failed\n");
}

/// Warm query state shared by the kernels phase: one cache-backed engine,
/// plus a prepared searcher per top-k path.
struct WarmState {
  explicit WarmState(const hs::HinGraph& graph)
      : cache(std::make_shared<hs::PathMatrixCache>()), engine(graph, {}, cache) {}

  std::shared_ptr<hs::PathMatrixCache> cache;
  hs::HeteSimEngine engine;
  std::map<std::string, std::unique_ptr<hs::TopKSearcher>> searchers;
  std::map<std::string, hs::MetaPath> paths;
};

/// Runs one request's kernel against warm state, between the codec calls
/// of a socket round trip, under a "request" span of its own unless the
/// caller already opened one. Returns false when the kernel failed.
bool RunKernel(Tracer& tracer, WarmState& state, const Request& r, bool own_request_span,
               std::map<Kind, std::vector<double>>* kernel_us,
               std::vector<double>* candidates) {
  Tracer inert(false);
  Scope request_span(own_request_span ? tracer : inert, "request", r.seq);
  const svc::QueryRequest request = WireRequest(r);
  {
    Scope codec(tracer, "service.codec");
    RequestCodec(request);
  }
  const hs::MetaPath& path = state.paths.at(r.path);
  svc::QueryResponse response;
  response.id = request.id;
  response.outcome = svc::ResponseOutcome::kOk;
  bool ok = true;
  const Clock::time_point start = Clock::now();
  if (r.kind == Kind::kTopK) {
    Scope span(tracer, "core.topk");
    hs::Result<hs::TopKResult> result = state.searchers.at(r.path)->Query(r.source, r.k);
    ok = result.ok();
    if (ok) {
      if (candidates != nullptr) {
        candidates->push_back(static_cast<double>(result->candidates_examined));
      }
      response.items = std::move(result->items);
    }
  } else if (r.kind == Kind::kPair) {
    Scope span(tracer, "core.pair");
    hs::Result<std::vector<double>> scores =
        state.engine.ComputePairs(path, {{r.source, r.target}});
    ok = scores.ok();
    if (ok) response.scores = std::move(*scores);
  } else {
    Scope span(tracer, "core.single");
    hs::Result<std::vector<double>> scores = state.engine.ComputeSingleSource(path, r.source);
    ok = scores.ok();
    if (ok) response.scores = std::move(*scores);
  }
  if (kernel_us != nullptr) (*kernel_us)[r.kind].push_back(1e3 * MsBetween(start, Clock::now()));
  {
    Scope codec(tracer, "service.codec");
    ResponseCodec(response);
  }
  return ok;
}

double Median(const std::vector<double>& values) { return Percentile(values, 0.5); }

std::string JsonMap(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + Num(value);
  }
  return out + "}";
}

}  // namespace

int RunReplay(const Flags& flags) {
  Schedule schedule;
  std::string text;
  std::string error;
  if (!ReadFile(flags.Get("schedule"), &text) || !ParseSchedule(text, &schedule, &error)) {
    std::fprintf(stderr, "replay: cannot read schedule: %s\n", error.c_str());
    return 2;
  }
  const std::string& workload = schedule.workload;
  const std::string scratch = flags.Get("scratch");
  // cli_oneshot replays the invocations the untraced run made; serve_hot a
  // prefix of each connection's stream; serve_adhoc the whole walk.
  const size_t count = static_cast<size_t>(flags.GetDouble("count", 1000));

  std::vector<const Request*> replayed;
  {
    std::map<int, size_t> per_conn;
    for (const Request& r : schedule.requests) {
      if (r.phase == Phase::kWarm) continue;
      if (workload != "serve_adhoc" && per_conn[r.conn]++ >= count) continue;
      replayed.push_back(&r);
    }
  }
  std::vector<const Request*> warm;
  for (const Request& r : schedule.requests) {
    if (r.phase == Phase::kWarm) warm.push_back(&r);
  }

  std::map<std::string, double> layers;
  std::map<std::string, double> registry;
  hs::QueryContext ctx;
  const hs::HeteSimOptions options;

  // --- probe -------------------------------------------------------------
  Tracer probe(true);
  // The load is timed by `perfbench_tool load` in fresh processes, as the
  // binaries pay it; this one only provides the graph.
  hs::Result<hs::HinGraph> loaded = hs::LoadHinGraphFromFile(flags.Get("graph"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "replay: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const hs::HinGraph& graph = *loaded;
  const uint64_t digest = hs::GraphDigest(graph);

  // The workload's paths in order of first use.
  std::vector<std::string> path_order;
  for (const Request* r : replayed) {
    if (std::find(path_order.begin(), path_order.end(), r->path) == path_order.end()) {
      path_order.push_back(r->path);
    }
  }
  // The store holds what the workload stores: the materialized half of the
  // ad-hoc paths, or every path elsewhere (where only this probe uses it).
  const std::set<std::string> stored =
      workload == "serve_adhoc"
          ? std::set<std::string>(schedule.materialize.begin(), schedule.materialize.end())
          : std::set<std::string>(path_order.begin(), path_order.end());
  hs::StoreOptions store_options;
  store_options.directory = scratch + "/store";
  store_options.graph_digest = digest;
  std::shared_ptr<hs::MatrixStore> store;
  {
    hs::Result<std::unique_ptr<hs::MatrixStore>> opened = hs::MatrixStore::Open(store_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "replay: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    store = std::move(*opened);
  }

  std::vector<double> decompose_ms, chain_ms, transpose_ms, write_ms, read_ms;
  double chain_flops = 0.0;
  double chain_nnz = 0.0;
  double stored_nnz = 0.0;
  for (const std::string& spec : path_order) {
    const hs::MetaPath path = hs::MetaPath::Parse(graph.schema(), spec).value();
    hs::PathDecomposition decomposition;
    {
      Scope span(probe, "hin.decompose");
      decomposition = hs::DecomposePath(graph, path);
      decompose_ms.push_back(span.ElapsedMs());
    }
    hs::SparseMatrix left;
    hs::SparseMatrix right;
    {
      Scope span(probe, "matrix.chain");
      left = hs::LeftReachMatrix(decomposition);
      right = hs::RightReachMatrix(decomposition);
      chain_ms.push_back(span.ElapsedMs());
    }
    chain_flops += ChainFlops(decomposition.left_transitions) +
                   ChainFlops(decomposition.right_transitions);
    chain_nnz += static_cast<double>(left.NumNonZeros() + right.NumNonZeros());
    {
      Scope span(probe, "matrix.transpose");
      const hs::SparseMatrix transposed = right.Transpose();
      transpose_ms.push_back(span.ElapsedMs());
    }
    if (stored.count(spec) != 0) {
      Scope span(probe, "store.write");
      const hs::Status left_written = store->Put(hs::PathMatrixCache::LeftKey(path), left);
      const hs::Status right_written = store->Put(hs::PathMatrixCache::RightKey(path), right);
      if (!left_written.ok() || !right_written.ok()) {
        std::fprintf(stderr, "replay: store write failed\n");
        return 1;
      }
      write_ms.push_back(span.ElapsedMs());
      stored_nnz += static_cast<double>(left.NumNonZeros() + right.NumNonZeros());
    }
  }
  layers["store.bytes_per_nnz"] =
      stored_nnz > 0 ? static_cast<double>(store->stats().bytes) / stored_nnz : 0.0;
  {
    // Read back through a freshly opened store, as a restarted server would.
    hs::Result<std::unique_ptr<hs::MatrixStore>> reopened = hs::MatrixStore::Open(store_options);
    if (!reopened.ok()) return 1;
    for (const std::string& spec : path_order) {
      if (stored.count(spec) == 0) continue;
      const hs::MetaPath path = hs::MetaPath::Parse(graph.schema(), spec).value();
      Scope span(probe, "store.read");
      const bool ok = (*reopened)->Get(hs::PathMatrixCache::LeftKey(path)).ok() &&
                      (*reopened)->Get(hs::PathMatrixCache::RightKey(path)).ok();
      read_ms.push_back(span.ElapsedMs());
      if (!ok) {
        std::fprintf(stderr, "replay: store read failed\n");
        return 1;
      }
    }
  }
  layers["hin.decompose_ms"] = Median(decompose_ms);
  layers["matrix.chain_ms"] = Median(chain_ms);
  layers["matrix.chain_flops"] = chain_flops;
  layers["matrix.chain_nnz"] = chain_nnz;
  layers["matrix.transpose_ms"] = Median(transpose_ms);
  layers["store.write_ms"] = Median(write_ms);
  layers["store.read_ms"] = Median(read_ms);

  // --- ledger --------------------------------------------------------------
  Tracer ledger(true);
  std::vector<double> prepare_ms;
  WarmState warm_state(graph);
  for (const std::string& spec : path_order) {
    warm_state.paths.emplace(spec, hs::MetaPath::Parse(graph.schema(), spec).value());
  }
  int64_t failures = 0;
  if (workload == "cli_oneshot") {
    // One invocation minus its process, graph load and graph release
    // (run.py times those with `hetesim_cli help` and `perfbench_tool load`).
    for (const Request* r : replayed) {
      Scope request_span(ledger, "request", r->seq);
      hs::Result<hs::MetaPath> path = hs::Status::Internal("unparsed");
      {
        Scope span(ledger, "hin.parse");
        path = hs::MetaPath::Parse(graph.schema(), r->path);
        if (path.ok()) {
          failures += !graph.FindNode(path->SourceType(), r->source_name).ok();
          if (r->kind == Kind::kPair) {
            failures += !graph.FindNode(path->TargetType(), r->target_name).ok();
          }
        }
      }
      if (!path.ok()) {
        ++failures;
        continue;
      }
      if (r->kind == Kind::kPair) {
        Scope span(ledger, "core.pair");
        const hs::HeteSimEngine engine(graph, options);
        failures += !engine.ComputePairs(*path, {{r->source, r->target}}).ok();
        continue;
      }
      std::optional<hs::Result<hs::TopKSearcher>> searcher;
      {
        Scope span(ledger, "core.prepare");
        searcher.emplace(hs::TopKSearcher::Prepare(graph, *path, options, ctx, nullptr));
        prepare_ms.push_back(span.ElapsedMs());
      }
      if (!searcher->ok()) {
        ++failures;
        continue;
      }
      Scope span(ledger, "core.topk");
      failures += !(*searcher)->Query(r->source, r->k).ok();
    }
  } else if (workload == "serve_hot") {
    // Set-up's warm-up requests are the first touch of every hot path.
    for (const Request* r : warm) {
      const hs::MetaPath& path = warm_state.paths.at(r->path);
      if (r->kind == Kind::kTopK && warm_state.searchers.count(r->path) == 0) {
        Scope span(probe, "core.prepare");
        hs::Result<hs::TopKSearcher> searcher =
            hs::TopKSearcher::Prepare(graph, path, options, ctx, warm_state.cache.get());
        prepare_ms.push_back(span.ElapsedMs());
        if (!searcher.ok()) return 1;
        warm_state.searchers[r->path] = std::make_unique<hs::TopKSearcher>(std::move(*searcher));
      }
      failures += !RunKernel(probe, warm_state, *r, true, nullptr, nullptr);
    }
  } else {
    // The ad-hoc walk against a cache over the materialized store. The two
    // halves a path's first request needs are fetched explicitly, so each
    // fetch is its own span, named by what the cache did: served it from
    // memory, promoted it from the store, or computed the chain product.
    warm_state.cache->AttachStore(store);
    std::set<std::string> touched;
    for (const Request* r : replayed) {
      Scope request_span(ledger, "request", r->seq);
      const hs::MetaPath& path = warm_state.paths.at(r->path);
      if (touched.insert(r->path).second) {
        for (int side = 0; side < 2; ++side) {
          const uint64_t misses = CounterValue("hetesim_cache_misses_total");
          const uint64_t store_hits = CounterValue("hetesim_store_hits_total");
          Scope span(ledger, "core.cache");
          const bool ok = side == 0
                              ? warm_state.cache->GetLeft(graph, path, ctx).ok()
                              : warm_state.cache->GetRight(graph, path, ctx).ok();
          failures += !ok;
          if (CounterValue("hetesim_cache_misses_total") != misses) {
            span.Rename(CounterValue("hetesim_store_hits_total") != store_hits ? "store.read"
                                                                               : "matrix.chain");
          }
        }
      }
      if (r->kind == Kind::kTopK && warm_state.searchers.count(r->path) == 0) {
        Scope span(ledger, "core.prepare");
        hs::Result<hs::TopKSearcher> searcher =
            hs::TopKSearcher::Prepare(graph, path, options, ctx, warm_state.cache.get());
        prepare_ms.push_back(span.ElapsedMs());
        if (!searcher.ok()) return 1;
        warm_state.searchers[r->path] = std::make_unique<hs::TopKSearcher>(std::move(*searcher));
      }
      // The kernel and its codec nest under this request span.
      failures += !RunKernel(ledger, warm_state, *r, false, nullptr, nullptr);
    }
  }
  layers["core.prepare_ms"] = Median(prepare_ms);

  // --- kernels -------------------------------------------------------------
  // Everything warm: every half cached, every top-k path prepared.
  for (const Request* r : replayed) {
    if (r->kind == Kind::kTopK && warm_state.searchers.count(r->path) == 0) {
      hs::Result<hs::TopKSearcher> searcher = hs::TopKSearcher::Prepare(
          graph, warm_state.paths.at(r->path), options, ctx, warm_state.cache.get());
      if (!searcher.ok()) return 1;
      warm_state.searchers[r->path] = std::make_unique<hs::TopKSearcher>(std::move(*searcher));
    }
  }
  std::map<Kind, std::vector<double>> kernel_us;
  std::vector<double> candidates;
  std::vector<double> plain_ms, traced_ms;
  std::map<std::string, double> kernel_self;
  int64_t kernel_requests = 0;
  for (int round = 0; round < 2; ++round) {
    {
      Tracer off(false);
      const Clock::time_point start = Clock::now();
      for (const Request* r : replayed) failures += !RunKernel(off, warm_state, *r, true, nullptr, nullptr);
      plain_ms.push_back(MsBetween(start, Clock::now()));
    }
    Tracer on(true);
    const Clock::time_point start = Clock::now();
    for (const Request* r : replayed) {
      RunKernel(on, warm_state, *r, true, round == 0 ? &kernel_us : nullptr,
                round == 0 ? &candidates : nullptr);
    }
    traced_ms.push_back(MsBetween(start, Clock::now()));
    if (round == 0) kernel_self = on.SelfMsPerRequest(&kernel_requests);
  }
  const double plain = std::min(plain_ms[0], plain_ms[1]);
  const double traced = std::min(traced_ms[0], traced_ms[1]);
  layers["ledger.trace_overhead_share"] = plain > 0 ? (traced - plain) / plain : 0.0;
  layers["core.topk_us_p50"] = Median(kernel_us[Kind::kTopK]);
  layers["core.topk_candidates_p50"] = Median(candidates);
  layers["core.pair_us_p50"] = Median(kernel_us[Kind::kPair]);
  layers["core.single_us_p50"] = Median(kernel_us[Kind::kSingle]);
  layers["service.codec_us"] = 1e3 * kernel_self["service.codec"];

  int64_t ledger_requests = 0;
  std::map<std::string, double> ledger_self =
      workload == "serve_hot" ? kernel_self : ledger.SelfMsPerRequest(&ledger_requests);
  if (workload == "serve_hot") ledger_requests = kernel_requests;

  registry["cache_hits"] = static_cast<double>(CounterValue("hetesim_cache_hits_total"));
  registry["cache_misses"] = static_cast<double>(CounterValue("hetesim_cache_misses_total"));
  registry["cache_bytes"] = static_cast<double>(
      hs::MetricsRegistry::Global().GetGauge("hetesim_cache_accounted_bytes").value());
  registry["store_hits"] = static_cast<double>(CounterValue("hetesim_store_hits_total"));
  registry["store_misses"] = static_cast<double>(CounterValue("hetesim_store_misses_total"));

  // --- service (cli_oneshot) -----------------------------------------------
  std::map<std::string, double> service;
  if (workload == "cli_oneshot") {
    std::unique_ptr<svc::QueryService> query_service =
        svc::QueryService::Create(graph, svc::ServiceOptions());
    const uint64_t admitted_before = CounterValue("hetesim_service_admitted_total");
    std::vector<double> transport, queue;
    std::map<Kind, std::vector<double>> exec;
    for (const Request* r : replayed) {
      // The CLI's single-source row is a top-k over every target.
      Request as_sent = *r;
      if (as_sent.kind == Kind::kSingle) as_sent.kind = Kind::kTopK;
      const Clock::time_point start = Clock::now();
      const svc::QueryResponse response = query_service->Execute(WireRequest(as_sent));
      const double latency = MsBetween(start, Clock::now());
      failures += !response.served();
      transport.push_back(latency - response.queue_ms - response.exec_ms);
      queue.push_back(response.queue_ms);
      exec[r->kind].push_back(response.exec_ms);
    }
    query_service->Shutdown();
    service["transport_ms_p50"] = Median(transport);
    service["queue_ms_p50"] = Median(queue);
    service["exec_ms_p50.pair"] = Median(exec[Kind::kPair]);
    service["exec_ms_p50.single"] = Median(exec[Kind::kSingle]);
    service["exec_ms_p50.topk"] = Median(exec[Kind::kTopK]);
    service["admitted_share"] =
        static_cast<double>(CounterValue("hetesim_service_admitted_total") - admitted_before) /
        static_cast<double>(std::max<size_t>(1, replayed.size()));
  }

  std::error_code ignored;
  std::filesystem::remove_all(store_options.directory, ignored);
  std::printf(
      "{\"graph_digest\": \"%016llx\", \"replayed\": %zu, \"failures\": %lld, "
      "\"layers\": %s, \"registry\": %s, \"service\": %s, "
      "\"ledger_requests\": %lld, \"ledger\": %s}\n",
      static_cast<unsigned long long>(digest), replayed.size(),
      static_cast<long long>(failures), JsonMap(layers).c_str(), JsonMap(registry).c_str(),
      JsonMap(service).c_str(), static_cast<long long>(ledger_requests),
      JsonMap(ledger_self).c_str());
  return 0;
}

}  // namespace perfbench
