#include "service/extraction_service.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "prof/profiler.h"

namespace tegra {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Lock shards of the result cache; enough that the default worker count
/// rarely contends on one.
constexpr size_t kResultCacheShards = 8;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// The answer to a request that never reached a worker (shed, shut down).
ExtractionResponse RejectedResponse(const ExtractionRequest& request,
                                    Status status) {
  ExtractionResponse response;
  response.event.request_id = request.request_id;
  response.event.outcome = prof::OutcomeForStatus(status);
  response.event.num_lines = request.lines.size();
  response.event.num_columns = request.num_columns;
  response.status = std::move(status);
  return response;
}

}  // namespace

uint64_t RequestCacheKey(const std::vector<std::string>& lines,
                         int num_columns) {
  // Length-delimited FNV over every line, then the line count and the column
  // count mixed in, so that ["ab","c"] and ["a","bc"] (and the same list at a
  // different m) key differently.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& line : lines) {
    h = HashCombine(h, Fnv1a64(line));
    h = HashCombine(h, line.size());
  }
  h = HashCombine(h, lines.size());
  h = HashCombine(h, static_cast<uint64_t>(static_cast<int64_t>(num_columns)));
  return h;
}

ExtractionService::ExtractionService(const TegraExtractor* extractor,
                                     ServiceOptions options,
                                     MetricsRegistry* registry)
    : ExtractionService(
          static_cast<const ExtractorSource*>(nullptr), options, registry) {
  // Delegate first so all instruments and workers exist, then install the
  // owned fixed source. Workers only dereference source_ while processing a
  // request, and no request can be queued before this constructor returns.
  owned_source_ = std::make_unique<FixedExtractorSource>(extractor);
  source_ = owned_source_.get();
}

ExtractionService::ExtractionService(const ExtractorSource* source,
                                     ServiceOptions options,
                                     MetricsRegistry* registry)
    : source_(source),
      options_(options),
      owned_registry_(registry == nullptr ? new MetricsRegistry() : nullptr),
      registry_(registry == nullptr ? owned_registry_.get() : registry),
      requests_total_(registry_->GetCounter("service.requests_total")),
      rejected_total_(registry_->GetCounter("service.rejected_total")),
      deadline_exceeded_total_(
          registry_->GetCounter("service.deadline_exceeded_total")),
      completed_total_(registry_->GetCounter("service.completed_total")),
      failed_total_(registry_->GetCounter("service.failed_total")),
      cache_hits_(registry_->GetCounter("service.result_cache_hits")),
      cache_misses_(registry_->GetCounter("service.result_cache_misses")),
      degraded_total_(registry_->GetCounter("qos.degraded_total")),
      queue_latency_(registry_->GetHistogram("service.queue_seconds")),
      extract_latency_(registry_->GetHistogram("service.extract_seconds")),
      total_latency_(registry_->GetHistogram("service.total_seconds")),
      result_cache_(options_.result_cache_capacity, kResultCacheShards),
      slowlog_(options_.slowlog_capacity) {
  for (int rung = 0; rung < qos::kNumRungs; ++rung) {
    rung_requests_[rung] = registry_->GetCounter(
        "qos.rung" + std::to_string(rung) + "_requests_total");
  }
  const int workers = std::max(1, options_.num_workers);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ExtractionService::~ExtractionService() { Shutdown(); }

void ExtractionService::Shutdown() {
  std::deque<PendingRequest> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    drained.swap(queue_);
  }
  cv_.notify_all();
  for (PendingRequest& pending : drained) {
    rejected_total_->Increment();
    Deliver(&pending,
            RejectedResponse(pending.request,
                             Status::Unavailable("service shutting down")));
  }
  // Serialize the join phase so concurrent Shutdown calls (e.g. an explicit
  // Shutdown racing the destructor) cannot both walk workers_.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void ExtractionService::Deliver(PendingRequest* pending,
                                ExtractionResponse response) {
  if (pending->callback) {
    pending->callback(std::move(response));
  } else {
    pending->promise.set_value(std::move(response));
  }
}

void ExtractionService::Enqueue(PendingRequest pending) {
  requests_total_->Increment();
  pending.enqueue_time = Clock::now();
  const double deadline_s = pending.request.deadline_seconds > 0
                                ? pending.request.deadline_seconds
                                : options_.default_deadline_seconds;
  if (deadline_s > 0) {
    pending.has_deadline = true;
    pending.deadline =
        pending.enqueue_time + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(deadline_s));
  }
  // Shedding decisions happen under the lock; the rejection itself is
  // delivered outside it, so a callback that re-enters the service (or
  // takes its own locks) cannot deadlock against mu_.
  Status reject = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      reject = Status::Unavailable("service is shut down");
    } else if (queue_.size() >= options_.max_queue_depth) {
      reject = Status::Unavailable(
          "queue full (" + std::to_string(queue_.size()) + "/" +
          std::to_string(options_.max_queue_depth) + "); try again later");
    } else {
      queue_.push_back(std::move(pending));
    }
  }
  if (!reject.ok()) {
    rejected_total_->Increment();
    Deliver(&pending, RejectedResponse(pending.request, std::move(reject)));
    return;
  }
  cv_.notify_one();
}

std::future<ExtractionResponse> ExtractionService::Submit(
    ExtractionRequest request) {
  PendingRequest pending;
  pending.request = std::move(request);
  std::future<ExtractionResponse> future = pending.promise.get_future();
  Enqueue(std::move(pending));
  return future;
}

void ExtractionService::SubmitWithCallback(ExtractionRequest request,
                                           ResponseCallback done) {
  PendingRequest pending;
  pending.request = std::move(request);
  pending.callback = std::move(done);
  Enqueue(std::move(pending));
}

ExtractionResponse ExtractionService::SubmitAndWait(ExtractionRequest request) {
  return Submit(std::move(request)).get();
}

void ExtractionService::WorkerLoop(int worker_index) {
  // Full-stack CPU samples for extraction workers: these threads are where
  // the corpus-statistics hot path (Fig 9) actually burns cycles.
  const std::string name = "svc-worker" + std::to_string(worker_index);
  prof::EnsureThreadRegistered(name);
  // Liveness stamp for the health watchdog: busy around each request, so a
  // wedged extraction is detectable (and its stack capturable — same prof
  // registration as above) while an idle worker never alarms.
  health::Heartbeat* heartbeat =
      options_.heartbeats == nullptr
          ? nullptr
          : options_.heartbeats->Register(name, health::ThreadKind::kWorker);
  while (true) {
    PendingRequest pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) break;
        continue;
      }
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    health::ScopedWork work(heartbeat, "extract");
    Process(std::move(pending));
  }
  if (heartbeat != nullptr) options_.heartbeats->Release(heartbeat);
}

void ExtractionService::Process(PendingRequest pending) {
  const Clock::time_point start = Clock::now();
  const double queue_seconds = Seconds(start - pending.enqueue_time);

  // Request-scoped trace: every span completed while this worker (and any
  // extractor ThreadPool task holding a ScopedContext) runs this request is
  // tagged with one trace id and collected for the slow-request log. The
  // prof request id rides alongside so every histogram observation made on
  // this thread (including queue_latency_ just below) carries an exemplar
  // naming this exact request.
  prof::ScopedRequestId request_id_scope(pending.request.request_id);
  trace::Tracer& tracer = trace::Tracer::Global();
  TEGRA_TRACE_CONTEXT(trace_ctx, "serve.request");
  queue_latency_->Observe(queue_seconds);

  // The queue wait happened before this worker existed in the trace; record
  // it manually so the request's span tree starts at Submit, not dequeue.
  {
    const uint64_t now_us = tracer.NowMicros();
    const uint64_t wait_us = static_cast<uint64_t>(queue_seconds * 1e6);
    tracer.RecordManual("queue_wait", "serve",
                        now_us > wait_us ? now_us - wait_us : 0, wait_us);
  }

  ExtractionResponse response;
  prof::WideEvent& event = response.event;
  event.request_id = pending.request.request_id;
  event.trace_id = trace_ctx.trace_id();
  event.queue_seconds = queue_seconds;
  event.num_lines = pending.request.lines.size();
  event.num_columns = pending.request.num_columns;

  // One exit path: finalize the record, retain a copy with the captured span
  // tree when it is among the slowest, then satisfy the promise.
  auto finish = [&](Status status) {
    event.outcome = prof::OutcomeForStatus(status);
    response.status = std::move(status);
    if (response.result != nullptr) {
      event.sp_score = response.result->per_pair_objective;
    }
    event.total_seconds = Seconds(Clock::now() - pending.enqueue_time);
    total_latency_->Observe(event.total_seconds);
    if (slowlog_.WouldAdmit(event.total_seconds)) {
      prof::WideEvent retained = event;
      retained.spans = trace_ctx.Events();
      slowlog_.Add(std::move(retained));
    }
    Deliver(&pending, std::move(response));
  };

  // Deadline check at dequeue: don't spend extraction CPU on a request whose
  // caller has already timed out.
  if (pending.has_deadline && start >= pending.deadline) {
    deadline_exceeded_total_->Increment();
    finish(Status::DeadlineExceeded("request expired after waiting " +
                                    std::to_string(queue_seconds) +
                                    "s in queue"));
    return;
  }

  // Watchdog drill: park this worker mid-request so the stall detector has
  // something real to find (busy heartbeat + a capturable stack ending
  // here). Control-plane only; see ExtractionRequest::debug_sleep_ms.
  if (pending.request.debug_sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        pending.request.debug_sleep_ms));
  }

  // Pin the current engine generation for the whole request: a corpus
  // reload mid-extraction retires the old bundle only after this shared_ptr
  // releases it, so in-flight requests never observe a torn corpus.
  const EngineRef engine = source_->Acquire();
  if (!engine) {
    failed_total_->Increment();
    finish(Status::Unavailable("no extraction engine loaded"));
    return;
  }
  event.corpus_generation = engine.generation;

  // Quality selection happens at dequeue time (not Submit), so a request
  // that waited through a pressure spike executes at whatever rung the
  // controller holds *now*. Without per-rung engines the rung is forced to
  // 0 — the full pipeline is the only thing we can run.
  int rung = 0;
  if (options_.degradation != nullptr && engine.rungs != nullptr) {
    rung = qos::ClampRung(options_.degradation->rung());
  }
  event.quality_level = rung;
  rung_requests_[rung]->Increment();
  if (rung > 0) degraded_total_->Increment();

  const ExtractionRequest& request = pending.request;
  const bool use_cache =
      !request.bypass_cache && result_cache_.capacity() > 0;
  // The generation is part of the cache identity: results computed against
  // a previous corpus generation can never be served after a reload. The
  // rung is too: a degraded result must never satisfy a later full-quality
  // request (or vice versa).
  const uint64_t key =
      use_cache ? HashCombine(HashCombine(RequestCacheKey(request.lines,
                                                          request.num_columns),
                                          engine.generation),
                              static_cast<uint64_t>(rung))
                : 0;

  if (use_cache) {
    trace::Span cache_span(&tracer, "cache_probe", "serve");
    auto hit = result_cache_.Get(key);
    cache_span.End();
    if (hit) {
      cache_hits_->Increment();
      completed_total_->Increment();
      event.cache_hit = true;
      response.result = std::move(*hit);
      finish(Status::OK());
      return;
    }
    cache_misses_->Increment();
  }

  trace::Span execute_span(&tracer, "execute", "serve");
  Result<ExtractionResult> result =
      rung > 0 ? engine.rungs->Extract(rung, request.lines,
                                       request.num_columns)
      : request.num_columns > 0
          ? engine.extractor->ExtractWithColumns(request.lines,
                                                 request.num_columns)
          : engine.extractor->Extract(request.lines);
  execute_span.End();
  event.extract_seconds = Seconds(Clock::now() - start);
  extract_latency_->Observe(event.extract_seconds);

  if (!result.ok()) {
    failed_total_->Increment();
    finish(result.status());
    return;
  }
  completed_total_->Increment();
  auto shared = std::make_shared<const ExtractionResult>(
      std::move(result).value());
  if (use_cache) result_cache_.Put(key, shared);
  response.result = std::move(shared);
  finish(Status::OK());
}

size_t ExtractionService::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

double ExtractionService::EstimatedDrainSeconds() const {
  // Little's-law style estimate: queued work divided by service rate. Mean
  // extraction time comes from the live histogram; before any request has
  // completed assume a nominal 50ms so overload hints are never zero.
  const HistogramSnapshot extract = extract_latency_->Snapshot();
  const double mean_seconds =
      extract.count > 0 ? extract.Mean() : 0.05;
  const double workers =
      static_cast<double>(std::max(1, options_.num_workers));
  return static_cast<double>(QueueDepth()) * mean_seconds / workers;
}

bool ExtractionService::shutting_down() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

void ExtractionService::RefreshGauges() {
  registry_->GetGauge("service.queue_depth")
      ->Set(static_cast<double>(QueueDepth()));
  registry_->GetGauge("service.workers")
      ->Set(static_cast<double>(workers_.size()));

  const LruCacheStats cache = result_cache_.Stats();
  registry_->GetGauge("service.result_cache_size")
      ->Set(static_cast<double>(cache.size));
  registry_->GetGauge("service.result_cache_capacity")
      ->Set(static_cast<double>(cache.capacity));
  registry_->GetGauge("service.result_cache_hit_rate")->Set(cache.HitRate());
  registry_->GetGauge("service.result_cache_evictions")
      ->Set(static_cast<double>(cache.evictions));

  // Surface the corpus-level co-occurrence cache through the same registry,
  // so one snapshot shows the full memory/caching picture of the process.
  const EngineRef engine = source_->Acquire();
  registry_->GetGauge("service.engine_generation")
      ->Set(static_cast<double>(engine.generation));
  if (engine && engine.extractor->stats() != nullptr) {
    const LruCacheStats co = engine.extractor->stats()->CoCacheStats();
    registry_->GetGauge("corpus.co_cache_size")
        ->Set(static_cast<double>(co.size));
    registry_->GetGauge("corpus.co_cache_capacity")
        ->Set(static_cast<double>(co.capacity));
    registry_->GetGauge("corpus.co_cache_hits")
        ->Set(static_cast<double>(co.hits));
    registry_->GetGauge("corpus.co_cache_misses")
        ->Set(static_cast<double>(co.misses));
    registry_->GetGauge("corpus.co_cache_evictions")
        ->Set(static_cast<double>(co.evictions));
    registry_->GetGauge("corpus.co_cache_hit_rate")->Set(co.HitRate());
  }
}

MetricsRegistry* ExtractionService::metrics() {
  RefreshGauges();
  return registry_;
}

}  // namespace serve
}  // namespace tegra
