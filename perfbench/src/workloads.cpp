#include "workloads.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <utility>

#include "engine/sharded_engine.hpp"
#include "engine/sketch_codec.hpp"
#include "engine/sketch_merge.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

namespace perfbench {

using mcf0::F0Estimator;
using mcf0::SketchCodec;
using mcf0::StructuredF0;

// ---- shared --------------------------------------------------------------

OpenLoopQueries::OpenLoopQueries(std::function<bool()> query,
                                 double period_us, const char* span_name,
                                 int64_t parent_span)
    : query_(std::move(query)),
      period_us_(period_us),
      span_name_(span_name),
      parent_span_(parent_span),
      thread_(&OpenLoopQueries::Loop, this) {}

OpenLoopQueries::~OpenLoopQueries() { (void)Stop(); }

LatencySample OpenLoopQueries::Stop() {
  if (thread_.joinable()) {
    stop_at_.store(Clock::now().time_since_epoch().count(),
                   std::memory_order_relaxed);
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  return std::move(sample_);
}

void OpenLoopQueries::Loop() {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::micro>(period_us_));
  Clock::time_point due = Clock::now() + period;
  for (uint64_t id = 0;; ++id, due += period) {
    std::this_thread::sleep_until(due);
    if (stop_.load(std::memory_order_acquire)) break;
    const Clock::time_point sent = Clock::now();
    bool ok = false;
    {
      ScopedSpan span(span_name_, parent_span_, id);
      ok = query_();
    }
    const Clock::time_point done = Clock::now();
    sample_.lateness_us.push_back(MicrosBetween(due, sent));
    if (ok) {
      sample_.latency_us.push_back(MicrosBetween(due, done));
    } else {
      sample_.failed += 1;
    }
  }
  // Requests that came due before Stop() but were never sent (the
  // session was stuck behind a slow one) count as waiting until now.
  const Clock::time_point stop_at(
      Clock::duration(stop_at_.load(std::memory_order_relaxed)));
  const Clock::time_point now = Clock::now();
  for (; due <= stop_at; due += period) {
    sample_.latency_us.push_back(MicrosBetween(due, now));
    sample_.lateness_us.push_back(MicrosBetween(due, now));
  }
}

int BuildShards(const Context& ctx) { return std::max(1, ctx.nproc - 1); }
int ServeShards(const Context& ctx) { return std::max(1, ctx.nproc / 2); }
int ServePushers(const Context& ctx) { return std::max(1, ctx.nproc - 1); }

namespace {

/// Single-pass references for every leg, timed: the traced run reports
/// these times as the serial `streaming` and `setstream` baselines, so
/// it builds them one after another; otherwise the legs run in parallel.
void BuildReferences(Inputs* in, bool serial) {
  auto raw = [in](int leg) {
    F0Estimator est(in->raw_params[leg]);
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span("streaming.estimator_add", -1, leg);
      est.Add(std::span<const uint64_t>(in->streams[leg]));
    }
    in->reference_seconds[leg] = SecondsSince(start);
    in->reference[leg] = SketchCodec::Encode(est);
  };
  auto structured = [in] {
    StructuredF0 sketch(in->structured_params);
    for (size_t i = 0; i < in->structured.items.size(); ++i) {
      const ItemKind kind = in->structured.kinds[i];
      const Clock::time_point start = Clock::now();
      {
        ScopedSpan span("setstream.add", -1, i);
        mcf0::AbsorbItem(sketch, in->structured.items[i]);
      }
      in->structured_kind_seconds[kind] += SecondsSince(start);
      in->structured_kind_items[kind] += 1;
    }
    in->reference[kStructured] = SketchCodec::Encode(sketch);
  };
  if (serial) {
    for (int leg = 0; leg < kNumRawLegs; ++leg) raw(leg);
    structured();
    return;
  }
  std::vector<std::thread> threads;
  for (int leg = 0; leg < kNumRawLegs; ++leg) threads.emplace_back(raw, leg);
  threads.emplace_back(structured);
  for (std::thread& thread : threads) thread.join();
}

// ---- build ---------------------------------------------------------------

/// `mcf0 sketch build --shards N`, in process: engine Add per item,
/// MergedSketch, Encode. Distinct-heavy streams: rows saturate.
class BuildWorkload : public Workload {
 public:
  static constexpr std::array<size_t, kNumLegs> kItems = {150000, 10000,
                                                          5000, 150};

  void Prepare(const Context& ctx) override {
    ctx_ = ctx;
    for (int leg = 0; leg < kNumRawLegs; ++leg) {
      inputs_.raw_params[leg] = RawParams(static_cast<Leg>(leg), ctx.seed);
      inputs_.streams[leg] =
          DistinctHeavyStream(kItems[leg], SubSeed(ctx.seed, leg));
    }
    inputs_.structured_params = StructuredParams(ctx.seed);
    inputs_.structured = MakeStructuredItems(kItems[kStructured], ctx.seed);
    BuildReferences(&inputs_, ctx.trace);
  }

  double SetupOnce() override {
    const Clock::time_point start = Clock::now();
    std::vector<std::unique_ptr<mcf0::ShardedF0Engine>> raw;
    for (int leg = 0; leg < kNumRawLegs; ++leg) {
      raw.push_back(std::make_unique<mcf0::ShardedF0Engine>(
          inputs_.raw_params[leg], BuildShards(ctx_)));
    }
    mcf0::ShardedStructuredEngine structured(inputs_.structured_params,
                                             BuildShards(ctx_));
    return SecondsSince(start);
  }

  void RunPass(Leg leg, int pass, Report* report, Measured* out) override {
    std::string blob;
    const double seconds = leg == kStructured
                               ? StructuredPass(pass, &blob)
                               : RawPass(leg, pass, &blob);
    report->Attempt();
    if (blob != inputs_.reference[leg]) {
      report->Mismatch(std::string("build ") + kLegNames[leg] +
                       ": engine sketch differs from single-pass bytes");
    }
    out->ops_per_s[leg].push_back(static_cast<double>(LegItems(inputs_, leg)) /
                                  seconds);
  }

 private:
  double RawPass(Leg leg, int pass, std::string* blob) {
    mcf0::ShardedF0Engine engine(inputs_.raw_params[leg], BuildShards(ctx_));
    return TimedBuild(engine, pass, blob, [&] {
      for (const uint64_t x : inputs_.streams[leg]) engine.Add(x);
    });
  }

  double StructuredPass(int pass, std::string* blob) {
    mcf0::ShardedStructuredEngine engine(inputs_.structured_params,
                                         BuildShards(ctx_));
    return TimedBuild(engine, pass, blob, [&] {
      for (const mcf0::StructuredItem& item : inputs_.structured.items) {
        engine.AddItem(item);
      }
    });
  }

  /// Times `add_all` (one Add per item), Flush, MergedSketch and Encode
  /// on an engine built before the timed window.
  template <typename Engine, typename AddAll>
  static double TimedBuild(Engine& engine, int pass, std::string* blob,
                           AddAll add_all) {
    ScopedSpan root("build.pass", -1, pass);
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span("engine.add", root.id(), pass);
      add_all();
      engine.Flush();
    }
    auto merged = [&] {
      ScopedSpan span("engine.merged_sketch", root.id(), pass);
      return engine.MergedSketch();
    }();
    {
      ScopedSpan span("codec.encode", root.id(), pass);
      *blob = SketchCodec::Encode(merged);
    }
    return SecondsSince(start);
  }

  Context ctx_;
};

// ---- serve ---------------------------------------------------------------

/// `mcf0 serve` in process on loopback: closed-loop pushers, each
/// waiting on credits and acks. Duplicate-heavy streams.
class ServeWorkload : public Workload {
 public:
  static constexpr std::array<size_t, kNumLegs> kItems = {100000, 5000,
                                                          1500, 150};
  static constexpr uint64_t kSupport = 1200;  // 8 x Thresh distinct items

  void Prepare(const Context& ctx) override {
    ctx_ = ctx;
    for (int leg = 0; leg < kNumRawLegs; ++leg) {
      inputs_.raw_params[leg] = RawParams(static_cast<Leg>(leg), ctx.seed);
      inputs_.streams[leg] = DuplicateHeavyStream(
          kItems[leg], kSupport, SubSeed(ctx.seed, 10 + leg));
    }
    inputs_.structured_params = StructuredParams(ctx.seed);
    inputs_.structured = MakeStructuredItems(kItems[kStructured], ctx.seed);
    BuildReferences(&inputs_, ctx.trace);
  }

  double SetupOnce() override {
    const Clock::time_point start = Clock::now();
    std::vector<std::unique_ptr<mcf0::ShardedF0Engine>> raw;
    std::vector<std::unique_ptr<mcf0::net::EngineBackend>> backends;
    for (int leg = 0; leg < kNumRawLegs; ++leg) {
      raw.push_back(std::make_unique<mcf0::ShardedF0Engine>(
          inputs_.raw_params[leg], ServeShards(ctx_)));
      backends.push_back(
          std::make_unique<mcf0::net::RawEngineBackend>(raw.back().get()));
    }
    mcf0::ShardedStructuredEngine structured(inputs_.structured_params,
                                             ServeShards(ctx_));
    backends.push_back(
        std::make_unique<mcf0::net::StructuredEngineBackend>(&structured));
    std::vector<std::unique_ptr<mcf0::net::SketchServer>> servers;
    for (auto& backend : backends) {
      servers.push_back(std::make_unique<mcf0::net::SketchServer>(
          backend.get(), mcf0::net::ServerOptions{}));
      const mcf0::Status status = servers.back()->Start();
      if (!status.ok()) {
        std::fprintf(stderr, "perfbench: server start failed: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
    }
    return SecondsSince(start);
  }

  void RunPass(Leg leg, int pass, Report* report, Measured* out) override {
    ScopedSpan root("serve.round", -1, pass);
    ServeRoundResult result =
        ServeRound(ctx_, inputs_, leg, /*observe=*/false, root.id(), pass);
    report->Attempt(result.push_calls);
    report->Fail(result.push_failures);
    if (result.items_acked != LegItems(inputs_, leg)) {
      report->Mismatch(std::string("serve ") + kLegNames[leg] + ": acked " +
                       std::to_string(result.items_acked) + " of " +
                       std::to_string(LegItems(inputs_, leg)) + " items");
    }
    if (result.final_sketch != inputs_.reference[leg]) {
      report->Mismatch(std::string("serve ") + kLegNames[leg] +
                       ": drained sketch differs from single-pass bytes");
    }
    out->ops_per_s[leg].push_back(static_cast<double>(result.items_acked) /
                                  result.seconds);
  }

 private:
  Context ctx_;
};

// ---- reduce --------------------------------------------------------------

/// `mcf0 sketch merge` + `sketch query`: K shard sketches per leg through
/// MergeSketchStreams, then decode and Estimate, on one thread as the CLI
/// runs them.
class ReduceWorkload : public Workload {
 public:
  static constexpr int kShards = 16;
  static constexpr std::array<size_t, kNumLegs> kItemsPerShard = {4000, 600,
                                                                  200, 16};

  void Prepare(const Context& ctx) override {
    ctx_ = ctx;
    for (int leg = 0; leg < kNumRawLegs; ++leg) {
      inputs_.raw_params[leg] = RawParams(static_cast<Leg>(leg), ctx.seed);
      inputs_.streams[leg] = DistinctHeavyStream(
          kItemsPerShard[leg] * kShards, SubSeed(ctx.seed, 20 + leg));
    }
    inputs_.structured_params = StructuredParams(ctx.seed);
    inputs_.structured =
        MakeStructuredItems(kItemsPerShard[kStructured] * kShards, ctx.seed);
    BuildReferences(&inputs_, ctx.trace);
    BuildShardFrames();
  }

  double SetupOnce() override {
    // The reducer stands up no engine; its set-up is the replica hash
    // sampling that decoding a canonical frame replays per leg.
    const Clock::time_point start = Clock::now();
    for (int leg = 0; leg < kNumRawLegs; ++leg) {
      F0Estimator replica(inputs_.raw_params[leg]);
    }
    StructuredF0 structured(inputs_.structured_params);
    return SecondsSince(start);
  }

  void RunPass(Leg leg, int pass, Report* report, Measured* out) override {
    const std::vector<std::string>& frames = inputs_.shard_frames[leg];
    const std::vector<std::string_view> views(frames.begin(), frames.end());
    ScopedSpan root("reduce.pass", -1, pass);
    const Clock::time_point start = Clock::now();
    std::ostringstream merged;
    bool ok = false;
    {
      ScopedSpan span("codec.merge", root.id(), pass);
      ok = mcf0::MergeSketchStreams(views, SketchCodec::kFormatV2, merged)
               .ok();
    }
    const std::string blob = merged.str();
    {
      ScopedSpan span("codec.decode", root.id(), pass);
      auto decoded = mcf0::SketchVariant::Decode(blob);
      ok = ok && decoded.ok() && decoded.value().Estimate() >= 0.0;
    }
    const double seconds = SecondsSince(start);
    report->Attempt();
    if (!ok) report->Fail();
    if (blob != inputs_.reference[leg]) {
      report->Mismatch(std::string("reduce ") + kLegNames[leg] +
                       ": merged bytes differ from single-pass bytes");
    }
    out->ops_per_s[leg].push_back(static_cast<double>(frames.size()) /
                                  seconds);
  }

 private:
  /// Encodes one sketch per shard: leg input split into kShards
  /// contiguous parts, built on up to nproc threads.
  void BuildShardFrames() {
    for (int leg = 0; leg < kNumLegs; ++leg) {
      inputs_.shard_frames[leg].assign(kShards, std::string());
    }
    std::atomic<int> next{0};
    auto worker = [this, &next] {
      for (int job; (job = next.fetch_add(1)) < kNumLegs * kShards;) {
        const int leg = job / kShards;
        const int shard = job % kShards;
        const size_t per = kItemsPerShard[leg];
        const size_t begin = static_cast<size_t>(shard) * per;
        if (leg == kStructured) {
          StructuredF0 sketch(inputs_.structured_params);
          for (size_t i = begin; i < begin + per; ++i) {
            mcf0::AbsorbItem(sketch, inputs_.structured.items[i]);
          }
          inputs_.shard_frames[leg][shard] = SketchCodec::Encode(sketch);
        } else {
          F0Estimator est(inputs_.raw_params[leg]);
          est.Add(std::span<const uint64_t>(inputs_.streams[leg].data() + begin,
                                            per));
          inputs_.shard_frames[leg][shard] = SketchCodec::Encode(est);
        }
      }
    };
    std::vector<std::thread> threads;
    for (int i = 0; i < ctx_.nproc; ++i) threads.emplace_back(worker);
    for (std::thread& thread : threads) thread.join();
  }

  Context ctx_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "build") return std::make_unique<BuildWorkload>();
  if (name == "serve") return std::make_unique<ServeWorkload>();
  if (name == "reduce") return std::make_unique<ReduceWorkload>();
  return nullptr;
}

// ---- the served round (serve workload and the ladder's net rung) ----------

ServeRoundResult ServeRound(const Context& ctx, const Inputs& in, Leg leg,
                            bool observe, int64_t parent_span,
                            uint64_t round_id) {
  namespace net = mcf0::net;
  ServeRoundResult result;
  const bool structured = leg == kStructured;
  std::unique_ptr<mcf0::ShardedF0Engine> raw_engine;
  std::unique_ptr<mcf0::ShardedStructuredEngine> structured_engine;
  std::unique_ptr<net::EngineBackend> backend;
  if (structured) {
    structured_engine = std::make_unique<mcf0::ShardedStructuredEngine>(
        in.structured_params, ServeShards(ctx));
    backend =
        std::make_unique<net::StructuredEngineBackend>(structured_engine.get());
  } else {
    raw_engine = std::make_unique<mcf0::ShardedF0Engine>(in.raw_params[leg],
                                                         ServeShards(ctx));
    backend = std::make_unique<net::RawEngineBackend>(raw_engine.get());
  }
  net::SketchServer server(backend.get(), mcf0::net::ServerOptions{});
  const mcf0::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n",
                 started.ToString().c_str());
    std::exit(1);
  }
  std::thread loop([&server] { (void)server.Run(); });

  const net::StreamKind kind =
      structured ? net::StreamKind::kStructured : net::StreamKind::kRaw;
  net::ClientOptions dial;
  dial.port = server.port();

  std::unique_ptr<net::PushClient> querier;
  std::unique_ptr<OpenLoopQueries> live;
  if (observe) {
    auto connected = net::PushClient::Connect(kind, dial);
    if (connected.ok()) {
      querier = std::make_unique<net::PushClient>(std::move(connected).value());
      net::PushClient* session = querier.get();
      live = std::make_unique<OpenLoopQueries>(
          [session] { return session->QueryEstimate().ok(); },
          kQueryPeriodUs, "net.query_estimate", parent_span);
    } else {
      result.queries.failed += 1;
    }
  }
  std::unique_ptr<OpenLoopQueries> probe;
  std::vector<double> probe_us;
  if (observe) {
    auto* engine_raw = raw_engine.get();
    auto* engine_structured = structured_engine.get();
    probe = std::make_unique<OpenLoopQueries>(
        [engine_raw, engine_structured, &probe_us] {
          const Clock::time_point start = Clock::now();
          const double estimate = engine_raw != nullptr
                                      ? engine_raw->SnapshotEstimate()
                                      : engine_structured->SnapshotEstimate();
          probe_us.push_back(MicrosBetween(start, Clock::now()));
          return estimate >= 0.0;
        },
        kQueryPeriodUs, "engine.snapshot_estimate", parent_span);
  }

  const int pushers = ServePushers(ctx);
  const uint64_t total = LegItems(in, leg);
  struct PusherOutcome {
    uint64_t calls = 0;
    uint64_t failures = 0;
    uint64_t acked_items = 0;
    std::vector<double> call_us;
  };
  std::vector<PusherOutcome> outcomes(static_cast<size_t>(pushers));
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int p = 0; p < pushers; ++p) {
    threads.emplace_back([&, p] {
      PusherOutcome& mine = outcomes[static_cast<size_t>(p)];
      const uint64_t begin = total * static_cast<uint64_t>(p) / pushers;
      const uint64_t end = total * static_cast<uint64_t>(p + 1) / pushers;
      auto connected = net::PushClient::Connect(kind, dial);
      mine.calls += 1;
      if (!connected.ok()) {
        mine.failures += 1;
        return;
      }
      net::PushClient client = std::move(connected).value();
      const uint64_t chunk = client.welcome().max_batch_items;
      const uint64_t request_base = (round_id << 40) | (uint64_t(p) << 32);
      bool ok = true;
      for (uint64_t off = begin; ok && off < end; off += chunk) {
        const uint64_t len = std::min(chunk, end - off);
        const Clock::time_point call_start = Clock::now();
        ScopedSpan span("net.push", parent_span, request_base | off);
        mcf0::Status status;
        if (structured) {
          for (uint64_t i = off; status.ok() && i < off + len; ++i) {
            status = client.PushItem(in.structured.items[i]);
          }
        } else {
          status = client.Push(std::span<const uint64_t>(
              in.streams[leg].data() + off, len));
        }
        mine.call_us.push_back(MicrosBetween(call_start, Clock::now()));
        mine.calls += 1;
        if (!status.ok()) {
          mine.failures += 1;
          ok = false;
        }
      }
      const mcf0::Status closed = client.Close();
      mine.calls += 1;
      if (!ok || !closed.ok()) {
        if (!closed.ok()) mine.failures += 1;
        return;
      }
      mine.acked_items = end - begin;
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.seconds = SecondsSince(start);

  if (live != nullptr) {
    result.queries.Append(live->Stop());
    (void)querier->Close();
  }
  if (probe != nullptr) {
    (void)probe->Stop();
    result.snapshot_us = std::move(probe_us);
  }
  server.RequestDrain();
  loop.join();

  for (PusherOutcome& outcome : outcomes) {
    result.push_calls += outcome.calls;
    result.push_failures += outcome.failures;
    result.items_acked += outcome.acked_items;
    result.push_call_us.insert(result.push_call_us.end(),
                               outcome.call_us.begin(), outcome.call_us.end());
  }
  // Acked means the server holds the items: count no more than it took.
  result.items_acked = std::min(result.items_acked, server.items_accepted());
  result.final_sketch = server.final_sketch();
  return result;
}

}  // namespace perfbench
