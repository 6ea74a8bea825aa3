// The traced run's layer ladder. Each raw leg's stream goes through the
// layers one at a time -- hash alone, one row, the F0Estimator, the
// engine (three ingest paths), MergedSketch, the codec -- so each
// layer's rate and self time can be read off; one served round then
// reads the engine and net counters. Every rung is a span.
#include <algorithm>
#include <span>
#include <sstream>
#include <string>

#include "engine/sharded_engine.hpp"
#include "engine/sketch_codec.hpp"
#include "engine/sketch_merge.hpp"
#include "hash/gf2_poly.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mcf0::F0Estimator;
using mcf0::SketchCodec;

constexpr size_t kChunk = 2048;  // engine batch size: E17's AddBatch chunk
constexpr int kCodecRepeats = 5;

// Hash results land here so the timed loops cannot be optimized away.
volatile uint64_t g_sink = 0;

std::string LegMetric(const char* prefix, int leg) {
  return std::string(prefix) + "." + kLegNames[leg];
}

/// Sum of every registry metric of one family (all label sets):
/// counter value, or histogram sum (`sum`) / count.
struct Family {
  uint64_t value = 0;
  uint64_t sum = 0;
  uint64_t count = 0;
};
Family ReadFamily(const std::string& name) {
  Family family;
  for (const auto& metric : mcf0::obs::Registry::Global().Snapshot()) {
    if (metric.name != name) continue;
    family.value += metric.counter_value;
    family.sum += metric.hist_sum;
    family.count += metric.hist_count;
  }
  return family;
}

/// Times `fn` over `repeats` calls; median microseconds.
template <typename Fn>
double MedianMicros(int repeats, Fn&& fn) {
  std::vector<double> us;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    us.push_back(MicrosBetween(start, Clock::now()));
  }
  return Median(us);
}

/// Hash evaluations of the leg's hash alone over the stream; returns
/// evaluations per second. The row hash is what the row's Add calls:
/// Bucketing Eval64 (n -> n), Minimum Eval (n -> 3n), Estimation one
/// polynomial hash's EvalBatch.
double HashEvalsPerSecond(const mcf0::F0Params& params,
                          const std::vector<uint64_t>& xs, int64_t parent) {
  mcf0::F0RowSampler sampler(params);
  uint64_t sink = 0;
  Clock::time_point start;
  double seconds = 0.0;
  if (params.algorithm == mcf0::F0Algorithm::kBucketing) {
    const mcf0::BucketingSketchRow row = sampler.NextBucketingRow();
    ScopedSpan span("hash.eval64", parent);
    start = Clock::now();
    for (const uint64_t x : xs) sink ^= row.hash().Eval64(x);
    seconds = SecondsSince(start);
  } else if (params.algorithm == mcf0::F0Algorithm::kMinimum) {
    const mcf0::MinimumSketchRow row = sampler.NextMinimumRow();
    ScopedSpan span("hash.eval", parent);
    start = Clock::now();
    for (const uint64_t x : xs) {
      sink += row.hash().Eval(mcf0::BitVec::FromU64(x, params.n)).Popcount();
    }
    seconds = SecondsSince(start);
  } else {
    const mcf0::Gf2Field field(params.n);
    auto pair = sampler.NextEstimationPair(&field);
    const mcf0::PolynomialHash& h = pair.first.hashes().front();
    std::vector<uint64_t> out(256);
    ScopedSpan span("hash.eval_batch", parent);
    start = Clock::now();
    for (size_t base = 0; base < xs.size(); base += out.size()) {
      const size_t len = std::min(out.size(), xs.size() - base);
      h.EvalBatch(std::span<const uint64_t>(xs.data() + base, len),
                  std::span<uint64_t>(out.data(), len));
      sink ^= out[0];
    }
    seconds = SecondsSince(start);
  }
  g_sink = sink;
  return static_cast<double>(xs.size()) / seconds;
}

/// One row's span-Add over the stream; items per second.
double RowItemsPerSecond(const mcf0::F0Params& params,
                         const std::vector<uint64_t>& xs, int64_t parent) {
  mcf0::F0RowSampler sampler(params);
  const std::span<const uint64_t> all(xs);
  ScopedSpan span("streaming.row_add", parent);
  if (params.algorithm == mcf0::F0Algorithm::kBucketing) {
    auto row = sampler.NextBucketingRow();
    const Clock::time_point start = Clock::now();
    row.Add(all);
    return static_cast<double>(xs.size()) / SecondsSince(start);
  }
  if (params.algorithm == mcf0::F0Algorithm::kMinimum) {
    auto row = sampler.NextMinimumRow();
    const Clock::time_point start = Clock::now();
    row.Add(all);
    return static_cast<double>(xs.size()) / SecondsSince(start);
  }
  const mcf0::Gf2Field field(params.n);
  auto pair = sampler.NextEstimationPair(&field);
  const Clock::time_point start = Clock::now();
  pair.first.Add(all);
  return static_cast<double>(xs.size()) / SecondsSince(start);
}

/// Hash evaluations one item costs across all t rows once they are
/// saturated: one per row for Bucketing (the cell test) and Minimum,
/// one per column per row plus the FM row's for Estimation.
double EvalsPerItem(const mcf0::F0Params& params) {
  const double rows = mcf0::F0Rows(params);
  if (params.algorithm == mcf0::F0Algorithm::kEstimation) {
    return rows * static_cast<double>(mcf0::F0Thresh(params));
  }
  return rows;
}

/// Returns the merge's peak resident row count.
int RawLadder(const Context& ctx, const Inputs& in, int leg, Report* report) {
  const mcf0::F0Params& params = in.raw_params[leg];
  const std::vector<uint64_t>& xs = in.streams[leg];
  const double items = static_cast<double>(xs.size());
  const int shards = BuildShards(ctx);
  ScopedSpan root("ladder.raw", -1, leg);

  const double hash_rate = HashEvalsPerSecond(params, xs, root.id());
  const double row_rate = RowItemsPerSecond(params, xs, root.id());
  const double est_rate = items / in.reference_seconds[leg];
  report->Set(LegMetric("hash.evals_per_s", leg), hash_rate, "1/s");
  report->Set(LegMetric("streaming.row_items_per_s", leg), row_rate, "items/s");
  report->Set(LegMetric("streaming.items_per_s", leg), est_rate, "items/s");

  // Engine, CLI style: Add per item on the built-in producer.
  double engine_rate = 0.0;
  std::string blob;
  {
    mcf0::ShardedF0Engine engine(params, shards);
    Clock::time_point start = Clock::now();
    {
      ScopedSpan span("engine.add", root.id());
      for (const uint64_t x : xs) engine.Add(x);
      engine.Flush();
    }
    engine_rate = items / SecondsSince(start);
    // The first MergedSketch folds every shard, as a build's single call
    // does; later calls would hit the warm merge cache.
    start = Clock::now();
    F0Estimator merged = [&] {
      ScopedSpan span("engine.merged_sketch", root.id());
      return engine.MergedSketch();
    }();
    const double merged_us = MicrosBetween(start, Clock::now());
    report->Set(LegMetric("engine.merged_sketch_us", leg), merged_us, "us");
    const double encode_us = MedianMicros(kCodecRepeats, [&] {
      ScopedSpan span("codec.encode", root.id());
      blob = SketchCodec::Encode(merged);
    });
    report->Set(LegMetric("codec.encode_us", leg), encode_us, "us");
    if (blob != in.reference[leg]) {
      report->Mismatch(LegMetric("ladder engine sketch", leg) +
                       " differs from single-pass bytes");
    }
    const double decode_us = MedianMicros(kCodecRepeats, [&] {
      ScopedSpan span("codec.decode", root.id());
      if (!SketchCodec::DecodeF0Estimator(blob).ok()) {
        report->Mismatch(LegMetric("ladder decode", leg) + " failed");
      }
    });
    report->Set(LegMetric("codec.decode_us", leg), decode_us, "us");
  }
  report->Set(LegMetric("engine.items_per_s", leg), engine_rate, "items/s");
  report->Set(LegMetric("engine.scaling", leg), engine_rate / est_rate, "x");

  // Engine, E17's single-producer table: the built-in handle's AddBatch.
  {
    mcf0::ShardedF0Engine engine(params, shards);
    const Clock::time_point start = Clock::now();
    ScopedSpan span("engine.builtin_add_batch", root.id());
    for (size_t off = 0; off < xs.size(); off += kChunk) {
      engine.AddBatch(std::span<const uint64_t>(
          xs.data() + off, std::min(kChunk, xs.size() - off)));
    }
    engine.Flush();
    report->Set(LegMetric("engine.builtin_batch_items_per_s", leg),
                items / SecondsSince(start), "items/s");
  }
  // Engine, E17's multi-producer table with one producer: a
  // MakeProducer() handle's AddBatch.
  {
    mcf0::ShardedF0Engine engine(params, shards);
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span("engine.handle_add_batch", root.id());
      auto producer = engine.MakeProducer();
      for (size_t off = 0; off < xs.size(); off += kChunk) {
        (void)producer.AddBatch(std::span<const uint64_t>(
            xs.data() + off, std::min(kChunk, xs.size() - off)));
      }
      producer.Flush();
    }
    report->Set(LegMetric("engine.handle_items_per_s", leg),
                items / SecondsSince(start), "items/s");
  }

  // Reducer: the workload's shard frames, or the full sketch twice.
  std::vector<std::string_view> frames(in.shard_frames[leg].begin(),
                                       in.shard_frames[leg].end());
  if (frames.empty()) frames = {in.reference[leg], in.reference[leg]};
  const uint64_t draws_before = mcf0::TotalSamplerRowDraws();
  int max_resident = 0;
  const double merge_us = MedianMicros(kCodecRepeats, [&] {
    ScopedSpan span("codec.merge", root.id());
    std::ostringstream out;
    auto stats = mcf0::MergeSketchStreams(frames, SketchCodec::kFormatV2, out);
    if (!stats.ok()) {
      report->Mismatch(LegMetric("ladder merge", leg) + " failed");
      return;
    }
    max_resident = std::max(max_resident, stats.value().max_resident_units);
  });
  report->Set(LegMetric("codec.merge_us", leg),
              merge_us / static_cast<double>(frames.size()), "us");
  report->Set(LegMetric("codec.sampler_draws", leg),
              static_cast<double>(mcf0::TotalSamplerRowDraws() - draws_before) /
                  kCodecRepeats,
              "count");

  // Self time per item of each serial rung: the rung's per-item time
  // minus what the rung below accounts for; the engine's is its wall time
  // per item beyond a perfect split of the serial estimator over shards.
  const double t = mcf0::F0Rows(params);
  const double hash_ns = 1e9 * EvalsPerItem(params) / hash_rate;
  const double rows_ns = 1e9 * t / row_rate;
  const double est_ns = 1e9 / est_rate;
  const std::string self = std::string("self_ns_per_item.") + kLegNames[leg];
  report->Set(self + ".hash", hash_ns, "ns");
  report->Set(self + ".row", rows_ns - hash_ns, "ns");
  report->Set(self + ".estimator", est_ns - rows_ns, "ns");
  report->Set(self + ".engine", 1e9 / engine_rate - est_ns / shards, "ns");
  return max_resident;
}

/// Served Bucketing rounds, each with an open-loop QueryEstimate session
/// and direct SnapshotEstimate probes. The first kCountedRounds rounds
/// are the fixed work the counters, push times and `net` self time come
/// from; rounds then repeat until the query p99 has its samples.
void ServeLadder(const Context& ctx, const Inputs& in, Report* report) {
  const Family blocks0 = ReadFamily("mcf0_engine_enqueue_blocks_total");
  const Family wait0 = ReadFamily("mcf0_engine_enqueue_block_us");
  const Family absorb0 = ReadFamily("mcf0_engine_absorb_batch_us");
  const Family stolen0 = ReadFamily("mcf0_engine_batches_stolen_total");
  const Family rebuilds0 = ReadFamily("mcf0_engine_cache_rebuilds_total");
  const Family partial0 =
      ReadFamily("mcf0_engine_cache_partial_rebuilds_total");
  const Family handle0 = ReadFamily("mcf0_serve_push_batch_us");
  const Family stall0 = ReadFamily("mcf0_serve_credit_stall_us");
  const Family frames0 = ReadFamily("mcf0_serve_frames_in_total");
  const Family bytes0 = ReadFamily("mcf0_serve_bytes_in_total");
  auto delta = [](const Family& before, const char* name) {
    const Family after = ReadFamily(name);
    return Family{after.value - before.value, after.sum - before.sum,
                  after.count - before.count};
  };
  Family blocks, wait, absorb, stolen, rebuilds, partial, handle, stall,
      frames, bytes;

  constexpr int kCountedRounds = 2;
  constexpr int kMaxRounds = 40;
  ServeRoundResult round;
  uint64_t items = 0;
  for (int r = 0;
       r < kMaxRounds && (r < kCountedRounds ||
                          round.queries.latency_us.size() < kMinQuerySamples);
       ++r) {
    ScopedSpan root(r < kCountedRounds ? "ladder.serve" : "ladder.query", -1,
                    static_cast<uint64_t>(r));
    ServeRoundResult one =
        ServeRound(ctx, in, kBucketing, /*observe=*/true, root.id(), r);
    report->Attempt(one.push_calls + one.queries.latency_us.size() +
                    one.queries.failed);
    report->Fail(one.push_failures + one.queries.failed);
    if (one.final_sketch != in.reference[kBucketing] ||
        one.items_acked != in.streams[kBucketing].size()) {
      report->Mismatch("ladder serve round: sketch or acked count differs");
    }
    round.queries.Append(one.queries);
    round.snapshot_us.insert(round.snapshot_us.end(), one.snapshot_us.begin(),
                             one.snapshot_us.end());
    if (r >= kCountedRounds) continue;
    items += one.items_acked;
    round.push_call_us.insert(round.push_call_us.end(),
                              one.push_call_us.begin(), one.push_call_us.end());
    if (r + 1 < kCountedRounds) continue;
    blocks = delta(blocks0, "mcf0_engine_enqueue_blocks_total");
    wait = delta(wait0, "mcf0_engine_enqueue_block_us");
    absorb = delta(absorb0, "mcf0_engine_absorb_batch_us");
    stolen = delta(stolen0, "mcf0_engine_batches_stolen_total");
    rebuilds = delta(rebuilds0, "mcf0_engine_cache_rebuilds_total");
    partial = delta(partial0, "mcf0_engine_cache_partial_rebuilds_total");
    handle = delta(handle0, "mcf0_serve_push_batch_us");
    stall = delta(stall0, "mcf0_serve_credit_stall_us");
    frames = delta(frames0, "mcf0_serve_frames_in_total");
    bytes = delta(bytes0, "mcf0_serve_bytes_in_total");
  }

  report->Set("engine.enqueue_blocks", static_cast<double>(blocks.value),
              "count");
  report->Set("engine.enqueue_wait_us", static_cast<double>(wait.sum), "us");
  report->Set("engine.absorb_busy_us", static_cast<double>(absorb.sum), "us");
  report->Set("engine.batches_stolen", static_cast<double>(stolen.value),
              "count");
  report->Set("engine.cache_partial_ratio",
              rebuilds.value == 0 ? 0.0
                                  : static_cast<double>(partial.value) /
                                        static_cast<double>(rebuilds.value),
              "ratio");
  const double snapshot_p50 = Quantile(round.snapshot_us, 0.50);
  report->Set("engine.snapshot_us.p50", snapshot_p50, "us");
  report->Set("engine.snapshot_us.p99", Quantile(round.snapshot_us, 0.99),
              "us");
  report->Set("net.push_call_us.p50", Quantile(round.push_call_us, 0.50), "us");
  report->Set("net.push_call_us.p99", Quantile(round.push_call_us, 0.99), "us");
  report->Set("net.credit_stall_us", static_cast<double>(stall.sum), "us");
  report->Set("net.handle_batch_us",
              handle.count == 0 ? 0.0
                                : static_cast<double>(handle.sum) /
                                      static_cast<double>(handle.count),
              "us");
  report->Set("net.frames_in", static_cast<double>(frames.value), "count");
  report->Set("net.bytes_in_per_item",
              static_cast<double>(bytes.value) / static_cast<double>(items),
              "bytes");
  // The open-loop query session, each query timed from when it was due.
  // p99 is published only with at least ten samples beyond it.
  const LatencySample& q = round.queries;
  const double query_p50 = Quantile(q.latency_us, 0.50);
  if (q.latency_us.size() < kMinQuerySamples) {
    std::fprintf(stderr, "perfbench: %zu query samples; p99 needs %zu\n",
                 q.latency_us.size(), kMinQuerySamples);
    report->Fail();
  }
  report->Set("net.query_us.p50", query_p50, "us");
  report->Set("net.query_us.p99", Quantile(q.latency_us, 0.99), "us");
  report->Set("net.query_samples", static_cast<double>(q.latency_us.size()),
              "count");
  report->Set("net.query_lateness_us.p99", Quantile(q.lateness_us, 0.99),
              "us");
  // Query latency minus the engine work behind it: time spent queued
  // behind the server's poll loop and on the wire.
  report->Set("net.query_wait_us", query_p50 - snapshot_p50, "us");
}

}  // namespace

void RunLadder(const Context& ctx, const Inputs& in, Report* report) {
  int max_resident = 0;
  for (int leg = 0; leg < kNumRawLegs; ++leg) {
    max_resident = std::max(max_resident, RawLadder(ctx, in, leg, report));
  }
  report->Set("codec.max_resident_units", max_resident, "count");
  for (int kind = 0; kind < kNumItemKinds; ++kind) {
    report->Set(std::string("setstream.items_per_s.") + kItemKindNames[kind],
                static_cast<double>(in.structured_kind_items[kind]) /
                    in.structured_kind_seconds[kind],
                "items/s");
  }
  ServeLadder(ctx, in, report);
}

}  // namespace perfbench
