/// \file sharded_engine.hpp
/// \brief Variant-generic, multi-producer sharded ingestion for F0 sketches.
///
/// `ShardedEngine<Sketch, Item>` spreads a heavy item stream across N
/// worker threads. Each worker owns a *private* replica built by the same
/// factory — same params, same seed, hence identical hash functions — so
/// the replicas stay mergeable (sketch_merge.hpp) and, because every
/// sketch operation is a set union, the merged result is exactly the
/// sketch a single-threaded pass over the whole stream would have
/// produced, no matter how items are split across shards or producers.
///
/// The engine is generic over the sketch and its item type through two
/// ADL customization points:
///
///   * `AbsorbItem(Sketch&, const Item&)` — how a replica ingests one item
///     (raw: `F0Estimator::Add(uint64_t)`; structured: dispatch a
///     `StructuredItem` variant to AddTerms / AddRange / AddAffine /
///     AddElement);
///   * `Merge(Sketch&, const Sketch&)` — the exact union the replicas are
///     folded with on query (already defined for both sketch kinds).
///
/// Two aliases name the instantiations: `ShardedF0Engine` (raw `uint64_t`
/// element streams) and `ShardedStructuredEngine` (§5 structured set
/// streams: DNF term groups, ranges, affine spaces, singletons). Both are
/// built from params and own a built-in producer handle behind the
/// engine-level Add/AddBatch.
///
/// Ingestion is *multi-producer*: any number of threads may each hold a
/// `Producer` handle (MakeProducer()). A handle buffers items privately
/// and hands whole batches to shard queues round-robin — the hot path
/// takes only the chosen shard's queue mutex, never a global producer
/// lock. Bounded queues give backpressure instead of unbounded memory.
/// Each handle remembers, per shard, the queue ticket of its last batch,
/// so `Producer::Flush()` waits for exactly its own (and earlier) batches
/// while other producers keep streaming.
///
/// Queries merge-on-demand and are safe while producers are mid-stream.
/// All of them are served by one incrementally maintained union: each
/// shard publishes an absorb generation, the cache remembers the
/// generation vector it was folded from, and a query refolds only the
/// shards whose generation advanced (see `cache_rebuilds()` /
/// `cache_partial_rebuilds()`). Batches that are merely *queued* do not
/// invalidate anything — absorb generations, not enqueue totals, are
/// what the folded replicas actually contain — so a steady-state poll
/// under live ingestion is O(changed shards), and a poll with no new
/// absorbs is a pure cache hit that takes no shard lock at all.
///   * `Estimate()` / `MergedSketch()` drain everything dispatched so
///     far, then refresh the union from the dirty shards only;
///   * `SnapshotSketch()` / `SnapshotEstimate()` skip the drain and
///     refresh from whatever each shard has absorbed so far — a
///     consistent-per-shard snapshot that never stops ingestion.
///
/// Ingestion is skew-proof via shard-affinity work stealing: a producer
/// whose preferred queue is full overflows to the next shard instead of
/// parking while other shards idle, and an idle worker steals the
/// oldest batch from the deepest queue (`batches_stolen()`). Neither
/// breaks the union guarantee — any split of the stream merges to the
/// same bytes — and per-producer `Flush()` tickets stay exact through a
/// per-shard completion watermark that tolerates out-of-order absorbs.
///
/// Destruction order: every external `Producer` must be flushed or
/// destroyed before its engine (handle destructors dispatch their tail
/// buffer; the engine dispatches its built-in handle's tail itself, and
/// the workers drain all queues before honoring stop).
#pragma once

#include <atomic>
#include <chrono>
#include <concepts>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.hpp"
#include "common/status.hpp"
#include "engine/sketch_merge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "formula/formula.hpp"
#include "setstream/range.hpp"
#include "setstream/structured_f0.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {

/// Tuning knobs for the queue/worker machinery.
struct ShardedEngineOptions {
  /// Items buffered by Producer::Add() before a batch is dispatched.
  /// Large enough to amortize the queue handoff, small enough to keep
  /// shards busy on modest streams. (Engines built without options take
  /// kDefaultBatchSize<Item>, much lower for structured items.)
  size_t batch_size = 2048;

  /// Bound on batches queued per shard; a producer blocks past this, so a
  /// slow consumer exerts backpressure instead of growing memory without
  /// limit.
  size_t max_queued_batches = 64;

  /// Shard-affinity work stealing (docs/engine.md): a producer that
  /// finds its preferred queue full overflows to the next shard with
  /// room before blocking, and an idle worker steals the oldest batch
  /// from the deepest queue. Both preserve the exact-union guarantee
  /// (any split of the stream merges to the same bytes) and exact
  /// per-producer Flush() semantics; disable only to reproduce strict
  /// round-robin placement (benchmarks, skew experiments).
  bool enable_work_stealing = true;
};

namespace engine_obs {

/// Registry handles for the engine hot paths, resolved once. Shared by
/// every ShardedEngine instantiation in the process — the registry is
/// process-wide, so two live engines sum into the same counters
/// (docs/observability.md).
struct Metrics {
  obs::Counter* items_absorbed;
  obs::Counter* cache_rebuilds;
  obs::Counter* cache_partial_rebuilds;
  obs::Counter* batches_stolen;
  obs::Counter* enqueue_blocks;
  obs::Histogram* enqueue_block_us;
  obs::Histogram* absorb_batch_us;
};

inline Metrics& Get() {
  static Metrics metrics{
      obs::Registry::Global().GetCounter("mcf0_engine_items_absorbed_total"),
      obs::Registry::Global().GetCounter("mcf0_engine_cache_rebuilds_total"),
      obs::Registry::Global().GetCounter(
          "mcf0_engine_cache_partial_rebuilds_total"),
      obs::Registry::Global().GetCounter("mcf0_engine_batches_stolen_total"),
      obs::Registry::Global().GetCounter("mcf0_engine_enqueue_blocks_total"),
      obs::Registry::Global().GetHistogram("mcf0_engine_enqueue_block_us"),
      obs::Registry::Global().GetHistogram("mcf0_engine_absorb_batch_us")};
  return metrics;
}

}  // namespace engine_obs

/// Batch-absorb customization point: how a worker ingests a whole queue
/// batch into its replica. This generic fallback replays AbsorbItem in
/// order, so any sketch that works item-by-item works batched with
/// identical bytes; sketches with a faster span surface overload it
/// (F0Estimator below routes to the gf2k-batched span-Add).
template <typename Sketch, typename Item>
inline void AbsorbBatch(Sketch& sketch, std::span<const Item> items) {
  for (const Item& item : items) AbsorbItem(sketch, item);
}

/// Batch-size customization point for engines built without options;
/// item types with heavy per-item work specialize it (StructuredItem).
template <typename Item>
inline constexpr size_t kDefaultBatchSize = ShardedEngineOptions{}.batch_size;

/// The sharded queue/worker/backpressure engine; see the file comment.
template <typename Sketch, typename Item>
class ShardedEngine {
 public:
  /// Builds one shard replica. Called num_shards times at construction
  /// and once per merge target; every call must produce sketches that are
  /// mutually mergeable (in practice: construct from one shared params
  /// value, so all replicas sample identical hash functions).
  using ReplicaFactory = std::function<Sketch()>;

  /// A single-threaded ingestion front end; see MakeProducer(). Handles
  /// may be moved but not copied, and must not outlive the engine.
  ///
  /// Lifecycle state machine (docs/engine.md): a handle is *open* from
  /// MakeProducer() until Close(), move-from, or destruction makes it
  /// *detached*. Open: Add/AddBatch accept items, Flush waits for them.
  /// Detached: Add/AddBatch return kFailedPrecondition, Flush and Close
  /// are no-ops. Close() = flush-and-detach, idempotent — the
  /// deterministic teardown a dropped network connection needs: once it
  /// returns, every item this handle accepted is absorbed, and nothing
  /// can slip in afterwards.
  class Producer {
   public:
    Producer(Producer&& o) noexcept
        : engine_(std::exchange(o.engine_, nullptr)),
          pending_(std::move(o.pending_)),
          next_shard_(o.next_shard_),
          tickets_(std::move(o.tickets_)) {}
    Producer& operator=(Producer&& o) noexcept {
      if (this != &o) {
        DispatchPending();
        engine_ = std::exchange(o.engine_, nullptr);
        pending_ = std::move(o.pending_);
        next_shard_ = o.next_shard_;
        tickets_ = std::move(o.tickets_);
      }
      return *this;
    }
    Producer(const Producer&) = delete;
    Producer& operator=(const Producer&) = delete;

    /// Hands the tail buffer to a shard; does not wait (the engine's
    /// destructor drains all queues before joining).
    ~Producer() { DispatchPending(); }

    /// Buffers one item; dispatched to a shard once the batch fills (or
    /// on Flush). kFailedPrecondition on a detached (closed or moved-from)
    /// handle — the item is not accepted.
    Status Add(Item item) {
      if (engine_ == nullptr) return Detached();
      if (pending_.capacity() < engine_->options_.batch_size) {
        pending_.reserve(engine_->options_.batch_size);
      }
      pending_.push_back(std::move(item));
      engine_->items_.fetch_add(1, std::memory_order_relaxed);
      if (pending_.size() >= engine_->options_.batch_size) DispatchPending();
      return Status::Ok();
    }

    /// The bulk hot path: hands the whole batch to the next shard
    /// round-robin. Copies the span, so the caller may reuse its buffer
    /// immediately. kFailedPrecondition on a detached handle.
    Status AddBatch(std::span<const Item> items) {
      if (engine_ == nullptr) return Detached();
      if (items.empty()) return Status::Ok();
      engine_->items_.fetch_add(items.size(), std::memory_order_relaxed);
      Dispatch(std::vector<Item>(items.begin(), items.end()));
      return Status::Ok();
    }

    /// Dispatches the tail buffer and blocks until every batch *this
    /// producer* dispatched has been absorbed by its replica. Safe while
    /// other producers are mid-stream: the wait covers only batches
    /// queued no later than this producer's own (per-shard FIFO order),
    /// never work other producers enqueue afterwards. A no-op on a
    /// moved-from handle (like the destructor).
    void Flush() {
      if (engine_ == nullptr) return;
      DispatchPending();
      engine_->AwaitTickets(tickets_);
    }

    /// Flush-and-detach: dispatches the tail buffer, waits for every batch
    /// this handle dispatched, then detaches it from the engine. After
    /// Close() returns, Add/AddBatch return kFailedPrecondition and
    /// further Close()/Flush() calls are no-ops (idempotent). Always OK —
    /// the Status return leaves room for bounded-wait variants.
    Status Close() {
      if (engine_ == nullptr) return Status::Ok();
      Flush();
      engine_ = nullptr;
      return Status::Ok();
    }

    /// True once the handle is detached (closed or moved-from).
    bool closed() const { return engine_ == nullptr; }

   private:
    static Status Detached() {
      return Status::FailedPrecondition(
          "producer handle is closed (or moved-from); items are no longer "
          "accepted");
    }

    friend class ShardedEngine;
    Producer(ShardedEngine* engine, size_t start_shard)
        : engine_(engine),
          next_shard_(start_shard),
          tickets_(engine->shards_.size(), 0) {}

    void DispatchPending() {
      if (engine_ == nullptr || pending_.empty()) return;
      Dispatch(std::move(pending_));
      pending_.clear();  // moved-from: restore a definite empty state
    }

    void Dispatch(std::vector<Item> batch) {
      const size_t preferred = next_shard_;
      next_shard_ = (next_shard_ + 1) % engine_->shards_.size();
      // The batch may land on an overflow shard, not the preferred one;
      // the ticket follows wherever it was actually enqueued so Flush()
      // waits on the right shard's completion watermark.
      const auto placed = engine_->DispatchTo(preferred, std::move(batch));
      tickets_[placed.shard] = placed.ticket;
    }

    ShardedEngine* engine_;
    std::vector<Item> pending_;  // Add() buffer, not yet dispatched
    size_t next_shard_;
    std::vector<uint64_t> tickets_;  // per shard: last enqueued ticket
  };

  /// Spawns `num_shards` workers, each with a private replica from
  /// `factory`. num_shards >= 1; 1 degenerates to background
  /// single-thread ingestion.
  ShardedEngine(
      ReplicaFactory factory, int num_shards,
      ShardedEngineOptions options = {.batch_size = kDefaultBatchSize<Item>})
      : factory_(std::move(factory)),
        options_(options),
        shards_(MakeShards(num_shards)),
        builtin_(MakeProducer()) {
    MCF0_CHECK(options_.batch_size >= 1 && options_.max_queued_batches >= 1);
    // Replicas first, threads second: if a sketch constructor throws
    // there are no workers to unwind.
    for (auto& shard : shards_) {
      shard->thread =
          std::thread(&ShardedEngine::WorkerLoop, this, shard.get());
    }
  }

  /// Every replica is `Sketch(params)`: same seed, identical hashes.
  template <typename Params>
    requires std::constructible_from<Sketch, const Params&>
  ShardedEngine(const Params& params, int num_shards)
      : ShardedEngine([params] { return Sketch(params); }, num_shards) {}

  /// Joins the workers after they drain their queues; producers must have
  /// been flushed or destroyed first (their destructors dispatch any tail
  /// buffer, and workers drain before honoring stop, so nothing ingested
  /// is dropped). The built-in handle's tail is dispatched first here.
  ~ShardedEngine() {
    builtin_.DispatchPending();
    for (auto& shard : shards_) {
      {
        std::lock_guard<std::mutex> lock(shard->mu);
        shard->stop = true;
      }
      shard->work_ready.notify_all();
    }
    for (auto& shard : shards_) shard->thread.join();
  }

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// A new ingestion handle, usable from exactly one thread at a time.
  /// Handles start on staggered shards so concurrent producers do not
  /// convoy on one queue. Thread-safe.
  Producer MakeProducer() {
    const size_t start =
        producers_made_.fetch_add(1, std::memory_order_relaxed);
    return Producer(this, start % shards_.size());
  }

  /// Add/AddBatch on the built-in handle (the first MakeProducer() handle,
  /// never closed). Single-threaded like any handle: these and the
  /// flushing calls below must not race; other threads make their own.
  void Add(Item item) { (void)builtin_.Add(std::move(item)); }
  void AddBatch(std::span<const Item> items) { (void)builtin_.AddBatch(items); }
  /// Add(item) under the name structured-stream callers (perfbench) use.
  void AddItem(Item item) { Add(std::move(item)); }

  /// Dispatches the built-in handle's tail, then blocks until every batch
  /// dispatched before this call has been absorbed by a replica. Safe to
  /// call while other producers keep streaming (their later batches are
  /// not waited for). Items still in a producer's private buffer are not
  /// yet part of the stream; flush the producer to include them.
  void Flush() {
    builtin_.DispatchPending();
    // Quiescent fast path off the relaxed mirrors: no shard mutex when
    // there is nothing to wait for. Ordering argument: a batch bumps
    // the enqueue mirror (under its shard lock) strictly before any
    // worker can complete it and bump the absorb mirror (release), so
    // with `absorbed` loaded first (acquire), absorbed >= enqueued
    // implies every batch whose enqueue this thread can observe has
    // been absorbed — if some observable batch were incomplete, the
    // enqueue bumps of the `absorbed` completed batches plus that
    // batch's own would make the later `enqueued` load exceed
    // `absorbed`.
    const uint64_t absorbed =
        batches_absorbed_.load(std::memory_order_acquire);
    const uint64_t enqueued =
        batches_enqueued_.load(std::memory_order_relaxed);
    if (absorbed >= enqueued) return;
    for (auto& shard : shards_) {
      std::unique_lock<std::mutex> lock(shard->mu);
      const uint64_t target = shard->enqueued;
      shard->drained.wait(
          lock, [&shard, target] { return shard->absorbed >= target; });
    }
  }

  /// Flush + merge-on-query: the union of all shard replicas, exactly
  /// the sketch a sequential pass over the same items would hold. The
  /// result carries the hashes_canonical attestation (fresh replica,
  /// Merge preserves it), so encoding it takes the codec's O(state)
  /// seed-elided fast path. The underlying union is cached and
  /// refreshed incrementally; see cache_rebuilds().
  Sketch MergedSketch() {
    Flush();
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    const Sketch& cached = RefreshCacheLocked();
    Sketch out = factory_();
    MergeOrDie(out, cached);
    return out;
  }

  /// MergedSketch().Estimate() without materializing a copy: reads the
  /// cached union directly. Cache rule (docs/engine.md): the union is
  /// refreshed per shard, folding only replicas whose absorb generation
  /// advanced since the last refresh — repeated queries with no absorbs
  /// in between are pure cache hits, whatever sits in the queues.
  double Estimate() {
    Flush();
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    return RefreshCacheLocked().Estimate();
  }

  /// Merge-without-drain: the union of each shard's absorbed prefix,
  /// without waiting for queued batches. Served by the same incremental
  /// cache as Estimate(): a poll refolds only shards that absorbed
  /// something since the last query (O(changed), and O(1) — no shard
  /// lock at all — when ingestion is quiescent), so live dashboards can
  /// poll while producers saturate the queues.
  Sketch SnapshotSketch() {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    const Sketch& cached = RefreshCacheLocked();
    Sketch out = factory_();
    MergeOrDie(out, cached);
    return out;
  }

  /// SnapshotSketch().Estimate() without materializing a copy.
  double SnapshotEstimate() {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    return RefreshCacheLocked().Estimate();
  }

  /// Flush + total footprint across the shard replicas.
  size_t SpaceBits() {
    Flush();
    size_t bits = 0;
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> sketch_lock(shard->sketch_mu);
      bits += shard->sketch.SpaceBits();
    }
    return bits;
  }

  /// Items accepted across all producers (including any still in a
  /// producer's private buffer).
  uint64_t items_ingested() const {
    return items_.load(std::memory_order_relaxed);
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// How many queries had to fold at least one shard replica into the
  /// cached union — observability for the validity rule (and its
  /// tests): queries with no completed absorb in between must not add
  /// to this, even with batches sitting in the queues.
  uint64_t cache_rebuilds() const {
    return cache_rebuilds_.load(std::memory_order_relaxed);
  }

  /// The subset of cache_rebuilds() that refolded strictly fewer than
  /// num_shards replicas — the O(changed) incremental refreshes. The
  /// first build after construction never counts, so
  /// `cache_rebuilds() - cache_partial_rebuilds() == 1` once warm means
  /// every steady-state refresh was partial.
  uint64_t cache_partial_rebuilds() const {
    return cache_partial_rebuilds_.load(std::memory_order_relaxed);
  }

  /// Batches absorbed by a worker other than the one whose queue they
  /// were enqueued on (shard-affinity work stealing).
  uint64_t batches_stolen() const {
    return batches_stolen_.load(std::memory_order_relaxed);
  }

  /// Batches currently sitting in shard queues (enqueued, not yet
  /// absorbed) — the engine's backpressure signal. `mcf0 serve` derives
  /// protocol credit grants from this on *every ack*, so it reads two
  /// relaxed mirrors of the per-shard counts instead of taking every
  /// shard mutex (which contended with the workers). Point-in-time, not
  /// a fence — fine for flow control; the hard bound is the queues.
  /// Loading absorbed before enqueued keeps the difference from ever
  /// wrapping: each batch bumps the enqueue mirror (under its shard
  /// lock) strictly before a worker can pop it and bump the absorb
  /// mirror.
  uint64_t queued_batches() const {
    const uint64_t absorbed =
        batches_absorbed_.load(std::memory_order_relaxed);
    const uint64_t enqueued =
        batches_enqueued_.load(std::memory_order_relaxed);
    return enqueued - absorbed;
  }

  /// Total batches the shard queues hold before dispatch blocks:
  /// num_shards * max_queued_batches. Constant over the engine's life.
  uint64_t queue_capacity() const {
    return static_cast<uint64_t>(shards_.size()) *
           options_.max_queued_batches;
  }

  const ShardedEngineOptions& options() const { return options_; }

  /// The replicas' params, read from the first (they never change).
  const auto& params() const { return shards_.front()->sketch.params(); }

 private:
  /// A queued batch carries the ticket it was enqueued under, so a
  /// thief can complete it against the home shard's watermark.
  struct QueuedBatch {
    uint64_t ticket = 0;
    std::vector<Item> items;
  };

  struct Shard {
    explicit Shard(Sketch replica) : sketch(std::move(replica)) {}

    std::mutex mu;  // guards queue, enqueued, absorbed, done_tickets, stop
    std::condition_variable work_ready;  // producer -> worker
    std::condition_variable drained;     // worker -> producers (flush, bp)
    std::deque<QueuedBatch> queue;
    uint64_t enqueued = 0;  // batches ever queued (= last ticket issued)
    /// Completion watermark: every batch with ticket <= absorbed has
    /// been absorbed into *some* replica. Work stealing completes
    /// tickets out of queue order; completions ahead of the watermark
    /// park in done_tickets until the gap closes, so Flush()'s
    /// "absorbed >= ticket" wait never releases past an unfinished
    /// batch.
    uint64_t absorbed = 0;
    std::set<uint64_t> done_tickets;
    bool stop = false;

    /// Lock-free mirror of queue.size(), for cross-shard scans (steal
    /// victim selection, overflow-dispatch pre-screen) that must not
    /// take another shard's mutex. Point-in-time; every decision it
    /// feeds is re-checked under the victim's lock.
    std::atomic<size_t> queue_size{0};

    /// Batches absorbed into `sketch` — the replica's publish
    /// generation. Bumped (release) after the batch's items are in, so
    /// a reader that loads it (acquire) *before* folding the replica
    /// provably folds at least that many batches. This is what the
    /// merge cache stamps and compares: queue state never appears in
    /// the validity rule.
    std::atomic<uint64_t> replica_gen{0};

    std::mutex sketch_mu;  // guards sketch: worker absorb vs query merge
    Sketch sketch;
    std::thread thread;

    obs::Gauge* queue_depth = nullptr;  // mcf0_engine_queue_depth{shard=i}
  };

  /// Queues shallower than this are not worth stealing from: a single
  /// queued batch is the home worker's next pop.
  static constexpr size_t kMinStealDepth = 2;

  /// An idle worker rescans for steal candidates on this period. A deep
  /// queue on another shard cannot reliably notify this worker's
  /// condvar (the producer holds the victim's lock, not ours, so a
  /// wakeup could be lost); short periodic rescans make steals robust
  /// without cross-shard lock traffic on the enqueue hot path.
  static constexpr std::chrono::milliseconds kIdleRescanInterval{2};

  std::vector<std::unique_ptr<Shard>> MakeShards(int num_shards) {
    MCF0_CHECK(num_shards >= 1);
    std::vector<std::unique_ptr<Shard>> shards;
    shards.reserve(num_shards);
    for (int i = 0; i < num_shards; ++i) {
      shards.push_back(std::make_unique<Shard>(factory_()));
      shards.back()->queue_depth = obs::Registry::Global().GetGauge(
          "mcf0_engine_queue_depth", {{"shard", std::to_string(i)}});
    }
    return shards;
  }

  static void MergeOrDie(Sketch& into, const Sketch& from) {
    const Status status = Merge(into, from);
    MCF0_CHECK(status.ok());  // replicas share params by construction
  }

  void WorkerLoop(Shard* self) {
    for (;;) {
      Shard* home = nullptr;  // the shard whose queue the batch came from
      QueuedBatch batch;
      {
        std::unique_lock<std::mutex> lock(self->mu);
        if (!self->queue.empty()) {
          batch = std::move(self->queue.front());
          self->queue.pop_front();
          self->queue_size.fetch_sub(1, std::memory_order_relaxed);
          home = self;
        } else if (self->stop) {
          return;  // stop requested, own queue drained
        }
      }
      if (home == self) {
        // The pop made room; backpressured producers wait on queue
        // length, not completions, so wake them now rather than after
        // the (possibly long) absorb.
        self->drained.notify_all();
      } else if (options_.enable_work_stealing) {
        home = TrySteal(self, &batch);
      }
      if (home == nullptr) {
        std::unique_lock<std::mutex> lock(self->mu);
        const auto ready = [self] {
          return self->stop || !self->queue.empty();
        };
        if (options_.enable_work_stealing) {
          self->work_ready.wait_for(lock, kIdleRescanInterval, ready);
        } else {
          self->work_ready.wait(lock, ready);
        }
        continue;
      }
      {
        MCF0_TRACE_SPAN("engine.absorb_batch");
        obs::ScopedLatencyUs absorb_timer(engine_obs::Get().absorb_batch_us);
        std::lock_guard<std::mutex> sketch_lock(self->sketch_mu);
        AbsorbBatch(self->sketch, std::span<const Item>(batch.items));
      }
      // Publish the replica change before the completion bookkeeping:
      // the merge cache reads replica_gen without sketch_mu, and the
      // Flush() fast path requires the items to be visible by the time
      // the absorb mirror covers this batch.
      self->replica_gen.fetch_add(1, std::memory_order_release);
      engine_obs::Get().items_absorbed->Increment(batch.items.size());
      if (home != self) {
        batches_stolen_.fetch_add(1, std::memory_order_relaxed);
        engine_obs::Get().batches_stolen->Increment();
      }
      CompleteTicket(home, batch.ticket);
    }
  }

  /// Picks the deepest other queue (by its lock-free size mirror,
  /// re-checked under the victim's lock) and pops its oldest batch.
  /// Returns the victim shard, or nullptr if nothing is worth stealing.
  /// Oldest-first keeps completions near queue order, so the home
  /// shard's watermark advances and done_tickets stays tiny.
  Shard* TrySteal(Shard* self, QueuedBatch* batch) {
    Shard* victim = nullptr;
    size_t deepest = kMinStealDepth - 1;
    for (auto& shard : shards_) {
      if (shard.get() == self) continue;
      const size_t size = shard->queue_size.load(std::memory_order_relaxed);
      if (size > deepest) {
        deepest = size;
        victim = shard.get();
      }
    }
    if (victim == nullptr) return nullptr;
    {
      std::lock_guard<std::mutex> lock(victim->mu);
      if (victim->queue.size() < kMinStealDepth) return nullptr;
      *batch = std::move(victim->queue.front());
      victim->queue.pop_front();
      victim->queue_size.fetch_sub(1, std::memory_order_relaxed);
    }
    victim->drained.notify_all();  // the pop made room for producers
    return victim;
  }

  /// Marks `ticket` absorbed against its home shard and advances the
  /// completion watermark across any previously parked completions.
  void CompleteTicket(Shard* home, uint64_t ticket) {
    {
      std::lock_guard<std::mutex> lock(home->mu);
      if (ticket == home->absorbed + 1) {
        ++home->absorbed;
        auto it = home->done_tickets.begin();
        while (it != home->done_tickets.end() &&
               *it == home->absorbed + 1) {
          ++home->absorbed;
          it = home->done_tickets.erase(it);
        }
      } else {
        home->done_tickets.insert(ticket);
      }
    }
    batches_absorbed_.fetch_add(1, std::memory_order_release);
    home->queue_depth->Add(-1);
    home->drained.notify_all();
  }

  /// Where DispatchTo actually placed a batch: the ticket is only
  /// meaningful against that shard's watermark.
  struct Placed {
    size_t shard = 0;
    uint64_t ticket = 0;
  };

  /// Queues one batch, preferring `preferred` but overflowing to the
  /// next shard with room when it is full (shard affinity, not strict
  /// round-robin): a saturated shard must not park the producer while
  /// other queues sit idle. Only when every queue is full does the
  /// producer block — on its preferred shard, as before. Thread-safe;
  /// concurrent producers contend only on the probed shards' mutexes.
  Placed DispatchTo(size_t preferred, std::vector<Item> batch) {
    const size_t num_shards = shards_.size();
    const size_t probes = options_.enable_work_stealing ? num_shards : 1;
    for (size_t attempt = 0; attempt < probes; ++attempt) {
      const size_t index = (preferred + attempt) % num_shards;
      Shard& shard = *shards_[index];
      if (attempt > 0 && shard.queue_size.load(std::memory_order_relaxed) >=
                             options_.max_queued_batches) {
        continue;  // visibly full: skip without taking the lock
      }
      std::unique_lock<std::mutex> lock(shard.mu);
      if (shard.queue.size() >= options_.max_queued_batches) continue;
      return EnqueueLocked(index, std::move(batch), lock);
    }
    // Every queue is full: block on the preferred shard until a worker
    // (or thief) makes room.
    Shard& shard = *shards_[preferred];
    std::unique_lock<std::mutex> lock(shard.mu);
    if (shard.queue.size() >= options_.max_queued_batches) {
      engine_obs::Get().enqueue_blocks->Increment();
      obs::ScopedLatencyUs wait_timer(engine_obs::Get().enqueue_block_us);
      shard.drained.wait(lock, [this, &shard] {
        return shard.queue.size() < options_.max_queued_batches;
      });
    }
    return EnqueueLocked(preferred, std::move(batch), lock);
  }

  /// Second half of DispatchTo: push under the already-held shard lock,
  /// then notify outside it.
  Placed EnqueueLocked(size_t index, std::vector<Item> batch,
                       std::unique_lock<std::mutex>& lock) {
    Shard& shard = *shards_[index];
    const uint64_t ticket = ++shard.enqueued;
    shard.queue.push_back(QueuedBatch{ticket, std::move(batch)});
    shard.queue_size.fetch_add(1, std::memory_order_relaxed);
    batches_enqueued_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    shard.queue_depth->Add(1);
    shard.work_ready.notify_one();
    return Placed{index, ticket};
  }

  /// Blocks until, on every shard, the absorb count has reached the given
  /// ticket (0 = nothing to wait for on that shard).
  void AwaitTickets(const std::vector<uint64_t>& tickets) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (tickets[i] == 0) continue;
      Shard& shard = *shards_[i];
      std::unique_lock<std::mutex> lock(shard.mu);
      const uint64_t target = tickets[i];
      shard.drained.wait(
          lock, [&shard, target] { return shard.absorbed >= target; });
    }
  }

  /// Requires cache_mu_. Incremental validity rule (docs/engine.md):
  /// the cache is the exact union of every shard replica at the
  /// generation recorded in cache_shard_gen_ (each generation loaded
  /// *before* folding its replica, so the replica provably contained at
  /// least that many batches — a concurrent absorb just leaves the
  /// stamp conservative and the shard dirty for the next query).
  /// Because a replica's item set only ever grows and Merge is an exact
  /// set union, folding a dirty shard's *current* replica into the
  /// cached union yields exactly the union of the new per-shard states:
  /// no subtraction, no from-scratch rebuild, O(changed shards) per
  /// refresh. A query that finds no generation advanced returns the
  /// cache untouched without taking any shard lock — queued-but-
  /// unabsorbed batches never invalidate, because absorb generations,
  /// not enqueue totals, are what the folded replicas actually contain.
  const Sketch& RefreshCacheLocked() {
    if (!cached_.has_value()) {
      cached_.emplace(factory_());
      cache_shard_gen_.assign(shards_.size(), 0);
    }
    size_t folded = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = *shards_[i];
      const uint64_t gen = shard.replica_gen.load(std::memory_order_acquire);
      if (gen == cache_shard_gen_[i]) continue;
      {
        std::lock_guard<std::mutex> sketch_lock(shard.sketch_mu);
        MergeOrDie(*cached_, shard.sketch);
      }
      cache_shard_gen_[i] = gen;
      ++folded;
    }
    if (folded == 0 && cache_built_) return *cached_;  // pure hit
    cache_rebuilds_.fetch_add(1, std::memory_order_relaxed);
    engine_obs::Get().cache_rebuilds->Increment();
    if (cache_built_ && folded < shards_.size()) {
      cache_partial_rebuilds_.fetch_add(1, std::memory_order_relaxed);
      engine_obs::Get().cache_partial_rebuilds->Increment();
    }
    cache_built_ = true;
    return *cached_;
  }

  ReplicaFactory factory_;
  ShardedEngineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> items_{0};
  std::atomic<size_t> producers_made_{0};
  // Mirrors of the per-shard enqueued/absorbed counts so
  // queued_batches() and Flush()'s quiescent fast path never touch a
  // shard mutex. Enqueue is bumped under the shard lock; absorb
  // (release) after the items are published — see queued_batches() and
  // Flush().
  std::atomic<uint64_t> batches_enqueued_{0};
  std::atomic<uint64_t> batches_absorbed_{0};
  std::atomic<uint64_t> batches_stolen_{0};

  std::mutex cache_mu_;  // guards cached_, cache_shard_gen_, cache_built_
  std::optional<Sketch> cached_;
  std::vector<uint64_t> cache_shard_gen_;  // per shard: replica_gen folded
  bool cache_built_ = false;
  std::atomic<uint64_t> cache_rebuilds_{0};
  std::atomic<uint64_t> cache_partial_rebuilds_{0};

  // Last: MakeProducer() sizes its tickets by shards_.
  Producer builtin_;
};

/// AbsorbItem customization point for raw element streams.
inline void AbsorbItem(F0Estimator& sketch, uint64_t x) { sketch.Add(x); }

/// AbsorbBatch fast path for raw element streams: the span-Add surface
/// runs each row's hashes over the whole batch through the gf2k batch
/// kernels. Byte-identical to the item-by-item fallback.
inline void AbsorbBatch(F0Estimator& sketch, std::span<const uint64_t> items) {
  sketch.Add(items);
}

/// One §5 structured stream item for `ShardedStructuredEngine`: the
/// affine space {x : a x = b} of Theorem 7.
struct AffineSpaceItem {
  Gf2Matrix a;
  BitVec b;
};

/// The §5 item alphabet: a set given as DNF terms (Theorem 5 — one term,
/// or a whole formula's worth), a multidimensional range / arithmetic
/// progression (Theorem 6 / Corollary 1), an affine space (Theorem 7), or
/// a singleton element (the traditional stream as a special case).
using StructuredItem =
    std::variant<std::vector<Term>, MultiDimRange, AffineSpaceItem, BitVec>;

/// AbsorbItem customization point for structured streams: dispatches the
/// variant to the matching StructuredF0 adder.
void AbsorbItem(StructuredF0& sketch, const StructuredItem& item);

/// Structured items are whole sets — per-item work dwarfs the queue
/// handoff, so batches stay small to keep shards busy.
template <>
inline constexpr size_t kDefaultBatchSize<StructuredItem> = 16;

/// Sharded parallel ingestion of raw u64 element streams.
using ShardedF0Engine = ShardedEngine<F0Estimator, uint64_t>;

/// Sharded parallel ingestion of §5 structured set streams.
using ShardedStructuredEngine = ShardedEngine<StructuredF0, StructuredItem>;

}  // namespace mcf0
