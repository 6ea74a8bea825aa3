/// \file connection.hpp
/// \brief Server-side session state machine + the transport-facing
/// engine surface (`EngineBackend` / `ProducerHandle`).
///
/// A `Connection` owns one accepted socket and speaks the protocol of
/// protocol.hpp: hello/welcome negotiation, credit-metered batches,
/// live queries, drain, goodbye. It talks to the sketch engine only
/// through `EngineBackend` — the type-erased interface over the two
/// `ShardedEngine` instantiations (`ShardedF0Engine` /
/// `ShardedStructuredEngine`, server.hpp) that keeps the net
/// layer ignorant of which item alphabet is behind the socket (and
/// keeps src/net inside the sealed sketch API: no replica access, only
/// producer handles and snapshot queries).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/status.hpp"
#include "net/event_loop.hpp"
#include "net/protocol.hpp"

namespace mcf0 {
namespace net {

/// One connection's ingestion handle — the transport projection of
/// `ShardedEngine::Producer`. Exactly one of the Push methods is
/// supported, matching the backend's StreamKind; the other returns
/// kNotSupported. Close() is idempotent (it wraps Producer::Close).
class ProducerHandle {
 public:
  virtual ~ProducerHandle() = default;

  virtual Status PushRaw(std::span<const uint64_t> items);
  virtual Status PushStructured(std::span<StructuredItem> items);

  /// Flush-and-detach; afterwards Push* returns kFailedPrecondition.
  virtual Status Close() = 0;
};

/// The engine as the transport sees it: parameters to advertise,
/// producer handles to ingest through, snapshot queries, and the queue
/// backpressure signals that drive credit grants.
class EngineBackend {
 public:
  virtual ~EngineBackend() = default;

  virtual StreamKind kind() const = 0;
  virtual std::variant<F0Params, StructuredF0Params> params() const = 0;
  /// Universe width n — the validation bound for structured item
  /// decoding (64 for raw streams, where Add masks instead).
  virtual int universe_bits() const = 0;
  /// Oldest sketch format version Encode{Snapshot,Final} can emit
  /// (structured sketches are v2-only). A hello whose max_sketch_format
  /// is below this is rejected at negotiation — the codec CHECK-aborts
  /// on unsupported versions, so no lower version may ever reach it.
  virtual uint16_t min_sketch_format() const = 0;

  virtual std::unique_ptr<ProducerHandle> MakeProducer() = 0;

  /// Backpressure signals (ShardedEngine::queued_batches / capacity).
  virtual uint64_t queued_batches() = 0;
  virtual uint64_t queue_capacity() const = 0;
  virtual uint64_t items_ingested() const = 0;

  /// Merge-without-drain queries (ShardedEngine::Snapshot*).
  virtual double SnapshotEstimate() = 0;
  virtual std::string EncodeSnapshot(uint16_t format_version) = 0;

  /// Post-drain final answers (every producer already closed).
  virtual double FinalEstimate() = 0;
  virtual std::string EncodeFinal(uint16_t format_version) = 0;
};

/// Per-connection protocol limits, set by the server.
struct ConnectionLimits {
  /// Credit window: batches a client may have in flight. Bounds server
  /// memory per connection at window * max_batch_items items.
  uint64_t credit_window = 8;
  /// Items per batch frame.
  uint64_t max_batch_items = 4096;
};

/// Lifecycle of one accepted session. All IO is non-blocking; the
/// server's event loop calls OnReadable/OnWritable on poll readiness
/// and tears the object down once done().
class Connection {
 public:
  /// States: AwaitHello -> Streaming -> (Draining) -> Closing.
  /// kClosing means a terminal frame (goodbye-ack or error) is queued;
  /// the connection closes once the outbox flushes.
  enum class State { kAwaitHello, kStreaming, kDraining, kClosing };

  Connection(ScopedFd fd, EngineBackend* backend, ConnectionLimits limits);
  ~Connection();

  int fd() const { return fd_.get(); }
  State state() const { return state_; }
  bool wants_write() const { return outbox_.size() > outbox_sent_; }
  /// True once the session is over and every queued byte was written
  /// (or the peer vanished) — the server then drops the object.
  bool done() const { return finished_; }

  /// Drains the socket and processes every complete frame.
  void OnReadable();
  /// Flushes as much of the outbox as the socket accepts.
  void OnWritable();
  /// POLLERR/POLLHUP: peer vanished; salvage dispatched batches.
  void OnHangup();

  /// Server is draining: tell the peer, stop accepting new batches
  /// after the credited ones, wait for its goodbye.
  void StartDrain();

  /// Tops up the peer's credit window when engine backpressure has
  /// cleared — the server pumps this between poll rounds so a client
  /// stalled at zero credits is revived without inbound traffic.
  /// Returns true if a grant was queued.
  bool PumpCredits();

  /// True while the peer is stalled below a full window — the server
  /// polls with a short timeout so PumpCredits runs promptly.
  bool credits_starved() const {
    return state_ == State::kStreaming && credits_ < limits_.credit_window;
  }

  // Stats for the server's summary.
  uint64_t batches_accepted() const { return batches_accepted_; }
  uint64_t items_accepted() const { return items_accepted_; }

 private:
  void HandleMessage(const Message& message);
  void HandleHello(const Message& message);
  void HandleBatch(const Message& message);
  void HandleQueryEstimate();
  void HandleQuerySketch();
  void HandleStatsQuery();
  void HandleGoodbye();

  void SendFrame(FrameType type, std::string payload);
  /// Queues an error frame carrying `status` and moves to kClosing.
  void Abort(const Status& status);
  /// Closes the producer (flushing dispatched batches) exactly once.
  void ReleaseProducer();

  /// Credits to grant right now: top up to the window iff the engine
  /// queue is below its low watermark (docs/serve.md flow control).
  uint64_t CreditTopUp() const;

  ScopedFd fd_;
  EngineBackend* backend_;
  ConnectionLimits limits_;
  State state_ = State::kAwaitHello;
  bool finished_ = false;

  FrameBuffer inbox_;
  std::string outbox_;
  size_t outbox_sent_ = 0;

  std::unique_ptr<ProducerHandle> producer_;
  uint16_t sketch_format_ = 0;  ///< negotiated kSketch format version
  uint64_t credits_ = 0;        ///< unspent grants held by the peer
  uint64_t last_seq_ = 0;       ///< highest batch seq accepted
  uint64_t batches_accepted_ = 0;
  uint64_t items_accepted_ = 0;
  /// Steady-clock µs at which the peer hit zero credits with no grant
  /// available (0 = not stalled); feeds mcf0_serve_credit_stall_us when
  /// PumpCredits revives the session.
  uint64_t credit_stall_start_us_ = 0;
};

}  // namespace net
}  // namespace mcf0
