/// \file server.hpp
/// \brief `mcf0 serve`: the poll-based sketch service event loop.
///
/// One thread runs the loop; concurrency lives in the sharded engine
/// behind it. The server accepts sessions, binds each to a producer
/// handle via `EngineBackend`, meters ingestion with credits, answers
/// live estimate/sketch queries, and on RequestDrain() (async-signal-
/// safe, wired to SIGTERM/SIGINT by the CLI) stops accepting, drains
/// every session gracefully, and materializes the final merged sketch.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "engine/sharded_engine.hpp"
#include "engine/sketch_codec.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"

namespace mcf0 {
namespace net {

/// EngineBackend over ShardedF0Engine (raw u64 streams).
class RawEngineBackend : public EngineBackend {
 public:
  explicit RawEngineBackend(ShardedF0Engine* engine) : engine_(engine) {}

  StreamKind kind() const override { return StreamKind::kRaw; }
  std::variant<F0Params, StructuredF0Params> params() const override {
    return engine_->params();
  }
  int universe_bits() const override { return engine_->params().n; }
  uint16_t min_sketch_format() const override {
    return SketchCodec::kFormatV1;
  }
  std::unique_ptr<ProducerHandle> MakeProducer() override;
  uint64_t queued_batches() override { return engine_->queued_batches(); }
  uint64_t queue_capacity() const override {
    return engine_->queue_capacity();
  }
  uint64_t items_ingested() const override {
    return engine_->items_ingested();
  }
  double SnapshotEstimate() override { return engine_->SnapshotEstimate(); }
  std::string EncodeSnapshot(uint16_t format_version) override;
  double FinalEstimate() override { return engine_->Estimate(); }
  std::string EncodeFinal(uint16_t format_version) override;

 private:
  ShardedF0Engine* engine_;
};

/// EngineBackend over ShardedStructuredEngine (§5 structured streams).
class StructuredEngineBackend : public EngineBackend {
 public:
  explicit StructuredEngineBackend(ShardedStructuredEngine* engine)
      : engine_(engine) {}

  StreamKind kind() const override { return StreamKind::kStructured; }
  std::variant<F0Params, StructuredF0Params> params() const override {
    return engine_->params();
  }
  int universe_bits() const override { return engine_->params().n; }
  uint16_t min_sketch_format() const override {
    // Structured frames have no v1 encoding (sketch_codec.cpp).
    return SketchCodec::kFormatV2;
  }
  std::unique_ptr<ProducerHandle> MakeProducer() override;
  uint64_t queued_batches() override { return engine_->queued_batches(); }
  uint64_t queue_capacity() const override {
    return engine_->queue_capacity();
  }
  uint64_t items_ingested() const override {
    return engine_->items_ingested();
  }
  double SnapshotEstimate() override { return engine_->SnapshotEstimate(); }
  std::string EncodeSnapshot(uint16_t format_version) override;
  double FinalEstimate() override { return engine_->Estimate(); }
  std::string EncodeFinal(uint16_t format_version) override;

 private:
  ShardedStructuredEngine* engine_;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port().
  int port = 0;
  /// Per-connection flow control (docs/serve.md).
  uint64_t credit_window = 8;
  uint64_t max_batch_items = 4096;
  /// How long a drain waits for clients to say goodbye before their
  /// sockets are force-closed (dispatched batches are still kept).
  int drain_timeout_ms = 30'000;
  /// > 0: the serve loop emits one JSON metrics line (the process-wide
  /// obs registry snapshot) to stderr every this-many milliseconds.
  int metrics_interval_ms = 0;
};

/// The serve loop. Single-threaded; Start() then Run(); RequestDrain()
/// may be called from a signal handler or another thread.
class SketchServer {
 public:
  SketchServer(EngineBackend* backend, ServerOptions options);

  /// Binds, listens, and opens the wakeup pipe.
  Status Start();
  /// The bound port (valid after Start()).
  int port() const { return port_; }

  /// Runs until a drain completes. Returns non-OK only on environment
  /// failures (poll/accept); protocol problems end single sessions.
  Status Run();

  /// Async-signal-safe: flags the drain and wakes the loop.
  void RequestDrain();

  // Valid after Run() returns.
  double final_estimate() const { return final_estimate_; }
  const std::string& final_sketch() const { return final_sketch_; }
  uint64_t connections_served() const { return connections_served_; }
  uint64_t batches_accepted() const { return batches_accepted_; }
  uint64_t items_accepted() const { return items_accepted_; }

 private:
  Status AcceptAll();
  void BeginDrain();
  /// Removes finished connections, folding their stats into totals.
  void ReapFinished();
  void UpdateInterest();

  EngineBackend* backend_;
  ServerOptions options_;
  ScopedFd listener_;
  int port_ = 0;
  WakePipe wake_;
  Poller poller_;
  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;
  std::vector<std::unique_ptr<Connection>> connections_;

  double final_estimate_ = 0.0;
  std::string final_sketch_;
  uint64_t connections_served_ = 0;
  uint64_t batches_accepted_ = 0;
  uint64_t items_accepted_ = 0;
};

}  // namespace net
}  // namespace mcf0
