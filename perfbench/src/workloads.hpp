// The three workloads (build, serve, reduce) and the pieces the traced
// layer ladder shares with them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "inputs.hpp"
#include "net/server.hpp"
#include "spans.hpp"
#include "util.hpp"

namespace perfbench {

/// One run's settings, from the command line and the host.
struct Context {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int nproc = 1;
};

/// A workload's inputs and single-pass references, built before any
/// timed window. Raw legs hold one stream each (for `reduce`, the union
/// of the shard streams); `reference` is the encoded sketch a single
/// F0Estimator / StructuredF0 pass over the whole leg input produces.
struct Inputs {
  std::array<mcf0::F0Params, kNumRawLegs> raw_params;
  std::array<std::vector<uint64_t>, kNumRawLegs> streams;
  mcf0::StructuredF0Params structured_params;
  StructuredInput structured;
  std::array<std::string, kNumLegs> reference;
  /// Wall time of each raw reference pass (serial F0Estimator::Add(span)).
  std::array<double, kNumRawLegs> reference_seconds{};
  /// Serial StructuredF0 time and item count per item kind.
  std::array<double, kNumItemKinds> structured_kind_seconds{};
  std::array<uint64_t, kNumItemKinds> structured_kind_items{};
  /// `reduce` only: the encoded shard sketches of every leg.
  std::array<std::vector<std::string>, kNumLegs> shard_frames;
};

/// Items (raw legs: stream length; structured: item count) of one leg.
inline uint64_t LegItems(const Inputs& in, Leg leg) {
  return leg == kStructured ? in.structured.items.size()
                            : in.streams[leg].size();
}

/// Timed passes and set-ups of the whole workload.
struct Measured {
  std::array<std::vector<double>, kNumLegs> ops_per_s;
  std::vector<double> setup_s;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs and the single-pass references.
  virtual void Prepare(const Context& ctx) = 0;
  /// One complete set-up: every engine replica and server the workload
  /// stands up (hash sampling, worker start, bind). Returns seconds.
  virtual double SetupOnce() = 0;
  /// One timed pass of one leg; its rate goes to out->ops_per_s[leg].
  virtual void RunPass(Leg leg, int pass, Report* report, Measured* out) = 0;
  const Inputs& inputs() const { return inputs_; }

 protected:
  Inputs inputs_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// Open-loop request generator: issues `query` every `period_us` on its
/// own thread, times each request from when it was due, and keeps going
/// until Stop(). Requests that come due during a slow one are sent
/// back-to-back as soon as it returns; those still unsent at Stop() are
/// recorded as waiting until then, so a stall cannot hide requests.
class OpenLoopQueries {
 public:
  OpenLoopQueries(std::function<bool()> query, double period_us,
                  const char* span_name, int64_t parent_span);
  ~OpenLoopQueries();
  OpenLoopQueries(const OpenLoopQueries&) = delete;
  OpenLoopQueries& operator=(const OpenLoopQueries&) = delete;

  /// Stops the generator and returns its samples (once).
  LatencySample Stop();

 private:
  void Loop();

  std::function<bool()> query_;
  double period_us_;
  const char* span_name_;
  int64_t parent_span_;
  LatencySample sample_;
  std::atomic<bool> stop_{false};
  std::atomic<Clock::rep> stop_at_{0};  // when Stop() was called
  std::thread thread_;  // last: started after every member it reads
};

/// Engine worker threads for the in-process build (the producer is the
/// calling thread) and the serve layout (pushers, and one query session
/// in the traced run). The served engine runs with the server defaults
/// (`mcf0::net::ServerOptions{}`, as `mcf0 serve` does).
int BuildShards(const Context& ctx);
int ServeShards(const Context& ctx);
int ServePushers(const Context& ctx);

/// The served round's open-loop QueryEstimate session (traced run): 500
/// queries/s; p99 is published once 1100 samples leave ten beyond it.
inline constexpr double kQueryPeriodUs = 2000.0;
inline constexpr size_t kMinQuerySamples = 1100;

/// Outcome of one served round.
struct ServeRoundResult {
  double seconds = 0.0;          // first push to last close (acked)
  uint64_t items_acked = 0;
  uint64_t push_calls = 0;
  uint64_t push_failures = 0;
  std::vector<double> push_call_us;
  LatencySample queries;
  std::vector<double> snapshot_us;  // direct SnapshotEstimate probes
  std::string final_sketch;
};

/// Serves one leg's input through an in-process SketchServer on
/// loopback: ServePushers() closed-loop sessions split the input. With
/// `observe`, one more session runs open-loop QueryEstimate and a thread
/// times SnapshotEstimate on the engine directly.
ServeRoundResult ServeRound(const Context& ctx, const Inputs& in, Leg leg,
                            bool observe, int64_t parent_span,
                            uint64_t round_id);

/// The per-layer ladder of the traced run; adds every per-layer metric.
void RunLadder(const Context& ctx, const Inputs& in, Report* report);

}  // namespace perfbench
