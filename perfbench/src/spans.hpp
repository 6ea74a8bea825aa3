// The benchmark's span recorder. Spans are recorded from the benchmark's
// own code around its calls into each layer, kept in memory, and written
// out once when the run ends. Each span has a name ("<layer>.<what>"),
// start and end, the id of the span that caused it and a request id that
// the spans of one request share.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  int64_t parent = -1;  // index into the recorder's spans; -1 for a root
  uint64_t request_id = 0;
  Clock::time_point start;
  Clock::time_point end;
};

class SpanRecorder {
 public:
  static SpanRecorder& Global() {
    static SpanRecorder recorder;
    return recorder;
  }

  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id, or -1 when tracing is off.
  int64_t Begin(const char* name, int64_t parent, uint64_t request_id) {
    if (!enabled_) return -1;
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(SpanRecord{name, parent, request_id, now, now});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void End(int64_t id) {
    if (id < 0) return;
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = now;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Self time per layer, in milliseconds: each span's duration minus the
  /// part of its interval that its children cover, summed by the layer
  /// prefix of the span name (the text before the first '.'). Only spans
  /// whose root span (the span itself, if it has no parent) is named in
  /// `roots` count.
  std::map<std::string, double> SelfMillisByLayer(
      const std::set<std::string>& roots) const;

  /// Writes every span as one JSON object per line; false on I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span on the global recorder.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, int64_t parent = -1, uint64_t request_id = 0)
      : id_(SpanRecorder::Global().Begin(name, parent, request_id)) {}
  ~ScopedSpan() { SpanRecorder::Global().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  int64_t id_;
};

}  // namespace perfbench
