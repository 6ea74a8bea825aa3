/// \file trace.hpp
/// \brief Lightweight scoped-span tracer: MCF0_TRACE_SPAN(name).
///
/// Each thread owns a fixed-capacity ring buffer of completed spans;
/// a span records its (static) name, start time relative to process
/// start, duration in microseconds, and a small per-thread id. Rings
/// outlive their threads so DrainSpansJson() can collect what exited
/// threads traced; a thread that starts later adopts an exited thread's
/// ring (with a fresh id) and overwrites its oldest undrained spans as
/// the ring wraps, so memory is bounded by the most threads traced at
/// once. Recording takes the owning ring's (uncontended
/// except during a drain) mutex — spans are for coarse phases, not
/// per-item hot loops; the lock-free budget belongs to metrics.hpp.
///
/// The name must be a string literal (or otherwise outlive the
/// process): the ring stores the pointer, not a copy.
#pragma once

#include <cstdint>
#include <string>

namespace mcf0 {
namespace obs {

/// Spans a thread's ring can hold before the oldest are overwritten.
inline constexpr int kSpanRingCapacity = 256;

/// A completed span as drained from a ring.
struct Span {
  const char* name = nullptr;
  uint64_t start_us = 0;  ///< Relative to process start (steady clock).
  uint64_t dur_us = 0;
  uint32_t tid = 0;  ///< Small id assigned per traced thread.
};

namespace internal {
void RecordSpan(const char* name, uint64_t start_us, uint64_t dur_us);
}  // namespace internal

/// RAII span: times its scope and records on destruction. Disabled
/// (runtime switch or MCF0_OBS_DISABLED) spans cost one relaxed load.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t start_us_ = 0;
};

/// Total spans overwritten before being drained (process-wide).
uint64_t SpansDropped();

/// Empties every ring (including rings of exited threads) and returns
/// the spans as a JSON array sorted by start time:
/// [{"name":"engine.absorb_batch","t_us":12,"dur_us":34,"tid":1},...]
std::string DrainSpansJson();

}  // namespace obs
}  // namespace mcf0

#define MCF0_OBS_SPAN_CONCAT2(a, b) a##b
#define MCF0_OBS_SPAN_CONCAT(a, b) MCF0_OBS_SPAN_CONCAT2(a, b)

#if !defined(MCF0_OBS_DISABLED)
#define MCF0_TRACE_SPAN(name)                                       \
  ::mcf0::obs::ScopedSpan MCF0_OBS_SPAN_CONCAT(mcf0_trace_span_,    \
                                               __LINE__)(name)
#else
#define MCF0_TRACE_SPAN(name) \
  do {                        \
  } while (false)
#endif
