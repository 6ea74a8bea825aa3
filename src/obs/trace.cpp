#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"

namespace mcf0 {
namespace obs {

namespace {

uint64_t ProcessNowUs() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

struct SpanRing {
  std::mutex mu;
  std::array<Span, kSpanRingCapacity> slots;
  // Monotone write index; size() = min(written, capacity).
  uint64_t written = 0;
  uint64_t dropped = 0;
  uint32_t tid = 0;
};

struct RingDirectory {
  std::mutex mu;
  std::vector<std::shared_ptr<SpanRing>> rings;
  uint32_t next_tid = 1;
};

RingDirectory& Directory() {
  static RingDirectory* dir = new RingDirectory();
  return *dir;
}

SpanRing& ThreadRing() {
  thread_local std::shared_ptr<SpanRing> ring = [] {
    RingDirectory& dir = Directory();
    std::lock_guard<std::mutex> lock(dir.mu);
    // A ring owned by the directory alone belongs to an exited thread
    // (owners are only added under dir.mu). Adopting it bounds the
    // directory by the most threads ever traced at once rather than by
    // every thread ever started — engines start workers per instance.
    for (const std::shared_ptr<SpanRing>& orphan : dir.rings) {
      if (orphan.use_count() == 1) {
        std::lock_guard<std::mutex> ring_lock(orphan->mu);
        orphan->tid = dir.next_tid++;
        return orphan;
      }
    }
    auto fresh = std::make_shared<SpanRing>();
    fresh->tid = dir.next_tid++;
    dir.rings.push_back(fresh);
    return fresh;
  }();
  return *ring;
}

}  // namespace

namespace internal {

void RecordSpan(const char* name, uint64_t start_us, uint64_t dur_us) {
  SpanRing& ring = ThreadRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  Span& slot = ring.slots[ring.written % kSpanRingCapacity];
  if (ring.written >= static_cast<uint64_t>(kSpanRingCapacity)) {
    ++ring.dropped;
  }
  slot.name = name;
  slot.start_us = start_us;
  slot.dur_us = dur_us;
  slot.tid = ring.tid;
  ++ring.written;
}

}  // namespace internal

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
#if !defined(MCF0_OBS_DISABLED)
  if (!Enabled()) {
    name_ = nullptr;
    return;
  }
  start_us_ = ProcessNowUs();
#else
  name_ = nullptr;
#endif
}

ScopedSpan::~ScopedSpan() {
  if (name_ == nullptr) return;
  const uint64_t now = ProcessNowUs();
  internal::RecordSpan(name_, start_us_,
                       now >= start_us_ ? now - start_us_ : 0);
}

uint64_t SpansDropped() {
  RingDirectory& dir = Directory();
  std::lock_guard<std::mutex> dir_lock(dir.mu);
  uint64_t total = 0;
  for (const auto& ring : dir.rings) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    total += ring->dropped;
  }
  return total;
}

std::string DrainSpansJson() {
  std::vector<Span> spans;
  {
    RingDirectory& dir = Directory();
    std::lock_guard<std::mutex> dir_lock(dir.mu);
    for (const auto& ring : dir.rings) {
      std::lock_guard<std::mutex> ring_lock(ring->mu);
      const uint64_t count =
          std::min<uint64_t>(ring->written, kSpanRingCapacity);
      const uint64_t begin = ring->written - count;
      for (uint64_t i = 0; i < count; ++i) {
        spans.push_back(ring->slots[(begin + i) % kSpanRingCapacity]);
      }
      ring->written = 0;
    }
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.tid < b.tid;
  });
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out += ",";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"t_us\":%" PRIu64 ",\"dur_us\":%" PRIu64
                  ",\"tid\":%u}",
                  spans[i].name != nullptr ? spans[i].name : "",
                  spans[i].start_us, spans[i].dur_us, spans[i].tid);
    out += buf;
  }
  out += "]";
  return out;
}

}  // namespace obs
}  // namespace mcf0
