// Frozen reference loop: the host-speed yardstick of the benchmark.
//
// Host-time metrics of in-process work are divided by how fast this loop
// runs on the same host at the same moment. It has the shape of the
// simulator's original kernel — a binary heap of std::function events
// (each closure too large for std::function's inline buffer, so every
// event allocates) plus a hash-map counter bumped per event — so it feels
// the same cache, allocator and frequency effects as the code under test.
//
// It depends on nothing but the standard library, and it must never be
// edited: a change here rescales every normalised number the benchmark
// has ever reported.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

namespace perfbench {

class ReferenceLoop {
 public:
  ReferenceLoop();

  /// Runs `ops` pop-invoke-push cycles; returns millions of cycles per
  /// wall-clock second.
  double slice_mops(std::uint64_t ops);

 private:
  struct Event {
    std::int64_t time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  void push(std::int64_t time);
  std::uint64_t next_random();

  std::vector<Event> heap_;
  std::unordered_map<std::uint32_t, std::uint64_t> counts_;
  std::int64_t now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;
  std::uint64_t checksum_ = 0;  // written by every event, so no work is elided
};

}  // namespace perfbench
