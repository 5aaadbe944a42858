#include "reference_loop.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {

constexpr std::size_t kDepth = 4096;   // pending events, like a busy grid
constexpr std::uint32_t kKeys = 512;   // counter keys, like protocol ids

bool later(const auto& a, const auto& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.seq > b.seq;
}

}  // namespace

ReferenceLoop::ReferenceLoop() {
  heap_.reserve(kDepth + 1);
  for (std::size_t i = 0; i < kDepth; ++i)
    push(std::int64_t(next_random() % 1'000'000));
}

std::uint64_t ReferenceLoop::next_random() {
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_;
}

void ReferenceLoop::push(std::int64_t time) {
  // 48 bytes of capture: past std::function's small-object buffer.
  struct Payload {
    ReferenceLoop* self;
    std::uint64_t words[5];
  };
  const std::uint64_t r = next_random();
  const Payload p{this, {r, r >> 8, r >> 16, r >> 24, r >> 32}};
  heap_.push_back(Event{time, seq_++, [p] {
                          ReferenceLoop& s = *p.self;
                          s.counts_[std::uint32_t(p.words[0] % kKeys)] +=
                              p.words[1] & 1;
                          s.checksum_ += p.words[2] ^ p.words[4];
                        }});
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const Event& a, const Event& b) { return later(a, b); });
}

double ReferenceLoop::slice_mops(std::uint64_t ops) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(),
                  [](const Event& a, const Event& b) { return later(a, b); });
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    now_ = ev.time;
    ev.fn();
    push(now_ + 1 + std::int64_t(next_random() % 10'000));
  }
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return double(ops) / s / 1e6;
}

}  // namespace perfbench
