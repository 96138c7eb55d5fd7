// Host-speed calibration for the end-to-end benchmark.
//
// On a shared machine the speed of one core drifts by up to 2x within
// seconds (clock and cache contention from neighbours), so raw CPU time
// per op moves with the host, not with the program. HostSpeed runs short
// slices of a fixed reference workload interleaved with the simulator
// (SlicedSource fires one every N ops) and turns the CPU time the
// simulator took into reference seconds: the time it would have taken had
// the host run at the reference's nominal speed throughout.
//
// The reference uses only the standard library, never `../src`, so a
// change to the simulator cannot move it. Its data fits in the per-core
// L2 cache and is swept back in, untimed, before each timed slice, so what
// the simulator left in the caches does not move it either.
#pragma once

#include <algorithm>
#include <ctime>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "probe.h"

namespace e2e {

inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

/// The reference workload has the same character as the simulator: a
/// binary heap of timestamps, a hash map, small heap allocations and
/// scattered table reads. Its state persists across slices, so every
/// slice does the same work.
class HostSpeed {
 public:
  /// Timed reference iterations per slice (4-6 ms).
  static constexpr u64 kSliceIters = 32'768;
  /// CPU time of one iteration at nominal speed, about the fastest seen
  /// on a 4-core Xeon (Emerald Rapids) cloud VM.
  static constexpr double kNominalNsPerIter = 128.0;

  HostSpeed() : table_(kTableWords), objs_(kObjs) {
    u64 x = 1;
    for (u64& v : table_)
      v = x = x * 6364136223846793005ull + 1442695040888963407ull;
    map_.reserve(kMapKeys);
    heap_.reserve(kHeap + 1);
    slice();  // the first slice fills the map and the heap: keep it untallied
    clear();
  }
  HostSpeed(const HostSpeed&) = delete;  // SlicedSource holds its address
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Sweeps the reference data into the cache, then runs one timed slice.
  /// Both add to the CPU time tallied; only the timed part sets the speed.
  void slice() {
    const double t0 = cpu_seconds();
    u64 touch = 0;
    for (u64 v : table_) touch += v;
    for (const auto& [k, v] : map_) touch += v;
    for (u64 v : heap_) touch += v;
    for (const auto& o : objs_) touch += o ? o[0] : 0;
    sum_ += touch & 1;
    const double t1 = cpu_seconds();
    for (u64 i = 0; i < kSliceIters; ++i) {
      x_ ^= x_ << 13, x_ ^= x_ >> 7, x_ ^= x_ << 17;
      sum_ += table_[x_ % kTableWords] + table_[(x_ >> 24) % kTableWords];
      heap_.push_back(now_ + (x_ & 0xffff));
      std::push_heap(heap_.begin(), heap_.end(), std::greater<u64>());
      if (heap_.size() > kHeap) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<u64>());
        now_ = heap_.back();
        heap_.pop_back();
      }
      map_[x_ % kMapKeys] += sum_;
      std::unique_ptr<u64[]>& o = objs_[x_ % kObjs];
      o = std::make_unique<u64[]>(4 + (x_ >> 60));
      o[0] = sum_;
    }
    const double t2 = cpu_seconds();
    cpu_s_ += t2 - t0;
    timed_cpu_s_ += t2 - t1;
    ++slices_;
  }

  /// Starts a new tally (the reference workload's state persists).
  void clear() { cpu_s_ = timed_cpu_s_ = 0, slices_ = 0; }

  /// CPU seconds of the tallied slices, sweeps included.
  [[nodiscard]] double cpu_s() const { return cpu_s_; }

  /// CPU time of the tallied slices over their time at nominal speed:
  /// 1.3 means the host ran 30% slower than nominal.
  [[nodiscard]] double slowdown() const {
    if (slices_ == 0) return 1.0;
    return timed_cpu_s_ /
           ((double)(slices_ * kSliceIters) * kNominalNsPerIter * 1e-9);
  }

  /// `cpu_s` of simulator CPU time in reference seconds.
  [[nodiscard]] double to_ref_s(double cpu_s) const {
    return cpu_s / slowdown();
  }

 private:
  static constexpr size_t kTableWords = 1u << 15;  // 256 KiB
  static constexpr u64 kMapKeys = 1u << 12;
  static constexpr size_t kHeap = 1024;
  static constexpr size_t kObjs = 1024;

  std::vector<u64> table_;
  std::vector<u64> heap_;  ///< min-heap of timestamps
  std::unordered_map<u64, u64> map_;
  std::vector<std::unique_ptr<u64[]>> objs_;
  u64 x_ = 0x9e3779b97f4a7c15ull, sum_ = 0, now_ = 0;
  double cpu_s_ = 0, timed_cpu_s_ = 0;
  u64 slices_ = 0;
};

/// A wl::OpSource that runs one HostSpeed slice before every `every`-th
/// op it hands out (the first included). With spans on, the slice is a
/// span of its own (kRef), so no layer is charged for it.
class SlicedSource final : public wl::OpSource {
 public:
  SlicedSource(std::unique_ptr<wl::OpSource> inner, HostSpeed& speed,
               u64 every, Spans* spans)
      : inner_(std::move(inner)), speed_(speed), every_(every), spans_(spans) {}

  bool next(wl::Op& out) override {
    if (calls_++ % every_ == 0) {
      Span s(spans_, kRef);
      speed_.slice();
    }
    return inner_->next(out);
  }
  [[nodiscard]] u64 generated() const override { return inner_->generated(); }
  void reset(u64 seed) override { inner_->reset(seed); }

 private:
  std::unique_ptr<wl::OpSource> inner_;
  HostSpeed& speed_;
  u64 every_;
  Spans* spans_;
  u64 calls_ = 0;
};

}  // namespace e2e
