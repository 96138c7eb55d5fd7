// Outside-in instrumentation for the end-to-end benchmark, built only on
// the simulator's public API:
//
//   g_allocs     — heap allocations seen by the counting operator new
//                  that main.cc installs for the whole binary.
//   Spans        — a nesting stack of timed layer spans; a span's self
//                  time (and self allocations) excludes its children.
//   Oracle       — per-key model of acknowledged stores; judges every
//                  read result and keeps the live application bytes.
//   ProbeStack   — a harness::KvStack that forwards every call to the
//                  real bed, feeds the oracle, records per-op simulated
//                  latency, and (when spans are on) times issue calls and
//                  completion callbacks.
//   TimedSource  — a wl::OpSource that times the wrapped generator.
//
// The benchmark is single-threaded: the beds, the oracle and the spans
// all live on the thread that runs the event loop.
#pragma once

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "harness/stack_iface.h"
#include "workload/workload.h"

namespace e2e {

using namespace kvsim;  // NOLINT: benchmark code reads better unqualified

// --- allocation counter ------------------------------------------------------

/// Allocations made through the global operator new (main.cc). Relaxed
/// load + store, not a read-modify-write: the program has one thread, so
/// the increment needs no lock prefix, and the atomic keeps it defined.
inline std::atomic<u64> g_allocs{0};

inline u64 allocs_now() { return g_allocs.load(std::memory_order_relaxed); }

// --- layer spans -------------------------------------------------------------

/// Layers the benchmark can see from outside the program. `kIssue` is the
/// host store entry point (kvapi, lsm or hashkv, by bed); `kBench` is the
/// benchmark's own bookkeeping (oracle, latency samples, span frames);
/// `kRef` is the host-speed reference slices (host_speed.h), which are no
/// part of the simulator's cost.
enum Layer : u32 { kWorkload, kHarness, kIssue, kBench, kRef, kNumLayers };

inline i64 clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Self time and self allocations per layer. enter() opens a frame,
/// exit(layer) closes the innermost one and charges its duration, minus
/// the durations of the frames nested inside it, to `layer`.
class Spans {
 public:
  Spans() { stack_.reserve(64); }
  Spans(const Spans&) = delete;  // wrappers hold its address
  Spans& operator=(const Spans&) = delete;

  void enter() { stack_.push_back(Frame{clock_ns(), allocs_now(), 0, 0}); }

  void exit(Layer layer) {
    const i64 t = clock_ns();
    const u64 a = allocs_now();
    const Frame f = stack_.back();
    stack_.pop_back();
    const i64 dur = t - f.t0;
    const u64 allocs = a - f.a0;
    self_ns_[layer] += dur - f.child_ns;
    self_allocs_[layer] += allocs - f.child_allocs;
    if (!stack_.empty()) {
      stack_.back().child_ns += dur;
      stack_.back().child_allocs += allocs;
    }
  }

  [[nodiscard]] bool idle() const { return stack_.empty(); }
  [[nodiscard]] i64 self_ns(Layer l) const { return self_ns_[l]; }
  [[nodiscard]] u64 self_allocs(Layer l) const { return self_allocs_[l]; }

 private:
  struct Frame {
    i64 t0;
    u64 a0;
    i64 child_ns;
    u64 child_allocs;
  };
  std::vector<Frame> stack_;
  i64 self_ns_[kNumLayers] = {};
  u64 self_allocs_[kNumLayers] = {};
};

/// RAII frame: enter on construction, exit to `layer` on destruction; a
/// null Spans makes it a no-op (the untraced run).
class Span {
 public:
  Span(Spans* s, Layer layer) : s_(s), layer_(layer) {
    if (s_) s_->enter();
  }
  ~Span() {
    if (s_) s_->exit(layer_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans* s_;
  Layer layer_;
};

// --- read oracle -------------------------------------------------------------

/// Key id of a workload key (wl::make_key: 'k' + zero-padded decimal).
inline u64 key_id_of(std::string_view key) {
  u64 id = 0;
  const char* end = key.data() + key.size();
  if (key.size() < 2 || key[0] != 'k')
    throw std::invalid_argument("not a workload key: " + std::string(key));
  const auto r = std::from_chars(key.data() + 1, end, id);
  if (r.ec != std::errc() || r.ptr != end)
    throw std::invalid_argument("not a workload key: " + std::string(key));
  return id;
}

/// Per-key register model with real-time ordering. A store's value is
/// current from its acknowledgement until a store issued after that
/// acknowledgement is itself acknowledged. Stores that overlap in time may
/// take effect in either order, so a key can have several current values.
/// A read is correct when it returns OK with a value that was current
/// when it was issued, or with the value of a store that overlapped it
/// (in flight at its issue, or issued and acknowledged while it was
/// outstanding). A NotFound is correct only for a key never stored.
/// Everything else is a failed op.
class Oracle {
 public:
  Oracle(u64 keys, u32 key_bytes) : keys_(keys), key_bytes_(key_bytes) {}
  Oracle(const Oracle&) = delete;  // ProbeStack holds its address
  Oracle& operator=(const Oracle&) = delete;

  /// What a read must remember from its issue time.
  struct Ticket {
    u64 ack_seq = 0;  ///< the key's acknowledgement count at issue
    bool live = false;
    ValueDesc last;   ///< the value acknowledged last before issue
    /// Other values still current at issue. Empty unless stores to the
    /// key overlapped, so the common read allocates nothing.
    std::vector<ValueDesc> older;
  };

  void on_store_issue(u64 id, ValueDesc v, TimeNs now) {
    check_id(id);
    pending_.push_back(Pending{id, v, now});
  }

  /// Returns false for a failed store (non-OK status).
  bool on_store_done(u64 id, ValueDesc v, Status s, TimeNs now) {
    TimeNs issued = now;
    for (Pending& p : pending_) {
      if (p.id != id || p.value != v) continue;
      issued = p.issued;
      p = pending_.back();
      pending_.pop_back();
      break;
    }
    if (s != Status::kOk) return false;
    KeyState& k = keys_[id];
    if (k.live) {
      // Values acknowledged before this store was issued are superseded;
      // the ones acknowledged after it overlap it and stay current.
      std::vector<Current> keep;
      if (const auto o = older_.find(id); o != older_.end()) {
        for (const Current& c : o->second)
          if (c.acked >= issued) keep.push_back(c);
        older_.erase(o);
      }
      if (k.acked >= issued) keep.push_back(Current{k.value, k.acked});
      if (!keep.empty()) older_.emplace(id, std::move(keep));
      live_bytes_ -= k.value.size;
    } else {
      live_bytes_ += key_bytes_;
    }
    live_bytes_ += v.size;
    k.live = true;
    k.value = v;
    k.acked = now;
    ++k.ack_seq;
    if (k.open_reads > 0) history_[id].push_back(Acked{k.ack_seq, v});
    return true;
  }

  Ticket on_read_issue(u64 id) {
    check_id(id);
    KeyState& k = keys_[id];
    ++k.open_reads;
    Ticket t;
    t.ack_seq = k.ack_seq;
    t.live = k.live;
    t.last = k.value;
    if (const auto o = older_.find(id); o != older_.end())
      for (const Current& c : o->second) t.older.push_back(c.value);
    return t;
  }

  /// Returns false for a failed read.
  bool on_read_done(u64 id, const Ticket& t, Status s, ValueDesc got) {
    KeyState& k = keys_[id];
    bool good = false;
    if (s == Status::kNotFound) {
      good = !t.live;
    } else if (s == Status::kOk) {
      good = t.live && got == t.last;
      for (const ValueDesc& v : t.older) good = good || got == v;
      for (const Pending& p : pending_)
        good = good || (p.id == id && p.value == got);
      if (const auto h = history_.find(id); !good && h != history_.end())
        for (const Acked& a : h->second)
          good = good || (a.seq > t.ack_seq && a.value == got);
    }
    if (--k.open_reads == 0) history_.erase(id);
    if (!good && first_failure_.empty())
      first_failure_ = "read of key " + std::to_string(id) + " returned " +
                       to_string(s) + " size " + std::to_string(got.size) +
                       " fp " + std::to_string(got.fingerprint) + " (" +
                       std::to_string(t.live ? 1 + t.older.size() : 0) +
                       " values current at issue)";
    return good;
  }

  /// Description of the first wrong read (empty when none).
  [[nodiscard]] const std::string& first_failure() const {
    return first_failure_;
  }

  /// Key + value bytes of every live key. Values of overlapping stores
  /// to one key count at the size of the one acknowledged last (the
  /// benchmark's values all have one size, so this is exact there).
  [[nodiscard]] u64 live_bytes() const { return live_bytes_; }

 private:
  struct KeyState {
    ValueDesc value;   ///< the value acknowledged last
    TimeNs acked = 0;  ///< when it was acknowledged
    u64 ack_seq = 0;
    u32 open_reads = 0;
    bool live = false;
  };
  struct Pending {
    u64 id;
    ValueDesc value;
    TimeNs issued;
  };
  struct Current {
    ValueDesc value;
    TimeNs acked;
  };
  struct Acked {
    u64 seq;
    ValueDesc value;
  };

  void check_id(u64 id) const {
    if (id >= keys_.size())
      throw std::out_of_range("key id beyond the oracle's key space");
  }

  std::vector<KeyState> keys_;
  u32 key_bytes_;
  u64 live_bytes_ = 0;
  std::string first_failure_;
  /// Stores issued and not yet acknowledged (at most the queue depth).
  std::vector<Pending> pending_;
  /// Keys with more than one current value: the ones besides KeyState's.
  std::unordered_map<u64, std::vector<Current>> older_;
  /// Values acknowledged while a read of the key was outstanding.
  std::unordered_map<u64, std::vector<Acked>> history_;
};

// --- the bed wrapper ---------------------------------------------------------

/// Measured-phase op accounting kept by ProbeStack.
struct OpCounts {
  u64 attempted = 0;
  u64 ok = 0;
  u64 failed = 0;
  u64 stored_bytes = 0;  ///< key + value bytes of acknowledged stores
};

/// Forwards to `inner`, checks every result against the oracle, and
/// records simulated latency while `record` is set. Per-op context lives
/// in a recycled slot table, so the wrapped callbacks capture only
/// (this, slot) and stay inside sim::Fn's inline buffer.
class ProbeStack final : public harness::KvStack {
 public:
  ProbeStack(harness::KvStack& inner, Oracle& oracle, u32 key_bytes)
      : inner_(inner), oracle_(oracle), key_bytes_(key_bytes) {}
  ProbeStack(const ProbeStack&) = delete;  // pending callbacks hold `this`
  ProbeStack& operator=(const ProbeStack&) = delete;

  /// Spans for the traced run (null = untraced).
  void set_spans(Spans* s) { spans_ = s; }
  /// Start counting ops and recording latency (the measured phase).
  void set_recording(bool on) { recording_ = on; }

  [[nodiscard]] const OpCounts& counts() const { return counts_; }
  /// Ops of any phase that failed (setup failures fail the run too).
  [[nodiscard]] u64 failures_any_phase() const { return failures_; }
  std::vector<u32>& read_lat_ns() { return read_lat_; }
  std::vector<u32>& update_lat_ns() { return update_lat_; }

  void store(std::string_view key, ValueDesc v, StoreDone done) override {
    store_as(harness::TenantCtx{}, key, v, std::move(done));
  }
  void retrieve(std::string_view key, RetrieveDone done) override {
    retrieve_as(harness::TenantCtx{}, key, std::move(done));
  }
  void remove(std::string_view key, RemoveDone done) override {
    remove_as(harness::TenantCtx{}, key, std::move(done));
  }

  void store_as(const harness::TenantCtx& t, std::string_view key,
                ValueDesc v, StoreDone done) override {
    Span bench(spans_, kBench);
    const u64 id = key_id_of(key);
    oracle_.on_store_issue(id, v, inner_.eq().now());
    const u32 slot = open(id);
    ctx_[slot].value = v;
    ctx_[slot].store_done = std::move(done);
    Span issue(spans_, kIssue);
    inner_.store_as(t, key, v, [this, slot](Status s) { store_done(slot, s); });
  }

  void retrieve_as(const harness::TenantCtx& t, std::string_view key,
                   RetrieveDone done) override {
    Span bench(spans_, kBench);
    const u64 id = key_id_of(key);
    const u32 slot = open(id);
    ctx_[slot].ticket = oracle_.on_read_issue(id);
    ctx_[slot].read_done = std::move(done);
    Span issue(spans_, kIssue);
    inner_.retrieve_as(t, key, [this, slot](Status s, ValueDesc v) {
      read_done(slot, s, v);
    });
  }

  /// The benchmark's workloads issue no deletes; the oracle models none.
  void remove_as(const harness::TenantCtx&, std::string_view,
                 RemoveDone) override {
    throw std::logic_error("the benchmark's workloads issue no deletes");
  }

  // --- everything else forwards -------------------------------------------
  [[nodiscard]] const nvme::NvmeLink* nvme_link() const override {
    return inner_.nvme_link();
  }
  void drain(sim::Task done) override { inner_.drain(std::move(done)); }
  sim::EventQueue& eq() override { return inner_.eq(); }
  [[nodiscard]] u64 host_cpu_ns() const override {
    return inner_.host_cpu_ns();
  }
  [[nodiscard]] u64 device_bytes_used() const override {
    return inner_.device_bytes_used();
  }
  [[nodiscard]] u64 app_bytes_live() const override {
    return inner_.app_bytes_live();
  }
  void add_app_bytes(i64 delta) override { inner_.add_app_bytes(delta); }
  [[nodiscard]] const char* name() const override { return inner_.name(); }
  [[nodiscard]] const ssd::FtlStats* ftl_stats() const override {
    return inner_.ftl_stats();
  }
  [[nodiscard]] const flash::FlashController* flash_ctrl() const override {
    return inner_.flash_ctrl();
  }
  [[nodiscard]] u64 buffer_stall_events() const override {
    return inner_.buffer_stall_events();
  }
  void apply_fault_plan(const ssd::FaultPlan& plan) override {
    inner_.apply_fault_plan(plan);
  }
  [[nodiscard]] const ssd::FaultInjector* fault_injector() const override {
    return inner_.fault_injector();
  }
  [[nodiscard]] u64 host_retries() const override {
    return inner_.host_retries();
  }
  [[nodiscard]] u64 inflight_host_ops() const override {
    return inner_.inflight_host_ops();
  }

 private:
  struct OpCtx {
    u64 id = 0;
    TimeNs issued = 0;
    ValueDesc value;
    Oracle::Ticket ticket;
    StoreDone store_done;
    RetrieveDone read_done;
  };

  u32 open(u64 id) {
    u32 slot;
    if (free_.empty()) {
      slot = (u32)ctx_.size();
      ctx_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    ctx_[slot].id = id;
    ctx_[slot].issued = inner_.eq().now();
    if (recording_) ++counts_.attempted;
    return slot;
  }

  /// Count the outcome and return the op's simulated latency.
  TimeNs close(u32 slot, bool good) {
    free_.push_back(slot);
    if (!good) ++failures_;
    if (recording_) ++(good ? counts_.ok : counts_.failed);
    return inner_.eq().now() - ctx_[slot].issued;
  }

  void store_done(u32 slot, Status s) {
    Span bench(spans_, kBench);
    OpCtx& c = ctx_[slot];
    const bool good =
        oracle_.on_store_done(c.id, c.value, s, inner_.eq().now());
    if (good && recording_) counts_.stored_bytes += key_bytes_ + c.value.size;
    const TimeNs lat = close(slot, good);
    if (recording_) update_lat_.push_back((u32)std::min<TimeNs>(lat, ~0u));
    StoreDone done = std::move(c.store_done);
    Span harness(spans_, kHarness);
    done(s);
  }

  void read_done(u32 slot, Status s, ValueDesc v) {
    Span bench(spans_, kBench);
    OpCtx& c = ctx_[slot];
    const bool good = oracle_.on_read_done(c.id, c.ticket, s, v);
    const TimeNs lat = close(slot, good);
    if (recording_) read_lat_.push_back((u32)std::min<TimeNs>(lat, ~0u));
    RetrieveDone done = std::move(c.read_done);
    Span harness(spans_, kHarness);
    done(s, v);
  }

  harness::KvStack& inner_;
  Oracle& oracle_;
  u32 key_bytes_;
  Spans* spans_ = nullptr;
  bool recording_ = false;
  OpCounts counts_;
  u64 failures_ = 0;
  std::vector<OpCtx> ctx_;
  std::vector<u32> free_;
  std::vector<u32> read_lat_, update_lat_;
};

// --- the op-source wrapper ---------------------------------------------------

/// Times the wrapped generator's next() as the `workload` layer.
class TimedSource final : public wl::OpSource {
 public:
  TimedSource(std::unique_ptr<wl::OpSource> inner, Spans& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  bool next(wl::Op& out) override {
    Span s(&spans_, kWorkload);
    return inner_->next(out);
  }
  [[nodiscard]] u64 generated() const override { return inner_->generated(); }
  void reset(u64 seed) override { inner_->reset(seed); }

 private:
  std::unique_ptr<wl::OpSource> inner_;
  Spans& spans_;
};

}  // namespace e2e
