// End-to-end simulator benchmark over the paper's three beds (KV-SSD,
// RocksDB-on-block-SSD, Aerospike-on-block-SSD). See README.md.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One run repeats "set up a fresh bed, then measure a fixed op stream"
// until --seconds have passed, cycling through the workload's op streams
// (derived from --seed) at least once. It reports host-side costs over
// the repetitions and simulated metrics pooled over the streams. With
// --trace 0 it prints the end-to-end metrics of untraced repetitions;
// with --trace 1 it alternates untraced and traced repetitions and
// prints the per-layer metrics. The last stdout line is
// one JSON object; the exit code is nonzero when any correctness or
// conservation check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "harness/stacks.h"
#include "host_speed.h"
#include "probe.h"

// --- counting global allocator ------------------------------------------------

namespace {

void* counted_alloc(std::size_t n) {
  e2e::g_allocs.store(e2e::allocs_now() + 1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  e2e::g_allocs.store(e2e::allocs_now() + 1, std::memory_order_relaxed);
  const std::size_t a = std::max<std::size_t>((std::size_t)al, sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, a, n ? n : 1) == 0) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace e2e {
namespace {

constexpr u32 kKeyBytes = 16;
constexpr u32 kValueBytes = 4 * KiB;
constexpr u32 kQueueDepth = 32;
/// p99.9 needs this many samples of an op type to leave ten beyond it.
constexpr u64 kMinSamples = 10'000;

// --- workloads ----------------------------------------------------------------

enum class BedKind { kKvssd, kLsm, kHashKv };

struct WorkloadDef {
  const char* name;
  BedKind bed;
  u32 device_gib;
  u64 keys;
  u64 index_dram_bytes;  ///< KV-FTL index DRAM (kvssd only)
  wl::Pattern pattern;
  double update;  ///< update share; the rest are reads
  u64 warm_ops;
  bool warm_updates_only;  ///< warm up with updates alone (reach GC sooner)
  u64 measure_ops;
  /// Op streams derived from --seed whose simulated metrics one run
  /// pools; repetitions cycle through them. Pooling independent streams
  /// keeps the tail metrics steady across seeds: the beds go through long
  /// GC and write-stall episodes, so one stream's p99.9 moves by 10-25%
  /// from seed to seed.
  size_t streams;
};

// Sizes and the reason for each are in README.md ("Workloads").
const WorkloadDef kWorkloads[] = {
    {"kvssd_zipf_mixed", BedKind::kKvssd, 2, 300'000, 8 * MiB,
     wl::Pattern::kZipfian, 0.3, 300'000, true, 300'000, 9},
    {"lsm_uniform_update", BedKind::kLsm, 4, 200'000, 0,
     wl::Pattern::kUniform, 0.8, 50'000, false, 100'000, 12},
    {"hashkv_uniform_mixed", BedKind::kHashKv, 2, 200'000, 0,
     wl::Pattern::kUniform, 0.5, 300'000, true, 300'000, 9},
};

const char* issue_layer(BedKind b) {
  switch (b) {
    case BedKind::kKvssd: return "kvapi";
    case BedKind::kLsm: return "lsm";
    case BedKind::kHashKv: return "hashkv";
  }
  return "?";
}

/// The paper's 3.84 TB PM983 scaled to `gib`: fewer blocks per plane, the
/// same channel / die / plane parallelism.
ssd::SsdConfig device_gib(u32 gib) {
  ssd::SsdConfig d = ssd::SsdConfig::standard_device();  // 16 GiB
  d.geometry.blocks_per_plane = 64 * gib / 16;
  return d;
}

struct Bed {
  std::unique_ptr<harness::KvStack> stack;
  harness::KvssdBed* kvssd = nullptr;
  harness::LsmBed* lsm = nullptr;
  harness::HashKvBed* hashkv = nullptr;

  [[nodiscard]] blockftl::BlockFtl* blockftl() const {
    if (lsm) return &lsm->ftl();
    if (hashkv) return &hashkv->ftl();
    return nullptr;
  }
};

Bed make_bed(const WorkloadDef& w) {
  Bed b;
  const ssd::SsdConfig dev = device_gib(w.device_gib);
  switch (w.bed) {
    case BedKind::kKvssd: {
      harness::KvssdBedConfig c;
      c.dev = dev;
      c.ftl.expected_keys_hint = w.keys;
      c.ftl.track_iterator_keys = false;
      c.ftl.index.dram_bytes = w.index_dram_bytes;
      auto bed = std::make_unique<harness::KvssdBed>(c);
      b.kvssd = bed.get();
      b.stack = std::move(bed);
      break;
    }
    case BedKind::kLsm: {
      harness::LsmBedConfig c;
      c.dev = dev;
      c.lsm.block_cache_bytes = 10 * MiB;  // the paper's 10 MB block cache
      auto bed = std::make_unique<harness::LsmBed>(c);
      b.lsm = bed.get();
      b.stack = std::move(bed);
      break;
    }
    case BedKind::kHashKv: {
      harness::HashKvBedConfig c;
      c.dev = dev;
      auto bed = std::make_unique<harness::HashKvBed>(c);
      b.hashkv = bed.get();
      b.stack = std::move(bed);
      break;
    }
  }
  return b;
}

/// Independent per-phase seeds from the run seed (splitmix64 finalizer).
u64 derive_seed(u64 seed, u64 phase) {
  u64 z = seed + phase * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

wl::WorkloadSpec mixed_spec(const WorkloadDef& w, u64 ops, u64 seed) {
  wl::WorkloadSpec s;
  s.num_ops = ops;
  s.key_space = w.keys;
  s.key_bytes = kKeyBytes;
  s.value_bytes = kValueBytes;
  s.pattern = w.pattern;
  s.zipf_theta = 0.99;
  s.mix = wl::OpMix{0.0, w.update, 1.0 - w.update, 0.0};
  s.queue_depth = kQueueDepth;
  s.seed = seed;
  return s;
}

// --- counters read from the public accessors ----------------------------------

struct Stage {
  u64 n = 0, sum = 0;
};

Stage stage(const LatencyHistogram& h) { return Stage{h.count(), h.sum()}; }

struct Snap {
  TimeNs now = 0;
  u64 events = 0;
  u64 host_cpu_ns = 0;
  u64 buffer_stalls = 0;
  nvme::NvmeQueueStats nvme;
  ssd::FtlStats ftl;
  flash::FlashStats flash;
  Stage read_die_wait, read_die_service, prog_die_wait, chan_wait;
  u64 die_busy_ns = 0;
  u64 dies = 1;
  // kvftl
  double index_hit_rate = 0;
  u64 index_splits = 0, waste_slots = 0, rcache_hits = 0;
  // blockftl
  u64 bcache_hits = 0, bcache_lookups = 0;
  // lsm / fs / hashkv
  u64 lsm_hits = 0, lsm_lookups = 0, compactions = 0, flushes = 0,
      write_stalls = 0, journal_writes = 0, defrags = 0;
};

Snap snap(const Bed& b) {
  Snap s;
  harness::KvStack& st = *b.stack;
  s.now = st.eq().now();
  s.events = st.eq().events_processed();
  s.host_cpu_ns = st.host_cpu_ns();
  s.buffer_stalls = st.buffer_stall_events();
  if (const nvme::NvmeLink* link = st.nvme_link()) {
    for (u32 q = 0; q < link->num_queues(); ++q) {
      const nvme::NvmeQueueStats x = link->queue_stats(q);
      s.nvme.submissions += x.submissions;
      s.nvme.commands += x.commands;
      s.nvme.queue_wait_ns += x.queue_wait_ns;
      s.nvme.service_ns += x.service_ns;
      s.nvme.sq_full_stalls += x.sq_full_stalls;
    }
  }
  if (const ssd::FtlStats* f = st.ftl_stats()) s.ftl = *f;
  if (const flash::FlashController* fc = st.flash_ctrl()) {
    s.flash = fc->stats();
    s.read_die_wait = stage(fc->read_stages().die_wait);
    s.read_die_service = stage(fc->read_stages().die_service);
    s.prog_die_wait = stage(fc->program_stages().die_wait);
    const Stage rc = stage(fc->read_stages().channel_wait);
    const Stage pc = stage(fc->program_stages().channel_wait);
    s.chan_wait = Stage{rc.n + pc.n, rc.sum + pc.sum};
    s.die_busy_ns = fc->total_die_busy_ns();
    s.dies = fc->num_dies();
  }
  if (b.kvssd) {
    kvftl::KvFtl& f = b.kvssd->ftl();
    s.index_hit_rate = f.index().hit_rate();
    s.index_splits = f.index().splits();
    s.waste_slots = f.padding_waste_slots();
    s.rcache_hits = f.read_cache_hits();
  }
  if (blockftl::BlockFtl* f = b.blockftl()) {
    s.bcache_hits = f->cache_hits();
    s.bcache_lookups = f->cache_lookups();
  }
  if (b.lsm) {
    const lsm::LsmStore& l = b.lsm->store();
    s.lsm_hits = l.block_cache_hits();
    s.lsm_lookups = l.block_cache_lookups();
    s.compactions = l.compactions_run();
    s.flushes = l.flushes_run();
    s.write_stalls = l.write_stall_events();
    s.journal_writes = b.lsm->fs().journal_writes();
  }
  if (b.hashkv) s.defrags = b.hashkv->store().defrags_run();
  return s;
}

// --- one repetition -------------------------------------------------------------

double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

/// Nearest-rank quantile of `v` at `permille`/1000 (reorders it).
u64 quantile(std::vector<u32>& v, u64 permille) {
  if (v.empty()) return 0;
  const size_t rank = (v.size() * permille + 999) / 1000 - 1;
  std::nth_element(v.begin(), v.begin() + (long)rank, v.end());
  return v[rank];
}

/// The simulated outcome of one measured phase, with every op's latency
/// in completion order. Deterministic for a given seed, so repetitions
/// and the traced run must reproduce it exactly.
struct SimRun {
  u64 ops = 0;
  TimeNs elapsed = 0;
  u64 events = 0;
  u64 flash_bytes = 0, stored_bytes = 0;
  u64 device_bytes = 0, live_bytes = 0;
  std::vector<u32> read_lat, update_lat;

  friend bool operator==(const SimRun&, const SimRun&) = default;
};

/// The first field in which two runs of one stream differ ("" if none).
std::string first_difference(const SimRun& a, const SimRun& b) {
  auto num = [](const char* f, u64 x, u64 y) {
    return std::string(f) + " " + std::to_string(x) + " vs " + std::to_string(y);
  };
  if (a.ops != b.ops) return num("ops", a.ops, b.ops);
  if (a.elapsed != b.elapsed) return num("elapsed ns", a.elapsed, b.elapsed);
  if (a.events != b.events) return num("events", a.events, b.events);
  if (a.flash_bytes != b.flash_bytes)
    return num("flash bytes", a.flash_bytes, b.flash_bytes);
  if (a.stored_bytes != b.stored_bytes)
    return num("stored bytes", a.stored_bytes, b.stored_bytes);
  if (a.device_bytes != b.device_bytes)
    return num("device bytes", a.device_bytes, b.device_bytes);
  if (a.live_bytes != b.live_bytes)
    return num("live bytes", a.live_bytes, b.live_bytes);
  for (auto v : {&SimRun::read_lat, &SimRun::update_lat}) {
    const std::vector<u32>& x = a.*v;
    const std::vector<u32>& y = b.*v;
    if (x.size() != y.size()) return num("latency samples", x.size(), y.size());
    for (size_t i = 0; i < x.size(); ++i)
      if (x[i] != y[i])
        return num(("latency #" + std::to_string(i)).c_str(), x[i], y[i]);
  }
  return "";
}

/// Host-side times are in reference seconds (host_speed.h) unless named
/// raw: process CPU seconds, less the reference slices' own.
struct RepResult {
  double setup_s = 0;
  double measure_cpu_s = 0;
  double measure_raw_cpu_s = 0;
  double slowdown = 1;  ///< host slowdown over the measured phase
  SimRun sim;
  OpCounts counts;
  std::map<std::string, double> layers;  ///< per-layer metrics (traced)
};

/// Failed checks; any entry makes the run incorrect.
std::vector<std::string> g_failures;

void check(bool ok, const std::string& what) {
  if (!ok) g_failures.push_back(what);
}

std::map<std::string, double> layer_metrics(const WorkloadDef& w,
                                            const Snap& a, const Snap& b,
                                            u64 ops) {
  std::map<std::string, double> m;
  const double n = (double)ops;
  const double kop = n / 1000.0;
  auto per_kop = [&](u64 x, u64 y) { return ratio((double)(y - x), kop); };
  auto mean_us = [](const Stage& x, const Stage& y) {
    return ratio((double)(y.sum - x.sum) / 1000.0, (double)(y.n - x.n));
  };
  const double events = (double)(b.events - a.events);
  m["sim.events_per_op"] = ratio(events, n);
  m["harness.sim_host_cpu_us_per_op"] =
      ratio((double)(b.host_cpu_ns - a.host_cpu_ns) / 1000.0, n);

  const double subs = (double)(b.nvme.submissions - a.nvme.submissions);
  m["nvme.cmds_per_op"] = ratio((double)(b.nvme.commands - a.nvme.commands), n);
  m["nvme.sq_wait_us_mean"] =
      ratio((double)(b.nvme.queue_wait_ns - a.nvme.queue_wait_ns) / 1000.0,
            subs);
  m["nvme.service_us_mean"] =
      ratio((double)(b.nvme.service_ns - a.nvme.service_ns) / 1000.0, subs);
  m["nvme.sq_full_stalls_per_kop"] =
      per_kop(a.nvme.sq_full_stalls, b.nvme.sq_full_stalls);

  const u64 gc = b.ftl.gc_runs - a.ftl.gc_runs;
  const double gc_fg =
      ratio((double)(b.ftl.gc_foreground_runs - a.ftl.gc_foreground_runs),
            (double)gc);
  const double waf =
      ratio((double)(b.ftl.flash_bytes_written - a.ftl.flash_bytes_written),
            (double)(b.ftl.host_bytes_written - a.ftl.host_bytes_written));
  const bool kv = w.bed == BedKind::kKvssd;
  m["kvftl.index_hit_rate"] = kv ? b.index_hit_rate : 0.0;
  m["kvftl.index_splits"] = (double)(b.index_splits - a.index_splits);
  m["kvftl.gc_runs_per_kop"] = kv ? ratio((double)gc, kop) : 0.0;
  m["kvftl.gc_fg_frac"] = kv ? gc_fg : 0.0;
  m["kvftl.waf"] = kv ? waf : 0.0;
  m["kvftl.padding_waste_frac"] = ratio(
      (double)((b.waste_slots - a.waste_slots) * kvftl::KvFtlConfig{}.slot_bytes),
      (double)(b.ftl.flash_bytes_written - a.ftl.flash_bytes_written));
  m["kvftl.read_cache_hit_rate"] =
      ratio((double)(b.rcache_hits - a.rcache_hits),
            (double)(b.ftl.host_read_ops - a.ftl.host_read_ops));
  m["blockftl.gc_runs_per_kop"] = kv ? 0.0 : ratio((double)gc, kop);
  m["blockftl.gc_fg_frac"] = kv ? 0.0 : gc_fg;
  m["blockftl.waf"] = kv ? 0.0 : waf;
  m["blockftl.rmw_per_kop"] = kv ? 0.0 : per_kop(a.ftl.rmw_ops, b.ftl.rmw_ops);
  m["blockftl.cache_hit_rate"] =
      ratio((double)(b.bcache_hits - a.bcache_hits),
            (double)(b.bcache_lookups - a.bcache_lookups));
  m["ssd.buffer_stalls_per_kop"] = per_kop(a.buffer_stalls, b.buffer_stalls);

  m["flash.reads_per_op"] =
      ratio((double)(b.flash.page_reads - a.flash.page_reads), n);
  m["flash.programs_per_op"] =
      ratio((double)(b.flash.page_programs - a.flash.page_programs), n);
  m["flash.erases_per_kop"] = per_kop(a.flash.block_erases, b.flash.block_erases);
  m["flash.read_die_wait_us_mean"] = mean_us(a.read_die_wait, b.read_die_wait);
  m["flash.read_die_service_us_mean"] =
      mean_us(a.read_die_service, b.read_die_service);
  m["flash.program_die_wait_us_mean"] =
      mean_us(a.prog_die_wait, b.prog_die_wait);
  m["flash.channel_wait_us_mean"] = mean_us(a.chan_wait, b.chan_wait);
  m["flash.die_busy_frac"] =
      ratio((double)(b.die_busy_ns - a.die_busy_ns),
            (double)(b.now - a.now) * (double)b.dies);

  m["lsm.block_cache_hit_rate"] = ratio((double)(b.lsm_hits - a.lsm_hits),
                                        (double)(b.lsm_lookups - a.lsm_lookups));
  m["lsm.compactions_per_kop"] = per_kop(a.compactions, b.compactions);
  m["lsm.flushes_per_kop"] = per_kop(a.flushes, b.flushes);
  m["lsm.write_stalls_per_kop"] = per_kop(a.write_stalls, b.write_stalls);
  m["fs.journal_writes_per_kop"] = per_kop(a.journal_writes, b.journal_writes);
  m["hashkv.defrags_per_kop"] = per_kop(a.defrags, b.defrags);
  return m;
}

/// Ops between two host-speed slices: 16 slices per measured phase, 5-10%
/// of its CPU time.
u64 slice_every(const WorkloadDef& w) { return w.measure_ops / 16; }

/// Runs `spec` through `stack` with host-speed slices interleaved (and,
/// given spans, the generator timed).
harness::RunResult run_sliced(harness::KvStack& stack,
                              const wl::WorkloadSpec& spec, HostSpeed& speed,
                              u64 every, Spans* spans,
                              const harness::RunOptions& opts) {
  return harness::run_workload(
      stack, spec,
      [spec, &speed, every, spans]() -> std::unique_ptr<wl::OpSource> {
        std::unique_ptr<wl::OpSource> src =
            std::make_unique<wl::SyntheticOpSource>(spec);
        if (spans) src = std::make_unique<TimedSource>(std::move(src), *spans);
        return std::make_unique<SlicedSource>(std::move(src), speed, every,
                                              spans);
      },
      opts);
}

RepResult run_rep(const WorkloadDef& w, u64 seed, bool traced,
                  HostSpeed& speed) {
  const std::string at = std::string(w.name) + " stream " + std::to_string(seed);
  RepResult r;
  const harness::RunOptions quiet{.drain_after = true, .telemetry = false};
  const u64 every = slice_every(w);

  // Set-up: construct the bed, fill every key once (sequential ids, the
  // KVBench load phase), then warm up with the workload's own mix.
  speed.clear();
  const double setup0 = cpu_seconds();
  Bed bed = make_bed(w);
  Oracle oracle(w.keys, kKeyBytes);
  ProbeStack probe(*bed.stack, oracle, kKeyBytes);
  wl::WorkloadSpec fill = mixed_spec(w, w.keys, derive_seed(seed, 1));
  fill.pattern = wl::Pattern::kSequential;
  fill.mix = wl::OpMix::insert_only();
  run_sliced(probe, fill, speed, every, nullptr, quiet);
  wl::WorkloadSpec warm = mixed_spec(w, w.warm_ops, derive_seed(seed, 2));
  if (w.warm_updates_only) warm.mix = wl::OpMix::update_only();
  run_sliced(probe, warm, speed, every, nullptr, quiet);
  r.setup_s = speed.to_ref_s(cpu_seconds() - setup0 - speed.cpu_s());

  // Measured phase.
  const wl::WorkloadSpec spec = mixed_spec(w, w.measure_ops, derive_seed(seed, 3));
  probe.read_lat_ns().reserve(w.measure_ops);
  probe.update_lat_ns().reserve(w.measure_ops);
  probe.set_recording(true);
  Spans spans;
  if (traced) probe.set_spans(&spans);
  const harness::RunOptions opts{.telemetry = false};
  speed.clear();
  const Snap s0 = snap(bed);
  const u64 allocs0 = allocs_now();
  const double cpu0 = cpu_seconds();
  const i64 t0 = clock_ns();
  const harness::RunResult run =
      run_sliced(probe, spec, speed, every, traced ? &spans : nullptr, opts);
  const i64 t1 = clock_ns();
  const double phase_cpu_s = cpu_seconds() - cpu0;
  const u64 allocs1 = allocs_now();
  const Snap s1 = snap(bed);
  r.measure_raw_cpu_s = phase_cpu_s - speed.cpu_s();
  r.measure_cpu_s = speed.to_ref_s(r.measure_raw_cpu_s);
  r.slowdown = speed.slowdown();
  probe.set_recording(false);
  probe.set_spans(nullptr);

  const OpCounts& c = probe.counts();
  r.counts = c;
  SimRun& m = r.sim;
  m.ops = run.ops;
  m.elapsed = run.elapsed;
  m.events = s1.events - s0.events;
  m.read_lat = std::move(probe.read_lat_ns());
  m.update_lat = std::move(probe.update_lat_ns());
  m.flash_bytes = s1.ftl.flash_bytes_written - s0.ftl.flash_bytes_written;
  m.stored_bytes = c.stored_bytes;
  m.device_bytes = bed.stack->device_bytes_used();
  m.live_bytes = oracle.live_bytes();

  // Correctness and conservation.
  check(probe.failures_any_phase() == 0,
        at + ": " + std::to_string(probe.failures_any_phase()) +
            " ops failed or read a wrong value; first wrong read: " +
            (oracle.first_failure().empty() ? "none"
                                            : oracle.first_failure()));
  check(c.attempted == c.ok + c.failed,
        at + ": attempted != ok + failed");
  check(c.attempted == w.measure_ops && run.ops == c.attempted,
        at + ": ops attempted/completed differ from the op stream");
  check(run.errors.total() + run.not_found <= c.failed,
        at + ": runner saw failures the oracle did not");
  for (size_t n : {m.read_lat.size(), m.update_lat.size()})
    check(n >= kMinSamples, at + ": an op type has " + std::to_string(n) +
                                " < " + std::to_string(kMinSamples) +
                                " samples for its p99.9");
  if (bed.kvssd)
    check(bed.kvssd->ftl().app_bytes_live() == m.live_bytes,
          at + ": oracle live bytes != KvFtl::app_bytes_live()");
  if (bed.hashkv)
    check(bed.hashkv->store().app_bytes_live() == m.live_bytes,
          at + ": oracle live bytes != HashKvStore::app_bytes_live()");

  if (traced) {
    // Spans are read from the steady clock (cheap enough to take several
    // per op); their self times are scaled by the phase's CPU/wall ratio
    // and converted to reference time, so the layers, with the event loop
    // as the remainder, sum to the measured phase's CPU time in reference
    // seconds. The reference slices are a span of their own (kRef).
    const i64 total_ns = t1 - t0;
    const u64 total_allocs = allocs1 - allocs0;
    i64 spans_ns = 0;
    u64 spans_allocs = 0;
    for (u32 l = 0; l < kNumLayers; ++l) {
      check(spans.self_ns((Layer)l) >= 0, at + ": negative span self time");
      spans_ns += spans.self_ns((Layer)l);
      spans_allocs += spans.self_allocs((Layer)l);
    }
    check(spans.idle(), at + ": unbalanced spans");
    check(spans_ns <= total_ns && spans_allocs <= total_allocs,
          at + ": layer spans exceed the measured phase");
    const double ops = (double)run.ops;
    const double cpu_per_wall_ns =
        phase_cpu_s * 1e9 / (double)total_ns / r.slowdown;
    auto cpu_per_op = [&](Layer l) {
      return (double)spans.self_ns(l) * cpu_per_wall_ns / ops;
    };
    auto allocs_per_op = [&](Layer l) {
      return (double)spans.self_allocs(l) / ops;
    };
    const double dispatch_ns =
        (double)(total_ns - spans_ns) * cpu_per_wall_ns;
    r.layers = layer_metrics(w, s0, s1, run.ops);
    r.layers["workload.cpu_ns_per_op"] = cpu_per_op(kWorkload);
    r.layers["workload.allocs_per_op"] = allocs_per_op(kWorkload);
    r.layers["harness.cpu_ns_per_op"] = cpu_per_op(kHarness);
    r.layers["harness.allocs_per_op"] = allocs_per_op(kHarness);
    for (BedKind b : {BedKind::kKvssd, BedKind::kLsm, BedKind::kHashKv}) {
      const std::string p = issue_layer(b);
      const bool mine = b == w.bed;
      r.layers[p + ".issue_cpu_ns_per_op"] = mine ? cpu_per_op(kIssue) : 0.0;
      r.layers[p + ".issue_allocs_per_op"] =
          mine ? allocs_per_op(kIssue) : 0.0;
    }
    r.layers["bench.cpu_ns_per_op"] = cpu_per_op(kBench);
    r.layers["sim.dispatch_cpu_ns_per_op"] = dispatch_ns / ops;
    r.layers["sim.allocs_per_op"] =
        (double)(total_allocs - spans_allocs) / ops;
    r.layers["sim.cpu_ns_per_event"] = ratio(dispatch_ns, (double)m.events);
  }
  return r;
}

// --- reporting -------------------------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median host throughput of the measured phase over repetitions: ops
/// per reference second, or per raw CPU second.
double ops_per_cpu(const std::vector<RepResult>& reps, u64 ops_per_rep,
                   bool raw = false) {
  std::vector<double> v;
  for (const RepResult& r : reps)
    v.push_back(ratio((double)ops_per_rep,
                      raw ? r.measure_raw_cpu_s : r.measure_cpu_s));
  return median(v);
}

/// Mean of the values at or below the `permille` nearest-rank quantile
/// (reorders `v`). Stands in for the update median, which on the KV-SSD
/// bed is one fixed buffered-write latency that repeats exactly for every
/// seed and so cannot show a change in the typical update.
double mean_to(std::vector<u32>& v, u64 permille) {
  if (v.empty()) return 0;
  const size_t n = (v.size() * permille + 999) / 1000;
  std::nth_element(v.begin(), v.begin() + (long)(n - 1), v.end());
  double sum = 0;
  for (size_t i = 0; i < n; ++i) sum += v[i];
  return sum / (double)n;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (double)ru.ru_maxrss / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-layer metric units; names not listed are ratios.
const char* layer_unit(const std::string& name) {
  auto ends = [&name](const char* s) {
    const size_t n = std::strlen(s);
    return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
  };
  if (ends("_ns_per_op")) return "ns/op";
  if (ends("_ns_per_event")) return "ns/event";
  if (ends("_us_per_op")) return "us/op";
  if (ends("_us_mean")) return "us";
  if (ends("_per_kop")) return "1/kop";
  if (ends("_per_op")) return "1/op";
  if (ends("index_splits")) return "count";
  return "ratio";
}

void print_json(bool correct, u64 attempted, u64 failed,
                const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", (unsigned long long)attempted,
              (unsigned long long)failed);
  for (size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), ms[i].value, ms[i].unit);
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  const WorkloadDef* w = nullptr;
  u64 seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      for (const WorkloadDef& d : kWorkloads)
        if (v == d.name) w = &d;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      trace = std::atoi(v.c_str());
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || w == nullptr || seconds <= 0 ||
      (trace != 0 && trace != 1))
    return usage();

  // Repeat until the time is spent. The traced run alternates untraced
  // and traced repetitions so both see the same host conditions.
  const i64 start = clock_ns();
  std::vector<RepResult> plain, traced;
  HostSpeed speed;
  auto show = [w](const char* kind, const RepResult& r) {
    std::printf("rep %-8s setup %.3f s, measured %.3f CPU-s (%.3f raw, host "
                "slowdown %.3f), %.0f ops/CPU-s, %llu events\n",
                kind, r.setup_s, r.measure_cpu_s, r.measure_raw_cpu_s,
                r.slowdown, (double)w->measure_ops / r.measure_cpu_s,
                (unsigned long long)r.sim.events);
  };
  // Repetition i measures stream i % K. Simulated metrics are pooled
  // over the first K repetitions; every later repetition (and each
  // traced one) must reproduce its stream exactly and is then kept only
  // for its host-side timings.
  const size_t K = w->streams;
  auto stream_seed = [seed, K](size_t i) {
    return derive_seed(seed, 100 + i % K);
  };
  const std::string name = w->name;
  while (plain.size() < K ||
         (double)(clock_ns() - start) * 1e-9 < seconds) {
    const size_t i = plain.size();
    plain.push_back(run_rep(*w, stream_seed(i), false, speed));
    show("untraced", plain.back());
    if (i >= K) {
      check(plain[i].sim == plain[i % K].sim,
            name + ": a repetition's simulated results differ from the "
                   "first run of its stream: " +
                first_difference(plain[i % K].sim, plain[i].sim));
      plain[i].sim = SimRun{};
    }
    if (trace) {
      traced.push_back(run_rep(*w, stream_seed(i), true, speed));
      show("traced", traced.back());
      check(traced[i].sim == plain[i % K].sim,
            name + ": the traced run's simulated results differ from the "
                   "untraced run's: " +
                first_difference(plain[i % K].sim, traced[i].sim));
      traced[i].sim = SimRun{};
    }
  }

  // Pool the simulated outcome of the K streams.
  SimRun pool;
  u64 device_bytes = 0, live_bytes = 0;
  for (size_t i = 0; i < K; ++i) {
    SimRun& r = plain[i].sim;
    pool.ops += r.ops;
    pool.elapsed += r.elapsed;
    pool.flash_bytes += r.flash_bytes;
    pool.stored_bytes += r.stored_bytes;
    device_bytes += r.device_bytes;
    live_bytes += r.live_bytes;
    pool.read_lat.insert(pool.read_lat.end(), r.read_lat.begin(),
                         r.read_lat.end());
    pool.update_lat.insert(pool.update_lat.end(), r.update_lat.begin(),
                           r.update_lat.end());
  }
  std::vector<u32>& rd = pool.read_lat;
  std::vector<u32>& up = pool.update_lat;

  std::vector<double> setup;
  u64 attempted = 0, failed = 0;
  for (const RepResult& r : plain) {
    setup.push_back(r.setup_s);
    attempted += r.counts.attempted;
    failed += r.counts.failed;
  }
  const double ops_per_cpu_s = ops_per_cpu(plain, w->measure_ops);

  std::vector<Metric> out;
  if (trace == 0) {
    out = {
        {"setup_s", median(setup), "s"},
        {"ops_per_cpu_s", ops_per_cpu_s, "1/s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
        {"sim_kops", ratio((double)pool.ops * 1e6, (double)pool.elapsed),
         "kop/s"},
        {"sim_read_p50_us", (double)quantile(rd, 500) / 1000.0, "us"},
        {"sim_read_p999_us", (double)quantile(rd, 999) / 1000.0, "us"},
        {"sim_update_mean_to_p90_us", mean_to(up, 900) / 1000.0, "us"},
        {"sim_update_p999_us", (double)quantile(up, 999) / 1000.0, "us"},
        {"write_amp", ratio((double)pool.flash_bytes, (double)pool.stored_bytes),
         "ratio"},
        {"space_amp", ratio((double)device_bytes, (double)live_bytes), "ratio"},
        {"ok_op_frac", ratio((double)(attempted - failed), (double)attempted),
         "ratio"},
    };
  } else {
    std::map<std::string, std::vector<double>> per;
    for (const RepResult& r : traced) {
      for (const auto& [k, v] : r.layers) per[k].push_back(v);
      attempted += r.counts.attempted;
      failed += r.counts.failed;
    }
    for (const auto& [k, v] : per) out.push_back({k, median(v), layer_unit(k)});
    out.push_back({"bench.trace_overhead_frac",
                   1.0 - ops_per_cpu(traced, w->measure_ops) / ops_per_cpu_s,
                   "ratio"});
    std::vector<double> slowdown;
    for (const RepResult& r : plain) slowdown.push_back(r.slowdown);
    out.push_back({"bench.host_slowdown", median(slowdown), "ratio"});
    out.push_back({"bench.raw_ops_per_cpu_s",
                   ops_per_cpu(plain, w->measure_ops, true), "1/s"});
  }

  std::printf("workload %s seed %llu: %zu untraced + %zu traced reps of "
              "%llu measured ops, %zu streams pooled\n",
              w->name, (unsigned long long)seed, plain.size(), traced.size(),
              (unsigned long long)w->measure_ops, K);
  std::printf("pooled samples: read %zu (p50 %.3f us), update %zu (p50 %.3f "
              "us); p99.9 needs >= %llu each\n",
              rd.size(), (double)quantile(rd, 500) / 1000.0, up.size(),
              (double)quantile(up, 500) / 1000.0,
              (unsigned long long)kMinSamples);
  for (const Metric& m : out)
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  for (const std::string& f : g_failures)
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  const bool correct = g_failures.empty();
  print_json(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
