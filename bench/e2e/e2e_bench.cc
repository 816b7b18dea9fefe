// End-to-end benchmark: runs ONE workload of bench/e2e in this
// process and prints its metrics as one JSON line (the last line of
// stdout). bench/e2e/run.py builds it and is the command to run;
// bench/e2e/README.md documents the metrics and workloads.
//
//   e2e_bench --workload=point_hot --seed=1 --seconds=20 --trace=0
//              --dir=<scratch db dir> --trace_out=<span json path>
//
// --trace=0 (end-to-end run): sets the workload up three times (setup_s
// is the median), warms up for 2 s, then spends 60% of --seconds in an
// open-loop phase at the workload's frozen rate and 40% in a closed-loop
// saturation phase, each starting from a quiesced engine. Each of the
// kConnections connections is driven by its own thread.
// --trace=1 (per-layer run): one setup, the same warm-up and open loop,
// 20% of --seconds in the saturation phase (for the counters read around
// the phases), 10% replaying the op stream over one connection with a
// window of 1, then the same ops three times in this thread straight
// against the engine — untraced, traced, untraced — plus short probes of
// layers the workload's own ops never reach.
//
// Every served result is checked against the in-bench Model. The exit
// code is 0 only when every op succeeded and every check passed.

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "net/server.h"
#include "replay.h"
#include "storage/sfc_db.h"
#include "storage/write_batch.h"
#include "wire_load.h"
#include "workload.h"
#include "workloads/generators.h"

namespace onion::e2e {
namespace {

// Stream purposes for SubSeed: each phase draws its own ops.
enum Purpose : uint64_t {
  kData = 1,
  kBoxes,
  kWarmup,
  kSaturation,
  kOpenLoop,
  kArrivals,
  kReplay,
  kProbe,
};

constexpr size_t kConnections = 4;
constexpr uint32_t kWindow = 4;
constexpr double kWarmupSeconds = 2.0;
constexpr int kSetups = 3;
constexpr size_t kLoadBatch = 4096;
constexpr uint64_t kMaxReplayOps = 20'000;
constexpr size_t kProbeOps = 200;
constexpr size_t kMaxSpansPerOp = 7;
constexpr double kRowBytes = 16.0;  // a record: 8-byte key + 8-byte payload

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Exact nearest-rank quantile of raw samples (sorted in place).
double Quantile(std::vector<uint64_t>* samples, double q) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples->size())));
  return static_cast<double>((*samples)[std::max<size_t>(rank, 1) - 1]);
}

/// Metric lines of the final JSON object, in insertion order.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// CPU placement. The server's reactor, the one thread every request
/// passes through, gets a CPU of its own; the bench's threads and the
/// database's workers share the others, so neither the load generator
/// nor background work preempts the reactor.
class Placement {
 public:
  Placement() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
    if (cpus.size() < 2) return;  // nothing to separate
    CPU_ZERO(&reactor_);
    CPU_ZERO(&others_);
    CPU_SET(cpus.back(), &reactor_);
    for (size_t i = 0; i + 1 < cpus.size(); ++i) CPU_SET(cpus[i], &others_);
    enabled_ = true;
  }
  /// Threads the calling thread creates from now on inherit its CPUs.
  void ForOthers() const { Pin(others_); }
  void ForReactor() const { Pin(reactor_); }

 private:
  void Pin(const cpu_set_t& set) const {
    if (enabled_) ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
  }

  bool enabled_ = false;
  cpu_set_t reactor_;
  cpu_set_t others_;
};

/// One served database: SfcDb + loopback SfcServer.
struct Instance {
  std::unique_ptr<storage::SfcDb> db;
  storage::SfcTable* table = nullptr;
  storage::SfcTable* index = nullptr;
  std::unique_ptr<net::SfcServer> server;

  Status Close() {
    if (server != nullptr) server->Stop();
    server.reset();
    return db != nullptr ? db->Close() : Status::OK();
  }
};

/// Empty directory -> server accepting: load, flush, compact, and (for
/// ingest_indexed) the index backfill.
Status SetUpOnce(const WorkloadSpec& spec, const Model& model,
                 const std::string& dir, const Placement& placement,
                 Instance* out) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  storage::SfcDbOptions options;
  options.pool_pages = spec.pool_pages;
  options.readahead_pages = spec.readahead_pages;
  options.num_workers = 2;
  options.table_options.memtable_flush_entries = spec.memtable_flush_entries;
  auto db = storage::SfcDb::Open(dir, options);
  if (!db.ok()) return db.status();
  out->db = std::move(db).value();
  auto table = out->db->CreateTable(kTable, "onion", Universe(2, kSide));
  if (!table.ok()) return table.status();
  out->table = table.value();
  for (size_t begin = 0; begin < model.num_points(); begin += kLoadBatch) {
    storage::WriteBatch batch;
    const size_t end = std::min(model.num_points(), begin + kLoadBatch);
    for (size_t i = begin; i < end; ++i) batch.Put(kTable, model.point(i), i);
    Status status = out->db->Write(std::move(batch));
    if (!status.ok()) return status;
  }
  Status status = out->table->Flush();
  if (status.ok()) status = out->table->Compact();
  if (status.ok() && spec.secondary_index) {
    status = out->db->CreateIndex(kTable, {kIndex, "swap_xy", "hilbert"});
    if (status.ok()) {
      auto index = out->db->IndexTable(kTable, kIndex);
      if (!index.ok()) return index.status();
      out->index = index.value();
      status = out->index->Flush();
      if (status.ok()) status = out->index->Compact();
    }
  }
  if (!status.ok()) return status;
  out->server = std::make_unique<net::SfcServer>(out->db.get());
  placement.ForReactor();
  status = out->server->Start();
  placement.ForOthers();
  return status;
}

/// Flush() barrier on every table: buffered writes reach segments and
/// background flush and compaction go idle.
Status Quiesce(const Instance& inst) {
  Status status = inst.table->Flush();
  if (status.ok() && inst.index != nullptr) status = inst.index->Flush();
  return status;
}

/// Counters read through public getters around a load phase.
struct Counters {
  uint64_t process_cpu_ns = 0;
  IoStats pool;
  uint64_t evictions = 0;
  uint64_t net_requests = 0;
  uint64_t net_bytes = 0;
  uint64_t net_stalls = 0;
  obs::HistogramSnapshot net_request_us;
  uint64_t ranges = 0;
  uint64_t queries = 0;
  uint64_t background_bytes = 0;  // flush.bytes + compaction.bytes_rewritten
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t compaction_us = 0;
  uint64_t acked_writes = 0;

  static Counters Read(const Instance& inst, const Model& model) {
    Counters c;
    c.process_cpu_ns = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    c.pool = inst.db->pool_stats();
    (void)inst.db->DumpMetrics();  // refreshes the pool.evictions gauge
    obs::MetricsRegistry& db = inst.db->metrics();
    c.evictions = static_cast<uint64_t>(db.gauge("pool.evictions")->value());
    c.net_requests = db.counter("net.requests")->value();
    c.net_bytes = db.counter("net.bytes_read")->value() +
                  db.counter("net.bytes_written")->value();
    c.net_stalls = db.counter("net.write_queue_stalls")->value();
    c.net_request_us = db.histogram("net.request_us")->Snapshot();
    // Index queries decompose on the index table; every other read on the
    // base table.
    const storage::TableReadStats reads =
        (inst.index != nullptr ? inst.index : inst.table)->read_stats();
    c.ranges = reads.ranges;
    c.queries = reads.queries;
    for (const storage::SfcTable* t : {inst.table, inst.index}) {
      if (t == nullptr) continue;
      obs::MetricsRegistry& m = t->metrics();
      c.background_bytes += m.counter("flush.bytes")->value() +
                            m.counter("compaction.bytes_rewritten")->value();
      c.flushes += m.counter("flush.count")->value();
      c.compactions += m.counter("compaction.count")->value();
      c.compaction_us += m.histogram("compaction.us")->sum();
    }
    c.acked_writes = model.acked_total();
    return c;
  }
};

obs::HistogramSnapshot Delta(const obs::HistogramSnapshot& after,
                             const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot diff;
  diff.count = after.count - before.count;
  diff.sum = after.sum - before.sum;
  for (size_t b = 0; b < obs::kHistogramBuckets; ++b) {
    diff.buckets[b] = after.buckets[b] - before.buckets[b];
  }
  return diff;
}

/// Mean of an engine histogram over the db's lifetime (setup included,
/// so read-only workloads report their load's write path).
double LifetimeMeanUs(std::initializer_list<obs::MetricsRegistry*> registries,
                      const char* name) {
  obs::HistogramSnapshot merged;
  for (obs::MetricsRegistry* registry : registries) {
    if (registry != nullptr) merged += registry->histogram(name)->Snapshot();
  }
  return merged.mean();
}

uint64_t TableDirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    // Top-level files are CATALOG and BATCHLOG; tables are directories.
    if (entry.is_regular_file() && entry.path().parent_path() != dir) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

/// Checks every pool box's index query against the model built from
/// acknowledged writes (all writes have drained by now).
uint64_t VerifyIndex(Instance* inst, const Model& model,
                     const std::vector<Box>& boxes,
                     const std::vector<Expect>& expected) {
  uint64_t mismatches = 0;
  for (size_t i = 0; i < boxes.size(); ++i) {
    const Box base_box = Transpose(boxes[i]);
    RowTally tally;
    auto cursor = inst->db->NewIndexCursor(kTable, kIndex, boxes[i]);
    for (; cursor->Valid(); cursor->Next()) {
      tally.Add(model, base_box, cursor->entry().cell,
                cursor->entry().payload);
    }
    if (!cursor->status().ok() || !tally.ok || !(tally.base == expected[i]) ||
        !(tally.writes == model.AckedInBox(base_box))) {
      ++mismatches;
    }
  }
  return mismatches;
}

struct SpanSummary {
  std::vector<std::vector<uint64_t>> durations{kNumSpanNames};
  std::vector<uint64_t> totals = std::vector<uint64_t>(kNumSpanNames, 0);
  std::vector<uint64_t> stream_roots;  // op.<kind> of the replayed stream
  /// Per op.<kind> span: the share of it its child spans cover.
  std::vector<double> coverage;

  SpanSummary(const SpanLog& log, uint64_t stream_ops) {
    const std::vector<Span>& spans = log.spans();
    std::vector<uint64_t> child_ns(spans.size() + 1, 0);
    for (const Span& span : spans) {
      const uint64_t ns = span.end_ns - span.start_ns;
      durations[span.name].push_back(ns);
      totals[span.name] += ns;
      if (span.parent != 0) child_ns[span.parent] += ns;
    }
    for (size_t h = 1; h <= spans.size(); ++h) {
      const Span& span = spans[h - 1];
      if (!IsOpRoot(span.name)) continue;
      const uint64_t ns = span.end_ns - span.start_ns;
      if (span.op < stream_ops) stream_roots.push_back(ns);
      if (ns > 0) coverage.push_back(static_cast<double>(child_ns[h]) / ns);
    }
  }
  double P50Us(SpanName name) {
    return Quantile(&durations[name], 0.5) / 1e3;
  }
  double P99Us(SpanName name) {
    return Quantile(&durations[name], 0.99) / 1e3;
  }
};

std::vector<Op> ProbeOps(OpKind kind, size_t count, Rng* rng) {
  std::vector<Op> ops(count);
  for (size_t i = 0; i < count; ++i) {
    ops[i].kind = kind;
    ops[i].box = static_cast<uint32_t>(i);
    if (kind == OpKind::kGet || kind == OpKind::kPut) {
      ops[i].num_cells = 1;
      ops[i].cells[0] = Model::CellOf(rng->UniformInclusive(
          static_cast<uint64_t>(kSide) * kSide - 1));
    }
  }
  return ops;
}

/// Everything one invocation measures and checks.
struct Run {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string dir;
  Placement placement;
  std::unique_ptr<Model> model;
  std::vector<Box> boxes;
  std::vector<Expect> expected;
  Instance inst;
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool broken = false;

  void Tally(const PhaseResult& phase) {
    attempted += phase.attempted;
    failed += phase.failed;
  }
  void Tally(const ReplayResult& pass) {
    attempted += pass.ops;
    failed += pass.failed;
  }
  /// The workload's own op stream reaches `kind`.
  bool Reaches(OpKind kind) const {
    return kind == spec->read_kind ||
           (spec->write_percent > 0 && kind == spec->write_kind);
  }
};

/// Sets the workload up `count` times and keeps the last instance;
/// setup_s is the median.
Status SetUpTimed(Run* run, int count) {
  std::vector<double> seconds;
  for (int k = 0; k < count; ++k) {
    Instance candidate;
    const uint64_t start = NowNs();
    Status status = SetUpOnce(*run->spec, *run->model, run->dir,
                              run->placement, &candidate);
    if (!status.ok()) return status;
    seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (k + 1 < count) {
      status = candidate.Close();
      if (!status.ok()) return status;
    } else {
      run->inst = std::move(candidate);
    }
  }
  std::sort(seconds.begin(), seconds.end());
  if (!run->trace) run->report.Add("setup_s", seconds[seconds.size() / 2], "s");
  return Status::OK();
}

/// The load generator's clients, one per connection.
class Clients {
 public:
  Status Connect(Run* run, size_t connections) {
    for (size_t c = 0; c < connections; ++c) {
      clients_.push_back(std::make_unique<WireLoad>(
          run->model.get(), &run->boxes, &run->expected));
      Status status = clients_.back()->Connect(run->inst.server->port());
      if (!status.ok()) return status;
    }
    return Status::OK();
  }

  bool broken() const {
    return std::any_of(clients_.begin(), clients_.end(),
                       [](const auto& client) { return client->broken(); });
  }

  /// Runs `phase(client, index)` for every client at once, each on its
  /// own thread (this thread drives the last), and merges the results.
  template <typename Phase>
  PhaseResult RunAll(const Phase& phase) {
    std::vector<PhaseResult> results(clients_.size());
    {
      std::vector<std::thread> threads;
      const JoinAll join{&threads};
      for (size_t c = 0; c + 1 < clients_.size(); ++c) {
        threads.emplace_back(
            [&, c] { results[c] = phase(clients_[c].get(), c); });
      }
      results.back() = phase(clients_.back().get(), clients_.size() - 1);
    }
    PhaseResult merged = std::move(results.front());
    for (size_t c = 1; c < results.size(); ++c) merged.Merge(results[c]);
    return merged;
  }

  /// Every client's share of an open loop at `rate`: Poisson arrivals at
  /// rate / clients each, which together are Poisson at `rate`.
  PhaseResult RunOpen(const WorkloadSpec& spec, uint64_t stream_seed,
                      double seconds, double rate, uint64_t arrival_seed) {
    const double share = rate / static_cast<double>(clients_.size());
    return RunAll([&](WireLoad* client, size_t c) {
      OpStream ops(spec, SubSeed(stream_seed, c));
      return client->RunOpen(&ops, seconds, share, SubSeed(arrival_seed, c));
    });
  }

  PhaseResult RunClosed(const WorkloadSpec& spec, uint64_t stream_seed,
                        double seconds, uint32_t window) {
    return RunAll([&](WireLoad* client, size_t c) {
      OpStream ops(spec, SubSeed(stream_seed, c));
      return client->RunClosed(&ops, seconds, window, 0, false);
    });
  }

 private:
  struct JoinAll {
    std::vector<std::thread>* threads;
    ~JoinAll() {
      for (std::thread& thread : *threads) thread.join();
    }
  };

  std::vector<std::unique_ptr<WireLoad>> clients_;
};

/// Warm-up, the open-loop phase and the saturation phase, over
/// kConnections connections. Reports the end-to-end metrics, or in a
/// traced run the per-layer values read around the phases.
Status LoadPhases(Run* run) {
  const WorkloadSpec& spec = *run->spec;
  Instance& inst = run->inst;
  const Model& model = *run->model;
  Clients load;
  Status status = load.Connect(run, kConnections);
  if (!status.ok()) return status;

  // Warm-up: one scan per table fills the buffer pool the same way on
  // every run, then open-loop traffic warms everything else. Up to the
  // saturation phase every op count is fixed by the seed and the rate,
  // not by how fast the server is.
  for (storage::SfcTable* t : {inst.table, inst.index}) {
    if (t == nullptr) continue;
    auto scan = t->NewScanCursor();
    for (; scan->Valid(); scan->Next()) {
    }
    if (!scan->status().ok()) return scan->status();
  }
  run->Tally(load.RunOpen(spec, SubSeed(run->seed, kWarmup), kWarmupSeconds,
                          spec.open_loop_rate, SubSeed(run->seed, kWarmup)));

  // The open loop runs first, from a quiesced engine: its writes arrive
  // on a fixed schedule, so every run and every commit meets the same
  // memtable and compaction state at the same point of the phase.
  // The traced run repeats the open loop exactly, so its tail and sample
  // counts are those of the end-to-end run; its saturation phase only
  // feeds per-op ratios and can be shorter.
  const double open_seconds = 0.6 * run->seconds;
  const double sat_seconds = (run->trace ? 0.2 : 0.4) * run->seconds;
  status = Quiesce(inst);
  if (!status.ok()) return status;
  const Counters before_open = Counters::Read(inst, model);
  PhaseResult open = load.RunOpen(spec, SubSeed(run->seed, kOpenLoop),
                                  open_seconds, spec.open_loop_rate,
                                  SubSeed(run->seed, kArrivals));
  const Counters after_open = Counters::Read(inst, model);
  run->Tally(open);
  rusage usage = {};
  ::getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  status = Quiesce(inst);
  if (!status.ok()) return status;
  const Counters before_sat = Counters::Read(inst, model);
  const uint64_t sat_start = NowNs();
  const PhaseResult sat = load.RunClosed(spec, SubSeed(run->seed, kSaturation),
                                         sat_seconds, kWindow);
  const uint64_t sat_wall = NowNs() - sat_start;
  const Counters after_sat = Counters::Read(inst, model);
  run->Tally(sat);
  run->broken = run->broken || load.broken();

  const double sat_ops_s =
      static_cast<double>(sat.completed_in_window) / sat.seconds;
  const size_t samples = open.latency_ns.size();
  const double p99_ns = Quantile(&open.latency_ns, 0.99);  // sorts them
  const double p99_us = p99_ns / 1e3;
  const auto beyond_p99 = static_cast<double>(
      open.latency_ns.end() -
      std::upper_bound(open.latency_ns.begin(), open.latency_ns.end(),
                       static_cast<uint64_t>(p99_ns)));
  std::fprintf(stderr,
               "e2e %s: sat %.0f ops/s; open loop %zu samples at %.0f/s, "
               "p99 %.1f us, %llu refused\n",
               spec.name, sat_ops_s, samples, spec.open_loop_rate, p99_us,
               static_cast<unsigned long long>(open.refused));
  Report& report = run->report;
  if (!run->trace) {
    report.Add("sat_ops_s", sat_ops_s, "ops/s");
    report.Add("p50_us", Quantile(&open.latency_ns, 0.50) / 1e3, "us");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    return Status::OK();
  }

  // Not gated: on a shared VM this tail tracks how often the hypervisor
  // preempts the reactor (README.md, "Platform caveats").
  report.Add("open_loop.p99_us", p99_us, "us");
  report.Add("open_loop.samples", static_cast<double>(samples), "count");
  report.Add("open_loop.samples_beyond_p99", beyond_p99, "count");
  report.Add("loadgen.late_p99_us", Quantile(&open.late_ns, 0.99) / 1e3, "us");
  report.Add("loadgen.cpu_ratio", Ratio(sat.loadgen_max_cpu_ns, sat_wall),
             "ratio");

  // Per op of the saturation phase.
  const double ops = static_cast<double>(sat.completed_in_window);
  const double reads = static_cast<double>(std::max<uint64_t>(sat.read_ops, 1));
  const Counters& b = before_sat;
  const Counters& a = after_sat;
  report.Add("net.server.cpu_us_per_op",
             Ratio(static_cast<double>(a.process_cpu_ns - b.process_cpu_ns -
                                       sat.loadgen_cpu_ns),
                   ops) / 1e3,
             "us");
  report.Add("net.request_us_p99",
             Delta(a.net_request_us, b.net_request_us).p99(), "us");
  report.Add("net.frames_per_op", Ratio(a.net_requests - b.net_requests, ops),
             "count");
  report.Add("net.bytes_per_op", Ratio(a.net_bytes - b.net_bytes, ops), "B");
  report.Add("net.write_queue_stalls", a.net_stalls - b.net_stalls, "count");
  report.Add("index.ranges_per_query",
             Ratio(a.ranges - b.ranges, a.queries - b.queries), "count");
  report.Add("storage.entries_per_query", Ratio(sat.rows, reads), "count");
  const IoStats& p0 = b.pool;
  const IoStats& p1 = a.pool;
  const uint64_t hits = p1.cache_hits - p0.cache_hits;
  report.Add("pool.hit_ratio",
             Ratio(hits, hits + p1.page_reads - p0.page_reads), "ratio");
  report.Add("pool.page_reads_per_query",
             Ratio(p1.page_reads - p0.page_reads, reads), "count");
  report.Add("pool.seeks_per_query", Ratio(p1.seeks - p0.seeks, reads),
             "count");
  report.Add("pool.disk_bytes_per_query",
             Ratio(p1.disk_bytes - p0.disk_bytes, reads), "B");
  report.Add("pool.readahead_waste_ratio",
             Ratio(p1.readahead_wasted - p0.readahead_wasted,
                   p1.readahead_pages - p0.readahead_pages),
             "ratio");
  report.Add("pool.filter_skips_per_query",
             Ratio(p1.pages_skipped_by_filter - p0.pages_skipped_by_filter,
                   reads),
             "count");
  report.Add("pool.evictions_per_query",
             Ratio(a.evictions - b.evictions, reads), "count");

  // Background work is bursty: count it over both load phases, but not
  // the flush barrier the bench puts between them.
  const auto both = [&](uint64_t Counters::*field) {
    return static_cast<double>(after_open.*field - before_open.*field +
                               a.*field - b.*field);
  };
  const double load_us =
      static_cast<double>(sat_wall) / 1e3 + open.seconds * 1e6;
  report.Add("write_amp",
             Ratio(both(&Counters::background_bytes),
                   both(&Counters::acked_writes) * kRowBytes),
             "ratio");
  report.Add("flush.count", both(&Counters::flushes), "count");
  report.Add("compaction.count", both(&Counters::compactions), "count");
  report.Add("compaction.busy_ratio",
             Ratio(both(&Counters::compaction_us), load_us), "ratio");
  return Status::OK();
}

/// Short runs of the layer calls the workload's own ops never reach, so
/// every per-layer metric is measured on every workload.
Status Probe(Run* run, Replayer* replayer, SpanLog* log, uint64_t first_op,
             ReplayResult* totals) {
  Rng rng(SubSeed(run->seed, kProbe));
  const auto probe = [&](Replayer* r, OpKind kind, Coord side,
                         bool transpose) {
    std::vector<Box> boxes;
    std::vector<Expect> expected;
    if (side > 0) {
      boxes = RandomCubes(Universe(2, kSide), side, kProbeOps, rng.Next());
      for (const Box& box : boxes) {
        expected.push_back(
            run->model->BaseInBox(transpose ? Transpose(box) : box));
      }
    }
    const ReplayResult got = r->Run(ProbeOps(kind, kProbeOps, &rng), boxes,
                                    expected, log, first_op);
    first_op += got.ops;
    run->Tally(got);
    totals->encoded_cells += got.encoded_cells;
    totals->drained_entries += got.drained_entries;
    totals->index_rows += got.index_rows;
  };
  if (!run->Reaches(OpKind::kGet)) probe(replayer, OpKind::kGet, 0, false);
  if (!run->Reaches(OpKind::kBoxQuery)) {
    probe(replayer, OpKind::kBoxQuery, 32, false);
  }
  if (!run->Reaches(OpKind::kPut) && !run->Reaches(OpKind::kWrite)) {
    probe(replayer, OpKind::kPut, 0, false);
  }
  if (!run->Reaches(OpKind::kIndexQuery)) {
    // Last: from here on every write would also maintain the index.
    Status status = run->inst.db->CreateIndex(
        kTable, {kIndex, "swap_xy", "hilbert"});
    if (!status.ok()) return status;
    auto index = run->inst.db->IndexTable(kTable, kIndex);
    if (!index.ok()) return index.status();
    Replayer indexed(run->inst.db.get(), run->inst.table, index.value(),
                     run->model.get());
    probe(&indexed, OpKind::kIndexQuery, 16, true);
  }
  return Status::OK();
}

/// The traced run's second half: the seeded op stream once over the wire
/// on one connection with a window of 1, then the same ops three times in
/// this thread — untraced, traced, untraced — then the probes.
Status TracedReplay(Run* run, const std::string& trace_out) {
  const WorkloadSpec& spec = *run->spec;
  Instance& inst = run->inst;
  WireLoad wire(run->model.get(), &run->boxes, &run->expected);
  Status status = wire.Connect(inst.server->port());
  if (!status.ok()) return status;
  OpStream wire_ops(spec, SubSeed(run->seed, kReplay));
  PhaseResult replayed =
      wire.RunClosed(&wire_ops, 0.1 * run->seconds, 1, kMaxReplayOps, true);
  run->Tally(replayed);
  run->broken = run->broken || wire.broken();

  std::vector<Op> ops;
  OpStream stream(spec, SubSeed(run->seed, kReplay));
  for (uint64_t i = 0; i < replayed.attempted; ++i) ops.push_back(stream.Next());
  Replayer replayer(inst.db.get(), inst.table, inst.index, run->model.get());
  SpanLog log;
  log.Reserve((ops.size() + 4 * kProbeOps) * kMaxSpansPerOp);
  // Untraced passes before and after the traced one, so a cache that
  // warms across passes does not bias the overhead ratio.
  const ReplayResult plain_before =
      replayer.Run(ops, run->boxes, run->expected, nullptr, 0);
  const ReplayResult traced =
      replayer.Run(ops, run->boxes, run->expected, &log, 0);
  const ReplayResult plain_after =
      replayer.Run(ops, run->boxes, run->expected, nullptr, 0);
  for (const ReplayResult* pass : {&plain_before, &traced, &plain_after}) {
    run->Tally(*pass);
  }
  ReplayResult probes;
  status = Probe(run, &replayer, &log, ops.size(), &probes);
  if (!status.ok()) return status;

  SpanSummary spans(log, ops.size());
  Report& report = run->report;
  const double op_p50_us = Quantile(&spans.stream_roots, 0.5) / 1e3;
  const double wire_p50_us = Quantile(&replayed.latency_ns, 0.5) / 1e3;
  report.Add("op.wire_us_p50", wire_p50_us, "us");
  report.Add("op.replay_us_p50", op_p50_us, "us");
  report.Add("net.server.self_us_p50", wire_p50_us - op_p50_us, "us");
  report.Add("net.protocol.request_ns",
             Ratio(replayed.request_ns, replayed.request_frames), "ns");
  report.Add("net.protocol.response_ns",
             Ratio(replayed.response_ns, replayed.response_frames), "ns");
  report.Add("sfc.encode_ns",
             Ratio(spans.totals[kEncode],
                   traced.encoded_cells + probes.encoded_cells),
             "ns");
  report.Add("index.decompose_us_p50", spans.P50Us(kDecompose), "us");
  report.Add("analysis.clusters_per_query",
             Ratio(traced.clusters, traced.queries), "count");
  report.Add("storage.cursor_open_us_p50", spans.P50Us(kCursorOpen), "us");
  report.Add("storage.cursor_drain_ns_per_entry",
             Ratio(spans.totals[kCursorDrain],
                   traced.drained_entries + probes.drained_entries),
             "ns");
  report.Add("storage.get_us_p50", spans.P50Us(kStorageGet), "us");
  report.Add("storage.write_us_p50", spans.P50Us(kStorageWrite), "us");
  report.Add("storage.write_us_p99", spans.P99Us(kStorageWrite), "us");
  report.Add("secondary.query_us_p50", spans.P50Us(kOpIndexQuery), "us");
  report.Add("secondary.ns_per_row",
             Ratio(spans.totals[kSecondaryOpen] + spans.totals[kSecondaryDrain],
                   traced.index_rows + probes.index_rows),
             "ns");
  obs::MetricsRegistry* index_metrics =
      inst.index != nullptr ? &inst.index->metrics() : nullptr;
  report.Add("db.batch_commit_us_mean",
             LifetimeMeanUs({&inst.db->metrics()}, "db.batch_commit_us"),
             "us");
  report.Add("wal.append_us_mean",
             LifetimeMeanUs({&inst.table->metrics(), index_metrics},
                            "wal.append_us"),
             "us");
  report.Add("memtable.insert_us_mean",
             LifetimeMeanUs({&inst.table->metrics(), index_metrics},
                            "memtable.insert_us"),
             "us");
  report.Add("workers.task_wait_us_mean",
             LifetimeMeanUs({&inst.db->metrics()}, "workers.task_wait_us"),
             "us");
  report.Add("trace.overhead_ratio",
             Ratio(2.0 * traced.seconds_ns,
                   plain_before.seconds_ns + plain_after.seconds_ns),
             "ratio");
  // The 1st percentile, not the minimum: one op preempted between two
  // span boundaries would otherwise decide the metric.
  std::sort(spans.coverage.begin(), spans.coverage.end());
  report.Add("trace.coverage_p1",
             spans.coverage.empty()
                 ? 0.0
                 : spans.coverage[spans.coverage.size() / 100],
             "ratio");
  return trace_out.empty() ? Status::OK() : log.WriteJson(trace_out);
}

/// After the final Flush() barrier: what the run left on disk, the index
/// verification pass, and the dangling-entry check.
Status FinalChecks(Run* run) {
  Instance& inst = run->inst;
  Status status = Quiesce(inst);
  if (!status.ok()) return status;
  if (!run->trace) {
    const double live = static_cast<double>(run->model->num_points() +
                                            run->model->acked_total());
    run->report.Add("space_amp",
                    Ratio(static_cast<double>(TableDirBytes(run->dir)),
                          live * kRowBytes),
                    "ratio");
  }
  if (run->spec->secondary_index) {
    run->attempted += run->boxes.size();
    run->failed += VerifyIndex(&inst, *run->model, run->boxes, run->expected);
  }
  const uint64_t dangling =
      inst.db->metrics().counter("index.dangling_entries")->value();
  run->failed += dangling;
  if (run->trace) {
    uint64_t segments = 0;
    for (const storage::SfcTable* t : {inst.table, inst.index}) {
      if (t != nullptr) segments += t->num_segments();
    }
    run->report.Add("segments.live", static_cast<double>(segments), "count");
    run->report.Add("index.dangling_entries", static_cast<double>(dangling),
                    "count");
  }
  return Status::OK();
}

int Main(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  Run run;
  run.spec = FindWorkload(cli.GetString("workload", ""));
  run.dir = cli.GetString("dir", "");
  run.seed = static_cast<uint64_t>(cli.GetInt("seed", 0));
  run.seconds = cli.GetDouble("seconds", 0);
  run.trace = cli.GetInt("trace", 0) != 0;
  if (run.spec == nullptr || run.dir.empty() || !cli.Has("seed") ||
      !(run.seconds > 0) || !cli.Has("trace")) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload=<name> --seed=N --seconds=S "
                 "--trace=0|1 --dir=<scratch dir> [--trace_out=F]\n");
    return 2;
  }
  // Timer slack defaults to 50 µs, which would make every open-loop
  // sleep wake late by that much.
  ::prctl(PR_SET_TIMERSLACK, 1);
  run.placement.ForOthers();

  const Universe universe(2, kSide);
  run.model = std::make_unique<Model>(
      RandomPoints(universe, run.spec->points, SubSeed(run.seed, kData)));
  if (run.spec->query_side > 0) {
    run.boxes = RandomCubes(universe, run.spec->query_side, kBoxPool,
                            SubSeed(run.seed, kBoxes));
    for (const Box& box : run.boxes) {
      run.expected.push_back(run.model->BaseInBox(
          run.spec->secondary_index ? Transpose(box) : box));
    }
  }

  Status status = SetUpTimed(&run, run.trace ? 1 : kSetups);
  if (status.ok()) status = LoadPhases(&run);
  if (status.ok() && run.trace) {
    status = TracedReplay(&run, cli.GetString("trace_out", ""));
  }
  if (status.ok()) status = FinalChecks(&run);
  if (!status.ok()) {
    std::fprintf(stderr, "e2e %s: %s\n", run.spec->name,
                 status.ToString().c_str());
    run.report.Print(false, run.attempted + 1, run.failed + 1);
    return 1;
  }
  const Status closed = run.inst.Close();
  run.inst = Instance{};
  std::error_code ec;
  std::filesystem::remove_all(run.dir, ec);
  const bool correct = run.failed == 0 && !run.broken && closed.ok();
  run.report.Print(correct, run.attempted, run.failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace onion::e2e

int main(int argc, char** argv) { return onion::e2e::Main(argc, argv); }
