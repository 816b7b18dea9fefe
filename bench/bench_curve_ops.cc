// google-benchmark microbenchmarks: IndexOf / CellAt throughput for every
// curve, clustering evaluation, and range decomposition. These quantify the
// "index arithmetic" cost that an SFC-backed storage engine pays per
// record and per query.
//
// Before the registered benchmarks run, a chrono-timed kernel pre-pass
// measures the raw bit-interleave kernels of sfc/bits.h (scalar reference,
// magic-number, and — when the CPU has it — BMI2) and writes the
// ns-per-op numbers as BENCH_curve_ops.json. The pre-pass doubles as the
// perf contract of the kernel dispatch: on a BMI2 machine the BMI2 encode
// path must beat the portable scalar reference by at least 2x, or the
// binary exits non-zero. Without BMI2 the contract is skipped (the JSON
// says so via bmi2_supported). The pre-pass also times the CRC32C kernels
// of storage/crc32c.h over a 6 KiB segment page: on an SSE4.2 machine the
// dispatched Crc32c must beat Crc32cPortable by at least 4x (recorded with
// sse42_supported).
//
//   build/bench/bench_curve_ops [--benchmark_filter=...]

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "analysis/clustering.h"
#include "bench_report.h"
#include "common/rng.h"
#include "index/decompose.h"
#include "sfc/bits.h"
#include "sfc/registry.h"
#include "storage/crc32c.h"
#include "workloads/generators.h"

namespace {

using namespace onion;

std::unique_ptr<SpaceFillingCurve> Curve(const std::string& name, int dims,
                                         Coord side) {
  return MakeCurve(name, Universe(dims, side)).value();
}

void BM_IndexOf(benchmark::State& state, const std::string& name, int dims,
                Coord side) {
  auto curve = Curve(name, dims, side);
  const auto points = RandomPoints(curve->universe(), 1024, 5);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve->IndexOf(points[i]));
    i = (i + 1) & 1023;
  }
}

void BM_CellAt(benchmark::State& state, const std::string& name, int dims,
               Coord side) {
  auto curve = Curve(name, dims, side);
  Rng rng(7);
  std::vector<Key> keys(1024);
  for (auto& key : keys) key = rng.UniformInclusive(curve->num_cells() - 1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve->CellAt(keys[i]));
    i = (i + 1) & 1023;
  }
}

void BM_Clustering(benchmark::State& state, const std::string& name,
                   int dims, Coord side, Coord len) {
  auto curve = Curve(name, dims, side);
  const ClusteringEvaluator evaluator(curve.get());
  const auto queries = RandomCubes(curve->universe(), len, 64, 11);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Clustering(queries[i]));
    i = (i + 1) & 63;
  }
}

void BM_Decompose(benchmark::State& state, const std::string& name,
                  int dims, Coord side, Coord len) {
  auto curve = Curve(name, dims, side);
  const auto queries = RandomCubes(curve->universe(), len, 64, 13);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecomposeBox(*curve, queries[i]));
    i = (i + 1) & 63;
  }
}

void RegisterAll() {
  const std::vector<std::string> names = {
      "onion", "hilbert", "hilbert_nd", "zorder", "graycode", "snake"};
  for (const std::string& name : names) {
    benchmark::RegisterBenchmark(("IndexOf/2d1024/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   BM_IndexOf(s, name, 2, 1024);
                                 });
    benchmark::RegisterBenchmark(("CellAt/2d1024/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   BM_CellAt(s, name, 2, 1024);
                                 });
    benchmark::RegisterBenchmark(("IndexOf/3d64/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   BM_IndexOf(s, name, 3, 64);
                                 });
    benchmark::RegisterBenchmark(("CellAt/3d64/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   BM_CellAt(s, name, 3, 64);
                                 });
  }
  for (const std::string name : {"onion", "hilbert"}) {
    benchmark::RegisterBenchmark(("Clustering/2d1024l128/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   BM_Clustering(s, name, 2, 1024, 128);
                                 });
    benchmark::RegisterBenchmark(("Clustering/2d1024l896/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   BM_Clustering(s, name, 2, 1024, 896);
                                 });
  }
  for (const std::string name : {"onion", "hilbert", "zorder"}) {
    benchmark::RegisterBenchmark(("Decompose/2d256l64/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   BM_Decompose(s, name, 2, 256, 64);
                                 });
  }
}

// ---------------------------------------------------------------------
// Kernel pre-pass: raw sfc/bits.h and CRC32C throughput,
// BENCH_curve_ops.json, and the BMI2-vs-scalar and SSE4.2-vs-table perf
// contracts.

/// Best-of-`reps` nanoseconds per call of fn(i) over `iters` calls —
/// minimum, not mean, because on a shared core the cheapest rep is the
/// one with the least interference.
template <typename Fn>
double BestNsPerOp(Fn&& fn, int iters, int reps) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn(i);
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count() /
        iters;
    if (ns < best) best = ns;
  }
  return best;
}

/// Times encode (coords -> key) and decode (key -> coords) of every kernel
/// path at the widths the fast paths support (2D/32-bit, 3D/21-bit),
/// records them in `report` as <op><dims>_<path>_ns, and returns false if
/// the BMI2 encode contract fails on a BMI2 machine.
bool RunKernelPrepass(bench::BenchReport* report) {
  constexpr int kIters = 1 << 14;
  constexpr int kReps = 7;
  const bool bmi2 = bits::HasBmi2();
  report->AddCount("bmi2_supported", bmi2 ? 1 : 0);
  bool contract_ok = true;

  for (const int dims : {2, 3}) {
    const int bits_per_axis = dims == 2 ? 32 : 21;
    // Pre-generated random inputs, consumed round-robin so the timed loop
    // holds nothing but the kernel and an index increment.
    Rng rng(17 * dims);
    std::vector<Coord> coords(static_cast<size_t>(kIters) * dims);
    std::vector<Key> codes(kIters);
    const Coord mask = (Coord{1} << bits_per_axis) - 1;
    for (auto& c : coords) c = static_cast<Coord>(rng.Next()) & mask;
    for (int i = 0; i < kIters; ++i) {
      codes[i] = bits::InterleaveScalar(&coords[i * dims], dims,
                                        bits_per_axis);
    }
    const std::string d = std::to_string(dims);
    Coord out[kMaxDims];
    volatile Key key_sink = 0;

    const double enc_scalar = BestNsPerOp(
        [&](int i) {
          key_sink = bits::InterleaveScalar(&coords[i * dims], dims,
                                            bits_per_axis);
        },
        kIters, kReps);
    report->Add("encode" + d + "_scalar_ns", enc_scalar);
    const double dec_scalar = BestNsPerOp(
        [&](int i) {
          bits::DeinterleaveScalar(codes[i], dims, bits_per_axis, out);
          key_sink = out[0];
        },
        kIters, kReps);
    report->Add("decode" + d + "_scalar_ns", dec_scalar);

    const double enc_magic = BestNsPerOp(
        [&](int i) {
          key_sink = dims == 2 ? bits::InterleaveMagic2(&coords[i * 2])
                               : bits::InterleaveMagic3(&coords[i * 3]);
        },
        kIters, kReps);
    report->Add("encode" + d + "_magic_ns", enc_magic);
    const double dec_magic = BestNsPerOp(
        [&](int i) {
          if (dims == 2) {
            bits::DeinterleaveMagic2(codes[i], out);
          } else {
            bits::DeinterleaveMagic3(codes[i], out);
          }
          key_sink = out[0];
        },
        kIters, kReps);
    report->Add("decode" + d + "_magic_ns", dec_magic);

#if defined(ONION_BITS_HAVE_BMI2_KERNELS)
    if (bmi2) {
      const double enc_bmi2 = BestNsPerOp(
          [&](int i) {
            key_sink = bits::InterleaveBmi2(&coords[i * dims], dims,
                                            bits_per_axis);
          },
          kIters, kReps);
      report->Add("encode" + d + "_bmi2_ns", enc_bmi2);
      const double dec_bmi2 = BestNsPerOp(
          [&](int i) {
            bits::DeinterleaveBmi2(codes[i], dims, bits_per_axis, out);
            key_sink = out[0];
          },
          kIters, kReps);
      report->Add("decode" + d + "_bmi2_ns", dec_bmi2);
      // The contract the dispatch exists for: pdep must leave the
      // bit-at-a-time reference far behind. 2x is a deliberately low bar
      // (typical is >5x) so a noisy shared-CPU run cannot flap.
      if (enc_bmi2 * 2.0 > enc_scalar) {
        std::fprintf(stderr,
                     "bench_curve_ops: BMI2 encode contract FAILED for "
                     "%dd: bmi2 %.2f ns vs scalar %.2f ns (need >= 2x)\n",
                     dims, enc_bmi2, enc_scalar);
        contract_ok = false;
      }
    }
#endif
    (void)key_sink;
  }
  return contract_ok;
}

/// Times Crc32cPortable and the dispatched Crc32c over one 6 KiB buffer
/// (a segment page), records ns per KiB of each, and returns false if the
/// dispatched kernel is not at least 4x faster on an SSE4.2 machine.
bool RunCrc32cPrepass(bench::BenchReport* report) {
  constexpr size_t kPageBytes = 6 << 10;
  constexpr int kIters = 1 << 10;
  constexpr int kReps = 7;
  const bool sse42 = storage::HasSse42();
  report->AddCount("sse42_supported", sse42 ? 1 : 0);
  Rng rng(23);
  std::vector<uint8_t> page(kPageBytes);
  for (auto& b : page) b = static_cast<uint8_t>(rng.Next());
  constexpr double kKib = kPageBytes / 1024.0;
  // Each call chains on the previous sum so no two calls can overlap or
  // be hoisted out of the loop.
  volatile uint32_t crc_sink = 0;
  const double portable =
      BestNsPerOp(
          [&](int) {
            crc_sink = storage::Crc32cPortable(crc_sink, page.data(),
                                               page.size());
          },
          kIters, kReps) /
      kKib;
  report->Add("crc32c_portable_ns_per_kib", portable);
  const double dispatched =
      BestNsPerOp(
          [&](int) {
            crc_sink = storage::Crc32c(crc_sink, page.data(), page.size());
          },
          kIters, kReps) /
      kKib;
  report->Add("crc32c_ns_per_kib", dispatched);
  // The `crc32` instruction runs about 20x the table loop; 4x is a low
  // bar so a noisy shared-CPU run cannot flap.
  if (sse42 && dispatched * 4.0 > portable) {
    std::fprintf(stderr,
                 "bench_curve_ops: CRC32C contract FAILED: dispatched %.1f "
                 "ns/KiB vs portable %.1f ns/KiB (need >= 4x)\n",
                 dispatched, portable);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("curve_ops");
  const bool kernels_ok = RunKernelPrepass(&report);
  const bool crc_ok = RunCrc32cPrepass(&report);
  if (!report.WriteFile()) return 1;
  if (!kernels_ok || !crc_ok) return 1;
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
