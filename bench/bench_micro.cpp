// Microbenchmarks (google-benchmark) for the substrate kernels: deque
// operations, scheduler fork-join overhead, state copy/repair costs, the
// graph window queries the hot loops depend on, the temporal cycle-union
// pre-pass, the temporal text load, and the stream engine's batch dispatch.
#include <benchmark/benchmark.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "core/johnson_state.hpp"
#include "core/rt_state.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"
#include "io/edge_list.hpp"
#include "stream/engine.hpp"
#include "support/chase_lev_deque.hpp"
#include "support/dynamic_bitset.hpp"
#include "support/prng.hpp"
#include "support/scheduler.hpp"
#include "support/task_slab.hpp"
#include "temporal/cycle_union.hpp"
#include "temporal/temporal_johnson.hpp"

namespace parcycle {
namespace {

void BM_DequePushPop(benchmark::State& state) {
  ChaseLevDeque<int> deque;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      deque.push(i);
    }
    for (int i = 0; i < 64; ++i) {
      benchmark::DoNotOptimize(deque.pop());
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_DequePushPop);

void BM_SchedulerForkJoin(benchmark::State& state) {
  Scheduler sched(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    TaskGroup group(sched);
    for (int i = 0; i < 256; ++i) {
      group.spawn([] {});
    }
    group.wait();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SchedulerForkJoin)->Arg(1)->Arg(2)->Arg(4);

// Spawn/execute throughput of empty tasks across the two spawn paths: the
// slab path with transition timing (current default) vs the pre-slab path
// (operator new per task, two clock reads per task). Arg 0 is the worker
// count, arg 1 selects the path (0 = legacy heap+per-task-timing, 1 = slab).
void BM_SpawnThroughput(benchmark::State& state) {
  SchedulerOptions options;
  if (state.range(1) == 0) {
    options.use_task_slab = false;
    options.timing = TimingMode::kPerTask;
  }
  Scheduler sched(static_cast<unsigned>(state.range(0)), options);
  for (auto _ : state) {
    TaskGroup group(sched);
    for (int i = 0; i < 1024; ++i) {
      group.spawn([] {});
    }
    group.wait();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
  state.SetLabel(state.range(1) == 0 ? "legacy(new+per-task-clock)"
                                     : "slab(default)");
}
BENCHMARK(BM_SpawnThroughput)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}});

// The allocation component alone: slab acquire/release against the operator
// new/delete pair every spawned task used to pay.
void BM_TaskSlabAcquireRelease(benchmark::State& state) {
  TaskSlab slab;
  void* blocks[64];
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      blocks[i] = slab.acquire();
      benchmark::DoNotOptimize(blocks[i]);
    }
    for (int i = 64; i-- > 0;) {
      slab.release_local(blocks[i]);
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_TaskSlabAcquireRelease);

void BM_TaskHeapNewDelete(benchmark::State& state) {
  void* blocks[64];
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      blocks[i] = ::operator new(kTaskSlabBlockSize);
      benchmark::DoNotOptimize(blocks[i]);
    }
    for (int i = 64; i-- > 0;) {
      ::operator delete(blocks[i]);
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_TaskHeapNewDelete);

// The return-list protocol cost (CAS push + exchange drain) measured
// single-threaded: an uncontended lower bound for the steal path. True
// cross-core cost adds cache-line migration on top; the scheduler-level
// CrossWorkerFreeStress test exercises that path for correctness.
void BM_TaskSlabRemoteReturn(benchmark::State& state) {
  TaskSlab slab;
  void* blocks[64];
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      blocks[i] = slab.acquire();
    }
    for (int i = 64; i-- > 0;) {
      slab.release_remote(blocks[i]);
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_TaskSlabRemoteReturn);

void BM_BitsetSetTest(benchmark::State& state) {
  DynamicBitset bits(100000);
  std::size_t i = 0;
  for (auto _ : state) {
    bits.set(i % 100000);
    benchmark::DoNotOptimize(bits.test((i * 31) % 100000));
    i += 97;
  }
}
BENCHMARK(BM_BitsetSetTest);

void BM_WindowQuery(benchmark::State& state) {
  ScaleFreeTemporalParams params;
  params.num_vertices = 2000;
  params.num_edges = 40000;
  params.seed = 9;
  const TemporalGraph graph = scale_free_temporal(params);
  VertexId v = 0;
  Timestamp t = 0;
  for (auto _ : state) {
    const auto window = graph.out_edges_in_window(v, t, t + 10000);
    benchmark::DoNotOptimize(window.size());
    v = (v + 7) % graph.num_vertices();
    t = (t + 997) % 900000;
  }
}
BENCHMARK(BM_WindowQuery);

void BM_JohnsonStateCopy(benchmark::State& state) {
  const VertexId n = static_cast<VertexId>(state.range(0));
  JohnsonState victim(n);
  // Populate a realistic mid-search state: a path plus blocked bookkeeping.
  for (VertexId v = 0; v < n / 4; ++v) {
    victim.push(v, kInvalidEdge);
  }
  for (VertexId v = n / 4; v < n / 2; ++v) {
    victim.exit_failure(v, 100);
    victim.blist_add((v + 1) % n, v);
  }
  JohnsonState thief(n);
  for (auto _ : state) {
    thief.reset();
    thief.copy_from(victim);
    thief.repair_to_prefix({n / 8});
    benchmark::DoNotOptimize(thief.path_length());
  }
}
BENCHMARK(BM_JohnsonStateCopy)->Arg(1024)->Arg(16384);

// The steal-path replay of a Read-Tarjan state, budget- and arrival-keyed.
template <typename Marks>
void BM_ReadTarjanPrefixCopy(benchmark::State& state) {
  const VertexId n = static_cast<VertexId>(state.range(0));
  ReadTarjanState<Marks> victim(n);
  for (VertexId v = 0; v < n / 4; ++v) {
    victim.push(v, kInvalidEdge, v);
    victim.logged_set((v + n / 2) % n, 5);
  }
  ReadTarjanState<Marks> thief(n);
  for (auto _ : state) {
    thief.reset();
    thief.copy_prefix_from(victim, n / 8, n / 8);
    benchmark::DoNotOptimize(thief.path_length());
  }
}
BENCHMARK_TEMPLATE(BM_ReadTarjanPrefixCopy, BudgetMarks)
    ->Arg(1024)
    ->Arg(16384);
BENCHMARK_TEMPLATE(BM_ReadTarjanPrefixCopy, ArrivalMarks)
    ->Arg(1024)
    ->Arg(16384);

void BM_SccTarjan(benchmark::State& state) {
  const Digraph graph = erdos_renyi(5000, 25000, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strongly_connected_components(graph));
  }
}
BENCHMARK(BM_SccTarjan);

// The perfbench temporal-batch input at a tenth of its edges and time span
// (same edge density, same window).
const TemporalGraph& temporal_batch_graph() {
  static const TemporalGraph graph = [] {
    ScaleFreeTemporalParams params;
    params.num_vertices = 400;
    params.num_edges = 60000;
    params.time_span = 300000;
    params.attachment = 0.6;
    params.burstiness = 0.6;
    params.seed = 104;
    return scale_free_temporal(params);
  }();
  return graph;
}
constexpr Timestamp kTemporalBatchWindow = 9600;

// Single-start cycle-unions: compute() for every start that passes the cheap
// neighbour rejection, as the enumerators did before the block pass.
void BM_TemporalReachPerStart(benchmark::State& state) {
  const TemporalGraph& graph = temporal_batch_graph();
  TemporalReachScratch reach;
  reach.init(graph.num_vertices());
  for (auto _ : state) {
    std::size_t closable = 0;
    for (const TemporalEdge& e0 : graph.edges_by_time()) {
      const Timestamp hi = e0.ts + kTemporalBatchWindow;
      if (e0.src == e0.dst ||
          graph.out_edges_in_window(e0.dst, e0.ts + 1, hi).empty() ||
          graph.in_edges_in_window(e0.src, e0.ts + 1, hi).empty()) {
        continue;
      }
      closable += reach.compute(graph, e0, hi) ? 1 : 0;
    }
    benchmark::DoNotOptimize(closable);
  }
  state.SetItemsProcessed(state.iterations() * graph.num_edges());
}
BENCHMARK(BM_TemporalReachPerStart)->Unit(benchmark::kMillisecond);

// The same unions from one forward + backward scan per
// CycleUnionBlock::kStarts (256) starts.
void BM_TemporalBlockUnion(benchmark::State& state) {
  const TemporalGraph& graph = temporal_batch_graph();
  CycleUnionBlock block(graph, kTemporalBatchWindow);
  for (auto _ : state) {
    std::size_t closable = 0;
    for (const TemporalEdge& e0 : graph.edges_by_time()) {
      closable += block.view(e0.id).contains(e0.dst) ? 1 : 0;
    }
    benchmark::DoNotOptimize(closable);
  }
  state.SetItemsProcessed(state.iterations() * graph.num_edges());
}
BENCHMARK(BM_TemporalBlockUnion)->Unit(benchmark::kMillisecond);

// The same unions in the drivers' two phases: the closability pass (the
// forward scan alone over blocks of 256 consecutive starts), then the full
// scans over blocks of 256 closable starts. Against BM_TemporalBlockUnion
// it is the gain of packing the blocks.
void BM_TemporalPackedUnion(benchmark::State& state) {
  const TemporalGraph& graph = temporal_batch_graph();
  ScratchPool<CycleUnionBlock> pool([&] {
    return std::make_unique<CycleUnionBlock>(graph, kTemporalBatchWindow);
  });
  std::size_t closable = 0;
  for (auto _ : state) {
    const std::vector<EdgeId> starts =
        roots::closable_starts(graph.num_edges(), pool, nullptr);
    auto block = pool.acquire();
    block->serve(starts);
    closable = 0;
    for (const EdgeId start : starts) {
      closable += block->view(start).contains(graph.edge(start).dst) ? 1 : 0;
    }
    pool.release(std::move(block));
    benchmark::DoNotOptimize(closable);
  }
  state.counters["closable"] = static_cast<double>(closable);
  state.SetItemsProcessed(state.iterations() * graph.num_edges());
}
BENCHMARK(BM_TemporalPackedUnion)->Unit(benchmark::kMillisecond);

// The serial temporal Johnson run on the same input: the block pass above
// plus the explore DFS, so the difference of the two is the DFS alone.
void BM_TemporalSerialJohnson(benchmark::State& state) {
  const TemporalGraph& graph = temporal_batch_graph();
  EnumResult result;
  for (auto _ : state) {
    result = temporal_johnson_cycles(graph, kTemporalBatchWindow);
    benchmark::DoNotOptimize(result.num_cycles);
  }
  state.counters["cycles"] = static_cast<double>(result.num_cycles);
  state.counters["edges_visited"] =
      static_cast<double>(result.work.edges_visited);
  state.SetItemsProcessed(state.iterations() * graph.num_edges());
}
BENCHMARK(BM_TemporalSerialJohnson)->Unit(benchmark::kMillisecond);

// The whole fine-grained temporal Johnson run on the same input: block
// pass plus the explore DFS. Arg 0 is the worker count. The counters are
// the last iteration's; on one worker the run spawns no task and visits the
// serial run's edges.
void BM_TemporalFineJohnson(benchmark::State& state) {
  const TemporalGraph& graph = temporal_batch_graph();
  Scheduler sched(static_cast<unsigned>(state.range(0)));
  EnumResult result;
  for (auto _ : state) {
    result = fine_temporal_johnson_cycles(graph, kTemporalBatchWindow, sched);
    benchmark::DoNotOptimize(result.num_cycles);
  }
  state.SetItemsProcessed(state.iterations() * graph.num_edges());
  state.counters["tasks_spawned"] =
      static_cast<double>(result.work.tasks_spawned);
  state.counters["edges_visited"] =
      static_cast<double>(result.work.edges_visited);
}
BENCHMARK(BM_TemporalFineJohnson)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The perfbench temporal-batch input at full size (600k edges, time
// ordered, as save_temporal_edge_list writes it), saved once per process to
// a temporary text file that is removed at exit.
const std::string& temporal_batch_text_file() {
  struct TextFile {
    std::string path;
    TextFile() {
      ScaleFreeTemporalParams params;
      params.num_vertices = 400;
      params.num_edges = 600000;
      params.time_span = 3000000;
      params.attachment = 0.6;
      params.burstiness = 0.6;
      params.seed = 104;
      path = (std::filesystem::temp_directory_path() /
              ("parcycle_micro_" + std::to_string(::getpid()) + ".txt"))
                 .string();
      save_temporal_edge_list_file(scale_free_temporal(params), path);
    }
    ~TextFile() {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  };
  static const TextFile file;
  return file.path;
}

double max_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Ten parallel text loads of that file on 4 workers: parse plus graph
// finalisation. maxrss_growth_mb is the process peak RSS gained between the
// end of the first load and the end of the tenth: a load that leaves
// allocator debris behind grows it with every repeat.
void BM_TemporalLoadText(benchmark::State& state) {
  const std::string& path = temporal_batch_text_file();
  Scheduler sched(4);
  double finalise_s = 0.0;
  double rss_after_first = -1.0;
  for (auto _ : state) {
    LoadStats stats;
    const TemporalGraph graph =
        load_temporal_edge_list_file_parallel(path, sched, {}, &stats);
    benchmark::DoNotOptimize(graph.num_edges());
    finalise_s += stats.finalise_seconds;
    if (rss_after_first < 0.0) {
      rss_after_first = max_rss_mb();
    }
  }
  state.counters["finalise_s"] =
      benchmark::Counter(finalise_s, benchmark::Counter::kAvgIterations);
  state.counters["maxrss_mb"] = max_rss_mb();
  state.counters["maxrss_growth_mb"] = max_rss_mb() - rss_after_first;
}
BENCHMARK(BM_TemporalLoadText)->Iterations(10)->Unit(benchmark::kMillisecond);

// The perfbench stream-sparse feed at a tenth of its edges and time span
// (same density, window and reorder slack), shuffled within the slack by
// sorting on ts + uniform[0, slack].
constexpr Timestamp kStreamSparseWindow = 32000;
constexpr Timestamp kStreamSparseSlack = kStreamSparseWindow / 8;
constexpr VertexId kStreamSparseVertices = 6000;

const std::vector<TemporalEdge>& stream_sparse_feed() {
  static const std::vector<TemporalEdge> feed = [] {
    ScaleFreeTemporalParams params;
    params.num_vertices = kStreamSparseVertices;
    params.num_edges = 120000;
    params.time_span = 800000;
    params.attachment = 0.8;
    params.burstiness = 0.6;
    params.seed = 107;
    const TemporalGraph graph = scale_free_temporal(params);
    SplitMix64 rng(107);
    std::vector<std::pair<Timestamp, TemporalEdge>> keyed;
    for (const TemporalEdge& e : graph.edges_by_time()) {
      keyed.emplace_back(
          e.ts + static_cast<Timestamp>(rng.next() % (kStreamSparseSlack + 1)),
          e);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::vector<TemporalEdge> out;
    for (const auto& k : keyed) {
      out.push_back(k.second);
    }
    return out;
  }();
  return feed;
}

// A whole StreamEngine replay with default options: reorder, window upkeep
// and the batch dispatch of near-empty searches. Arg 0 is the worker count.
void BM_StreamReplaySparse(benchmark::State& state) {
  const std::vector<TemporalEdge>& feed = stream_sparse_feed();
  Scheduler sched(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    StreamOptions options;
    options.window = kStreamSparseWindow;
    options.reorder_slack = kStreamSparseSlack;
    options.num_vertices_hint = kStreamSparseVertices;
    StreamEngine engine(options, sched, nullptr);
    for (const TemporalEdge& e : feed) {
      engine.push(e.src, e.dst, e.ts);
    }
    engine.flush();
    benchmark::DoNotOptimize(engine.cycles_found());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(feed.size()));
}
BENCHMARK(BM_StreamReplaySparse)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace parcycle

BENCHMARK_MAIN();
