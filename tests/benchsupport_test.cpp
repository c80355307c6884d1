#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_support/cli.hpp"
#include "bench_support/datasets.hpp"
#include "bench_support/json.hpp"
#include "bench_support/partition.hpp"
#include "bench_support/runner.hpp"
#include "bench_support/table.hpp"
#include "graph/generators.hpp"

namespace parcycle {
namespace {

TEST(Json, WriterEmitsStableObjectTree) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_object();
    json.kv("bench", "demo");
    json.kv("threads", 4u);
    json.key("rows");
    json.begin_array();
    json.begin_object();
    json.kv("hops", 3);
    json.kv("seconds", 0.25);
    json.kv("quoted", "a\"b\\c");
    json.kv("ok", true);
    json.end_object();
    json.end_array();
    // The destructor closes the root object and appends the newline.
  }
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"threads\": 4,\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"hops\": 3,\n"
            "      \"seconds\": 0.25,\n"
            "      \"quoted\": \"a\\\"b\\\\c\",\n"
            "      \"ok\": true\n"
            "    }\n"
            "  ]\n"
            "}\n");
}

TEST(Json, EmptyContainersAndRoundTrippableDoubles) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_object();
    json.key("empty_array");
    json.begin_array();
    json.end_array();
    json.key("empty_object");
    json.begin_object();
    json.end_object();
    json.kv("third", 1.0 / 3.0);
  }
  const std::string text = out.str();
  EXPECT_NE(text.find("\"empty_array\": []"), std::string::npos) << text;
  EXPECT_NE(text.find("\"empty_object\": {}"), std::string::npos) << text;
  double parsed = 0.0;
  const std::size_t pos = text.find("\"third\": ");
  ASSERT_NE(pos, std::string::npos);
  std::istringstream(text.substr(pos + 9)) >> parsed;
  EXPECT_EQ(parsed, 1.0 / 3.0);
}

TEST(Runner, HopConstrainedDispatchAgreesAcrossAlgos) {
  const TemporalGraph graph = build_dataset(dataset_by_name("BA"));
  const Timestamp window = 400;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    for (const int hops : {3, 4}) {
      const auto hc =
          run_hop_constrained(Algo::kSerialHcDfs, graph, window, hops, sched);
      for (const Algo algo : {Algo::kFineHcDfs, Algo::kSerialJohnson,
                              Algo::kFineJohnson, Algo::kSerialReadTarjan}) {
        const auto other =
            run_hop_constrained(algo, graph, window, hops, sched);
        EXPECT_EQ(other.result.num_cycles, hc.result.num_cycles)
            << algo_name(algo) << " hops=" << hops;
      }
    }
    EXPECT_THROW(run_hop_constrained(Algo::kTwoScent, graph, window, 3, sched),
                 std::invalid_argument);
  });
}

TEST(Json, OutputPathFlagParsing) {
  const char* argv_with[] = {"bench", "quick", "--json", "/tmp/x.json"};
  EXPECT_EQ(json_output_path(4, const_cast<char**>(argv_with)), "/tmp/x.json");
  const char* argv_without[] = {"bench", "quick"};
  EXPECT_EQ(json_output_path(2, const_cast<char**>(argv_without)), "");
  const char* argv_dangling[] = {"bench", "--json"};
  EXPECT_EQ(json_output_path(2, const_cast<char**>(argv_dangling)), "");
}

TEST(Datasets, RegistryHasAllFifteenTable4Entries) {
  EXPECT_EQ(dataset_registry().size(), 15u);
  EXPECT_EQ(dataset_by_name("WT").full_name, "wiki-talk");
  EXPECT_THROW(dataset_by_name("nope"), std::out_of_range);
}

TEST(Datasets, AnalogsBuildDeterministically) {
  const auto& spec = dataset_by_name("BA");
  const TemporalGraph a = build_dataset(spec);
  const TemporalGraph b = build_dataset(spec);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.num_vertices(), spec.vertices);
  EXPECT_EQ(a.num_edges(), spec.edges);
  EXPECT_EQ(a.edge(0).ts, b.edge(0).ts);
}

TEST(Datasets, ResolveFallsBackToSyntheticWithoutDirectory) {
  const auto& spec = dataset_by_name("BA");
  const DatasetSource none = resolve_dataset(spec, "");
  EXPECT_FALSE(none.is_real());
  EXPECT_EQ(none.provenance, DatasetProvenance::kSynthetic);
  EXPECT_TRUE(none.path.empty());
  const DatasetSource missing = resolve_dataset(spec, "/nonexistent/dir");
  EXPECT_FALSE(missing.is_real());
  const TemporalGraph graph = none.load();
  EXPECT_EQ(graph.num_edges(), spec.edges);
}

TEST(Datasets, ResolveDiscoversRealFilesAndPrefersCaches) {
  const auto& spec = dataset_by_name("CO");
  const std::string dir = testing::TempDir();
  const std::string text_path =
      (std::filesystem::path(dir) / (spec.full_name + ".txt")).string();
  {
    std::ofstream out(text_path);
    out << "0 1 10\n1 2 20\n2 0 30\n";
  }
  const DatasetSource text = resolve_dataset(spec, dir);
  ASSERT_TRUE(text.is_real());
  EXPECT_EQ(text.provenance, DatasetProvenance::kRealText);
  EXPECT_EQ(text.path, text_path);

  // Loading with update_cache writes the sidecar; resolution then prefers
  // streaming it over re-parsing the text.
  LoadStats stats;
  const TemporalGraph parsed =
      text.load(nullptr, &stats, /*update_cache=*/true);
  EXPECT_EQ(parsed.num_edges(), 3u);
  EXPECT_EQ(stats.edges_loaded, 3u);
  const DatasetSource cached = resolve_dataset(spec, dir);
  ASSERT_TRUE(cached.is_real());
  EXPECT_EQ(cached.provenance, DatasetProvenance::kRealCache);
  EXPECT_EQ(cached.path, text_path + ".pcg");
  const TemporalGraph reloaded = cached.load();
  ASSERT_EQ(reloaded.num_edges(), parsed.num_edges());
  EXPECT_EQ(reloaded.edge(0).src, parsed.edge(0).src);

  // A re-fetched (newer) text file must not be shadowed by the stale cache.
  std::filesystem::last_write_time(
      text_path, std::filesystem::last_write_time(text_path + ".pcg") +
                     std::chrono::seconds(2));
  const DatasetSource refreshed = resolve_dataset(spec, dir);
  ASSERT_TRUE(refreshed.is_real());
  EXPECT_EQ(refreshed.provenance, DatasetProvenance::kRealText);
  EXPECT_EQ(refreshed.path, text_path);

  std::remove((text_path + ".pcg").c_str());
  std::remove(text_path.c_str());
}

TEST(Datasets, ProvenanceNames) {
  EXPECT_STREQ(provenance_name(DatasetProvenance::kSynthetic), "analog");
  EXPECT_STREQ(provenance_name(DatasetProvenance::kRealText), "real");
  EXPECT_STREQ(provenance_name(DatasetProvenance::kRealCache), "real-cache");
}

TEST(Partition, RoundRobinByTimestampOrder) {
  const auto& spec = dataset_by_name("BA");
  const TemporalGraph graph = build_dataset(spec);
  const auto partition = partition_starting_edges(graph, 4);
  ASSERT_EQ(partition.size(), 4u);
  std::size_t total = 0;
  for (const auto& rank : partition) {
    total += rank.size();
  }
  EXPECT_EQ(total, graph.num_edges());
  // Consecutive edge ids land on consecutive ranks.
  EXPECT_EQ(partition[0][0], 0u);
  EXPECT_EQ(partition[1][0], 1u);
  EXPECT_EQ(partition[2][0], 2u);
  EXPECT_EQ(partition[3][0], 3u);
}

TEST(Partition, BalanceOfUniformCostsIsNearPerfect) {
  const auto& spec = dataset_by_name("BA");
  const TemporalGraph graph = build_dataset(spec);
  const auto partition = partition_starting_edges(graph, 8);
  std::vector<SimJob> costs(graph.num_edges(), SimJob{1.0, 0.0});
  const PartitionBalance balance = evaluate_partition(partition, costs);
  EXPECT_LT(balance.imbalance, 1.01);
}

TEST(Runner, AlgorithmsAgreeViaDispatch) {
  const auto& spec = dataset_by_name("BA");
  const TemporalGraph graph = build_dataset(spec);
  Scheduler sched(2);
  const Timestamp window = graph.time_span() / 16;
  const auto serial = run_temporal(Algo::kSerialJohnson, graph, window, sched);
  const auto fine = run_temporal(Algo::kFineJohnson, graph, window, sched);
  const auto rt = run_temporal(Algo::kSerialReadTarjan, graph, window, sched);
  EXPECT_EQ(fine.result.num_cycles, serial.result.num_cycles);
  EXPECT_EQ(rt.result.num_cycles, serial.result.num_cycles);
  EXPECT_GT(serial.seconds, 0.0);
}

TEST(Runner, AlgoNamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(Algo::kBrute); ++i) {
    const Algo algo = static_cast<Algo>(i);
    Algo parsed = Algo::kBrute;
    ASSERT_TRUE(parse_algo(algo_name(algo), &parsed)) << algo_name(algo);
    EXPECT_EQ(parsed, algo) << algo_name(algo);
  }
  // The command-line spellings.
  const std::pair<const char*, Algo> spellings[] = {
      {"fine-johnson", Algo::kFineJohnson},
      {"fine-rt", Algo::kFineReadTarjan},
      {"coarse-johnson", Algo::kCoarseJohnson},
      {"coarse-rt", Algo::kCoarseReadTarjan},
      {"serial-johnson", Algo::kSerialJohnson},
      {"serial-rt", Algo::kSerialReadTarjan},
      {"tiernan", Algo::kTiernan},
      {"2scent", Algo::kTwoScent},
      {"brute", Algo::kBrute}};
  for (const auto& [name, algo] : spellings) {
    Algo parsed = Algo::kBrute;
    ASSERT_TRUE(parse_algo(name, &parsed)) << name;
    EXPECT_EQ(parsed, algo) << name;
  }
  Algo parsed = Algo::kBrute;
  EXPECT_FALSE(parse_algo("johnson", &parsed));
  EXPECT_FALSE(parse_algo("", &parsed));
}

// Every (task, algorithm) pair the runner offers reports each cycle it
// counts to the sink, and every pair it lacks throws.
TEST(Runner, EveryDispatchFeedsTheSink) {
  ScaleFreeTemporalParams params;
  params.num_vertices = 40;
  params.num_edges = 300;
  params.time_span = 3000;
  params.seed = 11;
  const TemporalGraph graph = scale_free_temporal(params);
  const Digraph digraph = graph.static_projection();
  const Timestamp window = 300;
  EnumOptions options;
  options.max_cycle_length = 5;  // keeps Tiernan and brute force small
  const auto check = [](const char* task, Algo algo, const auto& run) {
    CountingSink sink;
    const RunOutcome outcome = run(&sink);
    EXPECT_EQ(outcome.result.num_cycles, sink.count())
        << task << " " << algo_name(algo);
    EXPECT_GT(sink.count(), 0u) << task << " " << algo_name(algo);
  };
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    for (int i = 0; i <= static_cast<int>(Algo::kBrute); ++i) {
      const Algo algo = static_cast<Algo>(i);
      const bool hc = algo == Algo::kSerialHcDfs || algo == Algo::kFineHcDfs;
      const auto simple = [&](CycleSink* sink) {
        return run_simple(algo, digraph, sched, options, sink);
      };
      const auto windowed = [&](CycleSink* sink) {
        return run_windowed_simple(algo, graph, window, sched, options, {},
                                   sink);
      };
      const auto temporal = [&](CycleSink* sink) {
        return run_temporal(algo, graph, window, sched, options, {}, sink);
      };
      if (hc || algo == Algo::kTwoScent || algo == Algo::kBrute) {
        EXPECT_THROW(simple(nullptr), std::invalid_argument) << algo_name(algo);
      } else {
        check("simple", algo, simple);
      }
      if (hc || algo == Algo::kTwoScent || algo == Algo::kBrute) {
        EXPECT_THROW(windowed(nullptr), std::invalid_argument)
            << algo_name(algo);
      } else {
        check("windowed", algo, windowed);
      }
      if (hc || algo == Algo::kTiernan) {
        EXPECT_THROW(temporal(nullptr), std::invalid_argument)
            << algo_name(algo);
      } else {
        check("temporal", algo, temporal);
      }
      if (hc) {
        check("hop-constrained", algo, [&](CycleSink* sink) {
          return run_hop_constrained(algo, graph, window, 4, sched, {}, {},
                                     sink);
        });
        check("static hop-constrained", algo, [&](CycleSink* sink) {
          return run_hop_constrained(algo, digraph, 4, {}, sink);
        });
      } else {
        EXPECT_THROW(run_hop_constrained(algo, digraph, 4),
                     std::invalid_argument)
            << algo_name(algo);
      }
    }
  });
}

TEST(Cli, ThreadCountsParseAndReject) {
  std::vector<unsigned> counts;
  std::string error;
  ASSERT_TRUE(parse_thread_counts("1,2,4", &counts, &error)) << error;
  EXPECT_EQ(counts, (std::vector<unsigned>{1, 2, 4}));
  ASSERT_TRUE(parse_thread_counts("1024", &counts, &error)) << error;
  EXPECT_EQ(counts, std::vector<unsigned>{1024});
  for (const char* bad :
       {"-1", "0", "1025", "abc", "1,,2", "4294967297", "", "2,", "3x"}) {
    error.clear();
    EXPECT_FALSE(parse_thread_counts(bad, &counts, &error)) << bad;
    EXPECT_NE(error, "") << bad;
  }
}

TEST(Runner, StartCostsCoverEveryEdge) {
  const auto& spec = dataset_by_name("BA");
  const TemporalGraph graph = build_dataset(spec);
  const StartCosts costs =
      collect_temporal_start_costs(graph, graph.time_span() / 16);
  EXPECT_EQ(costs.jobs.size(), graph.num_edges());
  EXPECT_GT(costs.total_cost, 0.0);
  EXPECT_GE(costs.max_cost, 1.0);
  // A window wide enough that the searches do real work: each start costs
  // its serial temporal Johnson's edge and vertex visits, plus one.
  const StartCosts wide =
      collect_temporal_start_costs(graph, graph.time_span() / 2);
  EXPECT_EQ(wide.jobs.size(), graph.num_edges());
  EXPECT_EQ(wide.total_cost, 6614.0);
  EXPECT_EQ(wide.max_cost, 67.0);
}

TEST(Runner, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometric_mean({4.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
  EXPECT_NEAR(geometric_mean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Table, FormatsAndPrints) {
  TextTable table({"a", "bb"});
  table.add_row({"1", "2"});
  table.add_row({"333"});
  std::ostringstream out;
  table.print(out);
  EXPECT_NE(out.str().find("| a   | bb |"), std::string::npos);
  EXPECT_EQ(TextTable::count(1234567), "1,234,567");
  EXPECT_EQ(TextTable::count(12), "12");
  EXPECT_EQ(TextTable::fixed(1.2345, 2), "1.23");
  EXPECT_EQ(TextTable::with_unit(0.5), "500.0ms");
}

}  // namespace
}  // namespace parcycle
