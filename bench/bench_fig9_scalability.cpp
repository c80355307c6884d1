// Figure 9 reproduction: strong scaling of temporal cycle enumeration.
//
// Two complementary measurements per dataset:
//  1. Real multi-threaded wall clock at 1/2/4 threads (the container has one
//     physical core, so these mostly validate that threading adds no
//     correctness or pathological overhead cost).
//  2. Simulated speedups at 1..1024 virtual cores driven by the *measured*
//     per-starting-edge work profile — the hardware-independent form of the
//     figure: fine-grained tracks the core count until tasks run out;
//     coarse-grained saturates at total_work / max_single_search; 2SCENT's
//     sequential preprocessing bounds its useful parallelism (it is the
//     serial baseline, plotted as its slowdown factor vs serial Johnson).
#include <algorithm>
#include <iostream>
#include <string>

#include "bench_support/cli.hpp"
#include "bench_support/datasets.hpp"
#include "bench_support/runner.hpp"
#include "bench_support/table.hpp"
#include "obs/stream_service.hpp"
#include "schedsim/simulator.hpp"

using namespace parcycle;

int main(int argc, char** argv) {
  if (help_requested(argc, argv,
                     "usage: bench_fig9_scalability [all] [observability "
                     "service flags]\n"
                     "Strong-scaling sweep on simulated cores plus a real "
                     "thread sweep; pass 'all' for the full roster.\n"
                     "--trace-out and --profile-out files cover each "
                     "real-thread replay (overwritten per\nreplay: the "
                     "surviving file is the last dataset at the highest "
                     "thread count). Traced replays\nuse per-task timing — "
                     "ignore their wall clocks.\n\n")) {
    std::cout << kServiceObsUsage;
    return 0;
  }
  std::size_t limit = 4;
  ServiceOptions service_options;
  std::string flag_error;
  for (int i = 1; i < argc; ++i) {
    if (parse_service_flag(argc, argv, i, service_options, &flag_error)) {
      continue;
    }
    if (std::string(argv[i]) == "all") {
      limit = dataset_registry().size();
    }
  }
  service_options.require_obs_only(&flag_error);
  if (!flag_error.empty()) {
    std::cerr << "error: " << flag_error << "\n";
    return 2;
  }
  const unsigned sim_cores[] = {1, 4, 16, 64, 256, 1024};

  std::cout << "=== Figure 9: strong scaling (simulated cores from measured "
               "work profiles) ===\n\n";

  std::size_t done = 0;
  for (const auto& spec : dataset_registry()) {
    if (done >= limit) {
      break;
    }
    done += 1;
    const TemporalGraph graph = build_dataset(spec);
    const Timestamp window = calibrate_window(graph, /*temporal=*/true);

    // Measured profile + serial references.
    const StartCosts costs = collect_temporal_start_costs(graph, window);
    const double granularity = std::max(costs.total_cost / 20000.0, 16.0);

    // Scoped via with_pool so the warm-up scheduler is torn down before the
    // real thread sweep below constructs its own (one per thread at a time).
    RunOutcome serial;
    RunOutcome two_scent;
    Scheduler::with_pool(1, [&](Scheduler& warm) {
      serial = run_temporal(Algo::kSerialJohnson, graph, window, warm);
      two_scent = run_temporal(Algo::kTwoScent, graph, window, warm);
    });

    std::cout << "--- " << spec.name << " (window "
              << TextTable::count(static_cast<std::uint64_t>(window)) << ", "
              << TextTable::count(serial.result.num_cycles)
              << " cycles; serial Johnson "
              << TextTable::with_unit(serial.seconds) << ", 2SCENT "
              << TextTable::with_unit(two_scent.seconds) << " = "
              << TextTable::fixed(two_scent.seconds /
                                  std::max(serial.seconds, 1e-9), 2)
              << "x serial) ---\n";

    TextTable table({"virtual cores", "fine speedup", "coarse speedup",
                     "fine imbalance", "coarse imbalance"});
    for (const unsigned cores : sim_cores) {
      const SimResult fine = simulate_fine(costs.jobs, cores, granularity);
      const SimResult coarse = simulate_coarse(costs.jobs, cores);
      table.add_row({std::to_string(cores),
                     TextTable::fixed(fine.speedup_vs_serial(), 1),
                     TextTable::fixed(coarse.speedup_vs_serial(), 1),
                     TextTable::fixed(fine.imbalance(), 2),
                     TextTable::fixed(coarse.imbalance(), 2)});
    }
    table.print(std::cout);

    // Real thread sweep (timeshared on one core).
    TextTable real({"threads", "fine-J wall", "coarse-J wall", "cycles"});
    for (const unsigned threads : {1u, 2u, 4u}) {
      // The service writes this replay's trace and profile on scope exit,
      // after the pool joined; the surviving files are the last dataset at
      // the highest thread count.
      StreamService service(service_options, threads,
                            "bench_fig9_scalability");
      if (const int rc = service.start()) {
        return rc;
      }
      Scheduler& sched = service.scheduler();
      const auto fj = run_temporal(Algo::kFineJohnson, graph, window, sched);
      const auto cj = run_temporal(Algo::kCoarseJohnson, graph, window, sched);
      real.add_row({std::to_string(threads), TextTable::with_unit(fj.seconds),
                    TextTable::with_unit(cj.seconds),
                    TextTable::count(fj.result.num_cycles)});
    }
    real.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Paper reference: fine-grained algorithms scale near-linearly "
               "to 256 cores (up to 435x/470x at 1024 threads);\ncoarse-"
               "grained saturates 1-2 orders of magnitude lower; 2SCENT runs "
               "at roughly serial-Johnson speed (0.5x-1.6x).\n";
  return 0;
}
