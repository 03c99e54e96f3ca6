// sda_perfbench — one run of one benchmark workload.
//
//   sda_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--short] [--work-dir <dir>]
//   sda_perfbench --pin --workload <name> --seeds <first>-<last> [--reps <r>]
//                 [--short]
//
// --pin prints the digest lines digests.txt pins: the model digest of
// replications 0..r-1 of each run seed (simulator workloads), or the
// service script's decision digest of each run seed (serve-socket; every
// workload's service part runs that script).
//
// Prints progress and information on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit code 0 when the run completed (even with a failed check: the result
// line reports it), 2 on bad arguments or an exception.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "pb/workloads.hpp"
#include "src/exp/runner.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "sda_perfbench: " << why
            << "\nusage: sda_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--short] [--work-dir <dir>]\n"
               "       sda_perfbench --pin --workload <name> --seeds <a>-<b> "
               "[--reps <r>] [--short]\n";
  return 2;
}

void pin(const perfbench::RunArgs& args, std::uint64_t first,
         std::uint64_t last, int reps) {
  const std::string mode = args.short_mode ? "-short" : "";
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    perfbench::RunArgs a = args;
    a.seed = seed;
    if (perfbench::is_sim_workload(args.workload)) {
      for (int rep = 0; rep < reps; ++rep) {
        const std::uint64_t rs = sda::exp::replication_seed(seed, rep);
        std::cout << args.workload << " sim" << mode << " " << rs << " "
                  << perfbench::hex64(perfbench::sim_digest(a, rs)) << std::endl;
      }
    } else {
      std::cout << args.workload << " serve" << mode << " " << seed << " "
                << perfbench::hex64(perfbench::serve_digest(a)) << std::endl;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.work_dir = ".perfbench_work";
#ifdef PERFBENCH_DIGESTS
  args.digests_path = PERFBENCH_DIGESTS;
#endif
  bool pin_mode = false;
  std::uint64_t first = 0, last = 0;
  int reps = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        args.workload = value();
      } else if (a == "--seed") {
        args.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        args.trace = value() != "0";
      } else if (a == "--short") {
        args.short_mode = true;
      } else if (a == "--work-dir") {
        args.work_dir = value();
      } else if (a == "--pin") {
        pin_mode = true;
      } else if (a == "--seeds") {
        const std::string range = value();
        const std::size_t dash = range.find('-');
        first = std::stoull(range.substr(0, dash));
        last = dash == std::string::npos ? first : std::stoull(range.substr(dash + 1));
      } else if (a == "--reps") {
        reps = std::stoi(value());
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) {
    known = known || w == args.workload;
  }
  if (!known) return usage(("unknown workload '" + args.workload + "'").c_str());
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
  if (pin_mode) {
    pin(args, first, last, reps);
    return 0;
  }

  try {
    std::filesystem::create_directories(args.work_dir);
    perfbench::Outcome out;
    perfbench::Values values;
    // The simulator workloads give the run's budget to the simulator and
    // then run the service part's fixed minimum; serve-socket gives the
    // budget to the service.
    if (perfbench::is_sim_workload(args.workload)) {
      perfbench::run_sim_part(args, args.seconds, out, values);
      perfbench::run_serve_part(args, 0.0, out, values);
    } else {
      perfbench::run_serve_part(args, args.seconds, out, values);
    }
    const auto& names = args.trace ? perfbench::per_layer_metrics()
                                   : perfbench::end_to_end_metrics();
    for (const perfbench::MetricName& m : names) {
      const auto it = values.find(m.name);
      out.add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
    }
    std::cout << out.json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "sda_perfbench: error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
