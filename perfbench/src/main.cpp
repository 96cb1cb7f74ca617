// canids benchmark driver:
//
//   canids_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --workdir DIR
//
// Workloads: fleet-clean, fleet-attacked, serve-paced, campaign-grid (see
// perfbench/README.md). Prints the host record, every metric by name and
// unit, and as the last stdout line the result JSON; exits 1 when any
// output check fails, 2 on a usage, build or host error.
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "bench_lib.h"
#include "workloads.h"

namespace perfbench {

void check_threads(unsigned threads, Result& result) {
  const unsigned nproc = host_info().nproc;
  if (threads > nproc) {
    result.fail("workload needs " + std::to_string(threads) +
                " threads but the host has " + std::to_string(nproc));
  }
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: canids_perfbench --workload "
               "fleet-clean|fleet-attacked|serve-paced|campaign-grid "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--workdir") {
        options.workdir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 != 1 || options.workdir.empty() || options.seconds < 1) {
    return usage();
  }

  const HostInfo host = host_info();
  if (host.build_type != "Release") {
    std::fprintf(stderr, "refusing to measure a %s build; build Release\n",
                 host.build_type.c_str());
    return 2;
  }

  namespace fs = std::filesystem;
  options.scratch = (fs::path(options.workdir) /
                     ("run-" + std::to_string(::getpid())))
                        .string();
  fs::create_directories(options.scratch);

  Result result;
  int status = 0;
  try {
    if (options.workload == "fleet-clean") {
      run_fleet_workload(options, /*attacked=*/false, result);
    } else if (options.workload == "fleet-attacked") {
      run_fleet_workload(options, /*attacked=*/true, result);
    } else if (options.workload == "serve-paced") {
      run_serve_workload(options, result);
    } else if (options.workload == "campaign-grid") {
      run_campaign_workload(options, result);
    } else {
      status = usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark error: %s\n", e.what());
    status = 1;
  }
  std::error_code ignored;
  fs::remove_all(options.scratch, ignored);
  if (status != 0) return status;

  std::printf("workload %s seed %llu, %d s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  print_result(result, options.trace);
  return result.correct ? 0 : 1;
}
