// One workload of the end-to-end benchmark, run in its own process by
// run.py:
//
//   perfbench_workload --workload adapt_belem|serve_jakarta|shots_belem
//                      --seed N --seconds S --trace 0|1
//                      [--setup-only 0|1] --out RESULT.json --workdir DIR
//
// stdout carries only "progress" lines; the result document goes to --out.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--setup-only") {
      options.setup_only = value == "1";
    } else if (flag == "--out") {
      options.out = value;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.out.empty() && !options.workdir.empty() &&
         options.seconds > 0;
}

}  // namespace

namespace {

// Ends the process without static destructors. The library's global
// ThreadPool joins its workers on destruction, and a worker caught by the
// ThreadPool::parallel_for race (README.md) can block forever on the
// caller's dead done_mutex; the join would then hang a process whose
// result is already written until the runner's deadline kills it.
[[noreturn]] void finish(int code) {
  std::cout.flush();
  std::cerr.flush();
  std::fflush(nullptr);
  std::_Exit(code);
}

int run(int argc, char** argv) {
  perfbench::Options options;
  try {
    if (!parse(argc, argv, options)) {
      std::cerr << "usage: perfbench_workload --workload NAME --seed N "
                   "--seconds S --trace 0|1 [--setup-only 0|1] --out FILE "
                   "--workdir DIR\n";
      return 2;
    }
    perfbench::Tracer tracer(options.trace);
    perfbench::Progress progress;
    perfbench::Result result;
    int code = 2;
    if (options.workload == "adapt_belem") {
      code = perfbench::run_adapt(options, tracer, progress, result);
    } else if (options.workload == "serve_jakarta") {
      code = perfbench::run_serve(options, tracer, progress, result);
    } else if (options.workload == "shots_belem") {
      code = perfbench::run_shots(options, tracer, progress, result);
    } else {
      std::cerr << "unknown workload " << options.workload << "\n";
      return 2;
    }
    result.write(options.out, options, progress, tracer);
    return code;
  } catch (const std::exception& e) {
    std::cerr << "workload " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) { finish(run(argc, argv)); }
