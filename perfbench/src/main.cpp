// Benchmark runner binary: runs one seeded workload against the library's
// public API and prints its raw record (one JSON line) on stdout.
//
//   protea_perfbench --workload <decode_batch|prefix_storm|encoder_batch>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// Exit codes: 0 correct, 1 an output check failed (the record is still
// printed), 2 bad arguments or an exception.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value != "0";
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 &&
         (args.workload == "decode_batch" || args.workload == "prefix_storm" ||
          args.workload == "encoder_batch");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <decode_batch|prefix_storm|"
                 "encoder_batch> --seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  try {
    perfbench::Json j;
    j.begin_object()
        .text("workload", args.workload)
        .count("seed", args.seed)
        .flag("trace", args.trace);
    perfbench::write_host(j);
    j.real("table1_err_pct", perfbench::table1_err_pct());
    const bool ok = args.workload == "encoder_batch"
                        ? perfbench::run_encoder_workload(args, j)
                        : perfbench::run_decoder_workload(args, j);
    j.end_object();
    std::printf("%s\n", j.str().c_str());
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "protea_perfbench: %s\n", e.what());
    return 2;
  }
}
