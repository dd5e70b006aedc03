// The repo benchmark: runs one workload, checks its outputs, prints a
// report and, as its last line, one JSON object with the run's verdict and
// metrics (the gated end-to-end metrics, or with --trace=1 the per-layer
// metrics). Built and invoked by perfbench/run.py.

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adaptive_uniform.h"
#include "common/simd.h"
#include "common/task_scheduler.h"
#include "readwrite_clustered.h"
#include "serve_mixed.h"

extern char** environ;

namespace perfbench {
namespace {

/// The per-layer metrics every workload measures — the `per_layer` list of
/// BENCHMARK.json. The traced run prints the workload-specific rest too.
const char* const kJsonLayers[] = {
    "crack_array.crack_ns_per_row", "crack_array.median_split_ns_per_row",
    "crack_array.scan_ns_per_row",  "crack_array.erase_ns",
    "quasii.cracking_ms",           "quasii.cracking_queries",
    "quasii.converged_us",          "quasii.cracks",
    "quasii.objects_moved",         "quasii.moved_per_crack",
    "quasii.tested_per_result",     "quasii.visited_per_query",
    "quasii.bytes_per_query",       "quasii.range_us",
    "quasii.point_us",              "quasii.count_us",
    "quasii.knn_us",                "quasii.converged_share",
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload=adaptive_uniform|"
               "readwrite_clustered|serve_mixed --seed=N --seconds=S "
               "--trace=0|1 [--workdir=DIR] [--scale=F] [--corrupt=CHECK]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Usage("expected --key=value, got " + arg);
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      a.workload = value;
    } else if (key == "seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("bad --seed");
    } else if (key == "seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0)) {
        Usage("bad --seconds");
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      a.trace = value == "1";
    } else if (key == "workdir") {
      a.workdir = value;
    } else if (key == "scale") {
      a.scale = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.scale > 0) || a.scale > 1) {
        Usage("bad --scale");
      }
    } else if (key == "corrupt") {
      a.corrupt = value;
    } else {
      Usage("unknown flag --" + key);
    }
  }
  if (a.workload != "adaptive_uniform" && a.workload != "readwrite_clustered" &&
      a.workload != "serve_mixed") {
    Usage("unknown workload '" + a.workload + "'");
  }
  return a;
}

void MakeDirs(const std::string& path) {
  std::string prefix;
  std::stringstream ss(path);
  std::string part;
  if (!path.empty() && path[0] == '/') prefix = "/";
  while (std::getline(ss, part, '/')) {
    if (part.empty()) continue;
    prefix += part + "/";
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      Usage("cannot create " + prefix);
    }
  }
}

/// Echoes every engine setting that can change a measurement.
void PrintConfig(const Args& a) {
  std::printf("config: workload=%s seed=%llu seconds=%g trace=%d scale=%g\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, a.scale);
  std::printf("config: nproc=%u build=%s simd_tier=%s packing=%d "
              "exec_threads=%d morsel_grain=%zu\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              quasii::simd::TierName(quasii::simd::ActiveTier()),
              Quasii3::PackingEnabled() ? 1 : 0, quasii::IntraQueryThreads(),
              quasii::MorselGrain());
  bool any = false;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "QUASII_", 7) == 0) {
      std::printf("config: env %s\n", *e);
      any = true;
    }
  }
  if (!any) std::printf("config: env (no QUASII_* variables set)\n");
}

std::string LastUntracedPath(const Args& a) {
  return a.workdir + "/last-untraced-" + a.workload + ".tsv";
}

/// Untraced runs leave their gated metrics behind, so the next traced run
/// of the same workload can print the tracing overhead of each.
void SaveUntraced(const Args& a, const Report& r) {
  std::ofstream out(LastUntracedPath(a));
  out.precision(17);
  out << "seed\t" << a.seed << "\n";
  for (const Metric& m : r.gated()) out << m.name << "\t" << m.value << "\n";
}

void PrintOverhead(const Args& a, const Report& r) {
  std::ifstream in(LastUntracedPath(a));
  std::map<std::string, double> base;
  std::string name;
  double value = 0;
  while (in >> name >> value) base[name] = value;
  const std::string source =
      base.count("seed") > 0
          ? "seed " + std::to_string(static_cast<unsigned long long>(
                          base["seed"]))
          : "none found";
  std::printf("tracing overhead (traced vs the last untraced run of this "
              "workload, %s):\n",
              source.c_str());
  for (const Metric& m : r.gated()) {
    const auto it = base.find(m.name);
    if (it == base.end() || it->second == 0) {
      std::printf("  %-34s traced=%.6g %s  untraced=n/a\n", m.name.c_str(),
                  m.value, m.unit.c_str());
      continue;
    }
    std::printf("  %-34s traced=%.6g untraced=%.6g %s  (%+.1f%%)\n",
                m.name.c_str(), m.value, it->second, m.unit.c_str(),
                (m.value / it->second - 1.0) * 100.0);
  }
}

void PrintJson(const Report& r, bool traced, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted()),
              static_cast<unsigned long long>(r.failed()));
  bool first = true;
  auto emit = [&first](const Metric& m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  };
  if (traced) {
    for (const char* name : kJsonLayers) {
      if (const Metric* m = r.FindLayer(name)) emit(*m);
    }
  } else {
    for (const Metric& m : r.gated()) emit(m);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  if (std::getenv("QUASII_FAILPOINTS") != nullptr) {
    std::fprintf(stderr, "perfbench: refusing to run with QUASII_FAILPOINTS "
                         "set (fault injection would falsify the results)\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to run a build with assertions "
                       "enabled; build with CMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to run a %s build; build with "
                         "CMAKE_BUILD_TYPE=Release\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }
  MakeDirs(a.workdir);
  PrintConfig(a);
  std::fflush(stdout);

  Tracer tracer(a.trace);
  Report r;
  if (a.workload == "adaptive_uniform") {
    r = RunAdaptiveUniform(a, &tracer);
  } else if (a.workload == "readwrite_clustered") {
    r = RunReadWriteClustered(a, &tracer);
  } else {
    r = RunServeMixed(a, &tracer);
  }

  bool correct = r.correct();
  if (a.trace) {
    AddPhaseLines(tracer, &r);
    for (const char* name : kJsonLayers) {
      if (r.FindLayer(name) == nullptr) {
        r.AddCheck("per_layer_metrics", false,
                   std::string("missing per-layer metric ") + name);
        correct = false;
      }
    }
    const std::string path = a.workdir + "/trace-" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".tsv";
    std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                tracer.WriteTo(path) ? path.c_str() : "(write failed)");
  }
  r.Print(stdout, a.trace);
  if (a.trace) {
    PrintOverhead(a, r);
  } else {
    SaveUntraced(a, r);
  }
  std::printf("verdict: %s\n", correct ? "all output checks passed"
                                       : "OUTPUT CHECK FAILED");
  PrintJson(r, a.trace, correct);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
