// perfbench — the repository benchmark (see ../README.md).
//
//   perfbench --workload <pooled-edge|cluster-open|lm-sessions> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Untraced (--trace 0): the workload alone, its end-to-end metrics.
// Traced (--trace 1): every kernel backend wrapped with a timer, the
// workload's serving-layer metrics, then the layer sweep (sweep.cpp).
//
// stdout: a `fingerprint` line, an `exact` line (counts that must repeat
// between runs of the same code), then the result as the last line:
//   {"correct": b, "attempted": n, "failed": n, "metrics": {...}}
// On any error: a message on stderr, exit code 1, no result line.
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "kernels/simd/simd_dispatch.h"
#include "sweep.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

void report_phase(Report& report, const char* phase, const PhaseCounts& c) {
  const std::string p = std::string("gen.") + phase + ".";
  report.set(p + "sent", c.sent, "count");
  report.set(p + "succeeded", c.succeeded, "count");
  report.set(p + "failed", c.failed, "count");
  report.set(p + "p99_us", c.p99_us, "us");
  report.set(p + "lag_p50_us", c.lag_p50_us, "us");
  report.set(p + "lag_max_us", c.lag_max_us, "us");
}

namespace {

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in --key value pairs");
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_fingerprint(const Args& a) {
  std::printf("fingerprint {\"cpu\": %s, \"nproc\": %u, \"simd\": %s, \"compiler\": %s, "
              "\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
              json_string(cpu_model()).c_str(), std::thread::hardware_concurrency(),
              json_string(bswp::kernels::simd::isa_name()).c_str(),
              json_string(std::string("g++ ") + __VERSION__).c_str(), json_string(a.workload).c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
}

using WorkloadFn = void (*)(const Args&, const Prebuilt*, Report&, Ledger&);

WorkloadFn find_workload(const std::string& name) {
  if (name == "pooled-edge") return pooled_edge;
  if (name == "cluster-open") return cluster_open;
  if (name == "lm-sessions") return lm_sessions;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (pooled-edge, cluster-open, lm-sessions)");
}

int run(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const WorkloadFn workload = find_workload(args.workload);
  print_fingerprint(args);
  std::fflush(stdout);

  Report report;
  Ledger ledger;
  if (!args.trace) {
    workload(args, nullptr, report, ledger);
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // Every network is compiled before the tracer is installed: the tracer
    // must know each plan before any Executor resolves its backends. The
    // tracer outlives everything that can run a wrapped backend.
    Tracer tracer;
    Prebuilt pre;
    pre.pooled = build_pooled(args.work_dir, /*references=*/true);
    pre.int8_resnet = build_int8_resnet();
    pre.tinyconv = build_tinyconv();
    pre.lm = build_token_lm(default_lm(), kLmWeightSeed);
    SweepBaseline base = prepare_sweep(pre);
    for (const bswp::Session* s : {pre.pooled.a4.get(), pre.pooled.a8.get(),
                                   pre.int8_resnet.served.get(), pre.tinyconv.served.get(),
                                   pre.lm.net.served.get()}) {
      tracer.add_network(s->network());
    }
    tracer.install();
    workload(args, &pre, report, ledger);
    layer_sweep(args, pre, tracer, base, report, ledger);
  }
  for (const std::string& e : ledger.errors) log("check failed: %s", e.c_str());
  if (ledger.mismatches > 0) {
    log("check failed: %llu outputs differ from the reference",
        static_cast<unsigned long long>(ledger.mismatches));
  }

  Report exact;
  for (const auto& [name, value] : ledger.exact) exact.set(name, value, "count");
  std::printf("exact %s\n", exact.json().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              ledger.correct() ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed), report.json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
