/// \file main.cc
/// The benchmark binary: one run of one workload.
///
///   perfbench --workload tables_wire|point_http|train_web --seed N
///             --seconds S --trace 0|1 --workdir DIR
///
/// Progress goes to stderr; the last line of stdout is one JSON object with
/// `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics,
/// or with --trace 1 the per-layer metrics). See perfbench/README.md.

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "bench_math.h"
#include "harness.h"
#include "serving.h"
#include "training.h"

using namespace perfbench;
using autodetect::StrFormat;

namespace {

/// Seed of the served model's training corpus: fixed, so every serving run
/// serves the same model, trained in-process by the build under test.
constexpr uint64_t kServedModelSeed = 20180610;

const std::vector<const char*> kEndToEnd = {
    "cols_per_s", "req_p50_us", "req_p90_us", "setup_s", "peak_rss_mb", "p_at_k",
};

const std::vector<const char*> kPerLayer = {
    "req_p99_us",
    "net.decode_us_per_req", "net.encode_us_per_req", "net.server_req_p50_us",
    "net.outside_server_us", "net.first_report_us", "net.bytes_per_col",
    "net.frames_out_per_req",
    "serve.dispatch_us", "serve.batch_us", "serve.batch_p99_us",
    "serve.worker_busy_frac", "serve.cache.hit_rate", "serve.cache.lookups_per_col",
    "serve.cache.evictions", "serve.mem.peak_bytes",
    "detect.col_p50_us", "detect.col_p99_us", "detect.score_us_per_col",
    "detect.key_us_per_col", "detect.score_ns_per_pair", "detect.pairs_scored_per_col",
    "detect.cache_hits_per_col", "detect.distinct_per_col",
    "detect.rare_fallbacks_per_col", "detect.value_pairs_per_keyrow_pair",
    "text.keys_ns_per_value", "stats.intern_ns_per_value",
    "model.load_ms", "model.bytes",
    "train.build_stats_s", "train.supervise_s", "train.finalize_s", "train.save_s",
    "train.tokenize_us", "train.count_us", "train.calibration_us",
    "train.patterns_total", "train.rss_after_stats_mb",
    "proc.cpu_us_per_col", "proc.ctx_switches_per_req", "trace.overhead_frac",
    "host.spin_ns", "host.spin_drift_frac", "host.steal_frac", "fail_ratio",
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload tables_wire|point_http|"
               "train_web --seed N --seconds S --trace 0|1 --workdir DIR\n",
               why);
  std::exit(2);
}

std::string JsonNumber(double v) {
  if (std::isinf(v)) return v > 0 ? "1e309" : "-1e309";  // parses as +/-inf
  if (std::isnan(v)) return "null";
  return StrFormat("%.17g", v);
}

/// Trains the served model with this build in a child process, so none of
/// training's heap stays resident in the process whose memory is measured
/// while serving. The child sends its train.* layer metrics back as
/// "name<TAB>value<TAB>unit" lines, or one "error<TAB>why" line.
bool TrainServedModel(const std::string& model_path, MetricList* train_layer,
                      std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = "fork failed";
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Die with the parent, so a killed run leaves no training behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    autodetect::MetricsRegistry registry;
    SpanLog untraced(false);
    auto pass = TrainAndSave(TrainingCorpus(kServedModelSeed),
                             ProductionTrainOptions(&registry), model_path, untraced);
    std::string out;
    if (pass.ok()) {
      MetricList metrics;
      AddTrainLayerMetrics({*pass}, registry, &metrics);
      for (const auto& [name, value] : metrics.items()) {
        out += StrFormat("%s\t%.17g\t%s\n", name.c_str(), value.first, value.second.c_str());
      }
    } else {
      out = "error\t" + pass.status().ToString() + "\n";
    }
    for (size_t done = 0; done < out.size();) {
      const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      done += static_cast<size_t>(n);
    }
    _exit(pass.ok() ? 0 : 1);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  for (const std::string& line : autodetect::Split(text, '\n')) {
    const std::vector<std::string> f = autodetect::Split(line, '\t');
    if (f.size() == 2 && f[0] == "error") *error = f[1];
    if (f.size() == 3) train_layer->Set(f[0], std::strtod(f[1].c_str(), nullptr), f[2]);
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    if (error->empty()) *error = "the training process did not finish";
    return false;
  }
  return true;
}

void RunServingWorkload(const RunOptions& options, ServeParams params, SpanLogs& logs,
                        RunReport* report) {
  const std::string model_path = options.workdir + "/served.model";
  // The served model is trained by this build, before and outside set-up.
  MetricList train_layer;
  std::string error;
  if (!TrainServedModel(model_path, &train_layer, &error)) {
    report->Fail("training the served model: " + error);
    return;
  }
  params.stream_seed = options.seed * 1000003 + static_cast<uint64_t>(params.protocol);
  params.seconds = options.seconds;
  params.setups = 9;
  params.trace = options.trace;
  ServeStream(params, model_path, logs, report);
  report->end_to_end.Set("peak_rss_mb", PeakRssMb(), "MB");
  for (const auto& [name, value] : train_layer.items()) {
    report->per_layer.Set(name, value.first, value.second);
  }
}

}  // namespace

int main(int argc, char** argv) {
  autodetect::SetLogLevel(autodetect::LogLevel::kWarning);
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) Usage("flags take one value each");
  if (!have_seed || !have_seconds || !have_trace) Usage("--seed, --seconds and --trace are required");
  if (options.workdir.empty() || !MakeDirs(options.workdir)) Usage("--workdir is missing or unusable");

  SpanLogs logs(options.trace);
  RunReport report;
  const HostTicks ticks_start = ReadHostTicks();
  const int64_t spin_start = SpinNs();
  if (options.workload == "tables_wire") {
    ServeParams params;
    params.protocol = Protocol::kWire;
    params.columns_per_request = 16;
    params.min_rows = 5;
    params.max_rows = 40;
    params.connections = 2;
    // The engine's two workers get CPUs of their own; the clients and the
    // server's acceptor and dispatch threads share a third, where their
    // hand-offs are context switches rather than wake-ups of idle vCPUs.
    params.engine_cpus = {0, 2};
    params.net_cpus = {2, 1};
    params.chunk_requests = 2048;
    params.warmup_columns = 4096;
    RunServingWorkload(options, params, logs, &report);
  } else if (options.workload == "point_http") {
    ServeParams params;
    params.protocol = Protocol::kHttp;
    params.columns_per_request = 1;
    params.min_rows = 3;
    params.max_rows = 8;
    params.connections = 1;
    // On one CPU the request's hand-offs between client, acceptor, dispatch
    // and engine threads are context switches. Spread over idle vCPUs they
    // waited on the hypervisor to wake each one, and runs swung 4x with its
    // steal (perfbench/README.md).
    params.engine_cpus = {0, 1};
    params.net_cpus = {0, 1};
    params.chunk_requests = 16384;
    RunServingWorkload(options, params, logs, &report);
  } else if (options.workload == "train_web") {
    RunTrainWeb(options, logs, &report);
  } else {
    Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  const int64_t spin_end = SpinNs();
  const HostTicks ticks_end = ReadHostTicks();
  std::fprintf(stderr, "host spin: %lld ns at start, %lld ns at end\n",
               static_cast<long long>(spin_start), static_cast<long long>(spin_end));

  if (options.trace) {
    report.per_layer.Set("host.spin_ns", 0.5 * static_cast<double>(spin_start + spin_end),
                         "ns");
    report.per_layer.Set("host.spin_drift_frac",
                         static_cast<double>(spin_end) / static_cast<double>(spin_start) - 1.0,
                         "frac");
    report.per_layer.Set("host.steal_frac",
                         Ratio(static_cast<double>(ticks_end.steal - ticks_start.steal),
                               static_cast<double>(ticks_end.total - ticks_start.total)),
                         "frac");
    report.per_layer.Set("fail_ratio",
                         Ratio(static_cast<double>(report.failed),
                               static_cast<double>(report.attempted)),
                         "frac");
    const std::string path = options.workdir + "/" + options.workload + ".spans.tsv";
    if (!DumpSpans(path, logs.all())) report.Fail("cannot write " + path);
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }
  if (report.attempted == 0) report.Fail("nothing was attempted");
  if (report.failed > 0) report.Fail(StrFormat("%llu operations failed",
                                               static_cast<unsigned long long>(report.failed)));
  for (const std::string& why : report.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());

  const MetricList& source = options.trace ? report.per_layer : report.end_to_end;
  std::string metrics;
  for (const char* name : options.trace ? kPerLayer : kEndToEnd) {
    const auto& items = source.items();
    auto it = std::find_if(items.begin(), items.end(),
                           [&](const auto& item) { return item.first == name; });
    if (it == items.end()) {
      if (report.correct) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n", name);
        return 1;
      }
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += StrFormat("\"%s\": {\"value\": %s, \"unit\": \"%s\"}", name,
                         JsonNumber(it->second.first).c_str(), it->second.second.c_str());
    std::fprintf(stderr, "  %-36s %14.6g %s\n", name, it->second.first,
                 it->second.second.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
