#include "training.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_math.h"
#include "common/string_util.h"
#include "serving.h"

namespace perfbench {

using namespace autodetect;

namespace {

/// Timed passes made even when --seconds would allow fewer, so the pass
/// median and the byte-identity check always have material.
constexpr size_t kMinPasses = 3;
/// Set-ups (corpus materializations, about 10 ms each) per run, one before
/// the passes and one after each pass; setup_s is their median.
constexpr size_t kSetups = 9;
/// Seed of the held-out WEB set the fresh model is scored and served on.
constexpr uint64_t kHeldOutSeed = 0x40e1d07;

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

}  // namespace

void RunTrainWeb(const RunOptions& options, SpanLogs& logs, RunReport* report) {
  MetricsRegistry train_registry;
  const TrainOptions train = ProductionTrainOptions(&train_registry);

  // Set-up: materializing the seeded corpus stands in for reading it. It
  // is made again between timed passes, so the median of its times samples
  // the whole run rather than one phase of the host.
  std::vector<double> setup_s;
  Corpus corpus;
  auto set_up = [&] {
    corpus = Corpus();
    const int64_t t0 = NowNs();
    corpus = TrainingCorpus(options.seed);
    setup_s.push_back((NowNs() - t0) * 1e-9);
  };
  set_up();

  // Timed: whole passes, corpus to saved model. In traced runs every other
  // pass records spans, so trace.overhead_frac compares passes of one run.
  SpanLog& traced_log = logs.NewLog();
  SpanLog untraced_log(false);
  std::vector<TrainPass> passes;
  std::vector<double> traced_s, untraced_s;
  const std::string first_path = options.workdir + "/train_web.model";
  const std::string pass_path = options.workdir + "/train_web.pass.model";
  std::string first_bytes;
  double elapsed_s = 0;
  const ProcUsage usage_before = ReadUsage();
  while (passes.size() < kMinPasses || elapsed_s < options.seconds) {
    const bool traced = traced_log.enabled() && passes.size() % 2 == 1;
    const std::string& path = passes.empty() ? first_path : pass_path;
    Result<TrainPass> pass =
        TrainAndSave(corpus, train, path, traced ? traced_log : untraced_log);
    ++report->attempted;
    if (!pass.ok()) {
      ++report->failed;
      report->Fail("training pass: " + pass.status().ToString());
      return;
    }
    elapsed_s += pass->total_s;
    (traced ? traced_s : untraced_s).push_back(pass->total_s);
    passes.push_back(*pass);
    // Determinism: every pass of one build writes the same bytes.
    if (passes.size() == 1) {
      first_bytes = ReadBytes(first_path);
    } else if (ReadBytes(pass_path) != first_bytes) {
      report->Fail(StrFormat("training pass %zu wrote different model bytes", passes.size()));
    }
    if (setup_s.size() < kSetups) set_up();
  }
  const ProcUsage usage_after = ReadUsage();
  while (setup_s.size() < kSetups) set_up();
  std::filesystem::remove(pass_path);
  const double peak_rss_mb = PeakRssMb();

  Result<Model> model = Model::Load(first_path);
  if (!model.ok()) {
    report->Fail("saved model does not load: " + model.status().ToString());
    return;
  }
  if (!FlagshipIncompatible(*model)) {
    report->Fail("\"2011-01-01\" vs \"2011/01/06\" did not come out incompatible");
  }

  // Score the fresh model on the held-out set, served end to end so the
  // served-vs-reference check covers it; its timings are not end-to-end
  // metrics of this workload, only its layer metrics are kept.
  RunReport served;
  ServeParams held_out;
  held_out.stream_seed = kHeldOutSeed;
  held_out.chunk_requests = held_out.eval_columns / held_out.columns_per_request;
  held_out.seconds = 0;
  held_out.setups = 1;
  held_out.trace = options.trace;
  ServeStream(held_out, first_path, logs, &served);
  for (const std::string& why : served.errors) report->Fail("held-out serving: " + why);
  report->attempted += served.attempted;
  report->failed += served.failed;

  std::vector<double> pass_us;
  for (const TrainPass& p : passes) pass_us.push_back(p.total_s * 1e6);
  const double median_s = Median(pass_us) * 1e-6;
  MetricList& e2e = report->end_to_end;
  e2e.Set("cols_per_s", Ratio(static_cast<double>(corpus.size()), median_s), "cols/s");
  e2e.Set("req_p50_us", Median(pass_us), "us");
  e2e.Set("req_p90_us", PercentileWithFailures(pass_us, 0, 0.90), "us");
  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("peak_rss_mb", peak_rss_mb, "MB");
  e2e.Set("p_at_k", served.end_to_end.Get("p_at_k"), "frac");
  std::fprintf(stderr, "trained %zu passes over %zu columns; median pass %.3f s\n",
               passes.size(), corpus.size(), median_s);
  if (!options.trace) return;

  MetricList& layer = report->per_layer;
  for (const auto& [name, value] : served.per_layer.items()) {
    layer.Set(name, value.first, value.second);
  }
  AddTrainLayerMetrics(passes, train_registry, &layer);
  layer.Set("req_p99_us", PercentileWithFailures(pass_us, 0, 0.99), "us");
  layer.Set("proc.cpu_us_per_col",
            Ratio(static_cast<double>(usage_after.cpu_us - usage_before.cpu_us),
                  static_cast<double>(corpus.size() * passes.size())),
            "us");
  layer.Set("trace.overhead_frac",
            1.0 - Ratio(Median(untraced_s), Median(traced_s)), "frac");
}

}  // namespace perfbench
