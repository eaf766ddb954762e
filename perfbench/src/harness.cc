#include "harness.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/logging.h"
#include "detect/detector.h"

namespace perfbench {

using namespace autodetect;

void MetricList::Set(const std::string& name, double value, const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

double MetricList::Get(const std::string& name) const {
  for (const auto& item : items_) {
    if (item.first == name) return item.second.first;
  }
  return std::nan("");
}

void RunReport::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

// ---------------------------------------------------------------- probes

int64_t SpinNs() {
  // A dependent multiply-xorshift chain: pure ALU, no memory traffic, so
  // its time tracks the core's speed and nothing else.
  volatile uint64_t sink = 0;
  const int64_t start = NowNs();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ull;
  }
  sink = x;
  (void)sink;
  return NowNs() - start;
}

ProcUsage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.cpu_us = (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1'000'000ll +
             ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  return u;
}

HostTicks ReadHostTicks() {
  HostTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) ticks.total += x;
    ticks.steal = v[7];
  }
  std::fclose(f);
  return ticks;
}

namespace {

double StatusFieldMb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nan("");
  char line[256];
  double kb = std::nan("");
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::strtod(line + len + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace

double PeakRssMb() { return StatusFieldMb("VmHWM"); }
double CurrentRssMb() { return StatusFieldMb("VmRSS"); }

// -------------------------------------------------------------- training

TrainOptions ProductionTrainOptions(MetricsRegistry* metrics) {
  TrainOptions train;
  train.memory_budget_bytes = 64ull << 20;
  train.supervision.target_positives = 3000;
  train.supervision.target_negatives = 3000;
  train.corpus_name = "WEB-synthetic";
  train.num_threads = kTrainThreads;
  train.stats.metrics = metrics;
  return train;
}

Corpus TrainingCorpus(uint64_t seed) {
  GeneratorOptions gen;
  gen.num_columns = kTrainColumns;
  gen.inject_errors = false;  // training corpora are clean (DESIGN.md)
  gen.seed = seed;
  return GenerateCorpus(gen);
}

Result<TrainPass> TrainAndSave(const Corpus& corpus, const TrainOptions& options,
                               const std::string& model_path, SpanLog& spans) {
  TrainPass pass;
  ScopedSpan root(spans, "train.pass");
  const int64_t t0 = NowNs();
  CorpusSource source(&corpus);
  TrainSession session(options);
  {
    ScopedSpan span(spans, "train.build_stats", root.index());
    AD_RETURN_NOT_OK(session.BuildStats(&source));
  }
  const int64_t t1 = NowNs();
  pass.rss_after_stats_mb = CurrentRssMb();
  {
    ScopedSpan span(spans, "train.supervise", root.index());
    AD_RETURN_NOT_OK(session.Supervise(&source));
  }
  const int64_t t2 = NowNs();
  Result<Model> model = [&] {
    ScopedSpan span(spans, "train.finalize", root.index());
    return session.Finalize();
  }();
  AD_RETURN_NOT_OK(model.status());
  const int64_t t3 = NowNs();
  {
    ScopedSpan span(spans, "train.save", root.index());
    AD_RETURN_NOT_OK(model->Save(model_path));
  }
  const int64_t t4 = NowNs();
  pass.build_stats_s = (t1 - t0) * 1e-9;
  pass.supervise_s = (t2 - t1) * 1e-9;
  pass.finalize_s = (t3 - t2) * 1e-9;
  pass.save_s = (t4 - t3) * 1e-9;
  pass.total_s = (t4 - t0) * 1e-9;
  return pass;
}

void AddTrainLayerMetrics(const std::vector<TrainPass>& passes,
                          MetricsRegistry& registry, MetricList* out) {
  TrainPass mean;
  for (const TrainPass& p : passes) {
    mean.build_stats_s += p.build_stats_s / static_cast<double>(passes.size());
    mean.supervise_s += p.supervise_s / static_cast<double>(passes.size());
    mean.finalize_s += p.finalize_s / static_cast<double>(passes.size());
    mean.save_s += p.save_s / static_cast<double>(passes.size());
    mean.rss_after_stats_mb =
        std::max(mean.rss_after_stats_mb, p.rss_after_stats_mb);
  }
  const double n = static_cast<double>(passes.size());
  auto stage_sum = [&](const char* name) {
    return static_cast<double>(registry.GetHistogram(name)->Snapshot().sum) / n;
  };
  out->Set("train.build_stats_s", mean.build_stats_s, "s");
  out->Set("train.supervise_s", mean.supervise_s, "s");
  out->Set("train.finalize_s", mean.finalize_s, "s");
  out->Set("train.save_s", mean.save_s, "s");
  out->Set("train.tokenize_us", stage_sum("train.stage.tokenize_us"), "us");
  out->Set("train.count_us", stage_sum("train.stage.count_us"), "us");
  out->Set("train.calibration_us", stage_sum("train.stage.calibration_us"), "us");
  out->Set("train.patterns_total",
           static_cast<double>(registry.GetCounter("train.patterns_total")->Value()) / n,
           "count");
  out->Set("train.rss_after_stats_mb", mean.rss_after_stats_mb, "MB");
}

bool FlagshipIncompatible(const Model& model) {
  MetricsRegistry private_registry;
  DetectorOptions opts;
  opts.metrics = &private_registry;
  Detector detector(&model, opts);
  return detector.ScorePair("2011-01-01", "2011/01/06").incompatible;
}

// --------------------------------------------------------------- streams

GeneratorOptions WebStream(uint64_t seed, size_t min_rows, size_t max_rows) {
  GeneratorOptions gen;
  gen.profile = CorpusProfile::Web();
  gen.profile.min_rows = min_rows;
  gen.profile.max_rows = max_rows;
  gen.num_columns = SIZE_MAX;  // drawn on demand, never replayed
  gen.inject_errors = true;
  gen.seed = seed;
  return gen;
}

int64_t InjectedRow(const Column& column) {
  if (!column.dirty()) return -1;
  const std::string& injected = column.dirty_value();
  for (size_t r = 0; r < column.values.size(); ++r) {
    if (column.values[r] == injected) return static_cast<int64_t>(r);
  }
  return column.dirty_index;
}

std::vector<DetectReport> ReferenceReports(const Model& model,
                                           const std::vector<DetectRequest>& batch,
                                           size_t threads) {
  std::vector<DetectReport> out(batch.size());
  MetricsRegistry private_registry;
  DetectorOptions opts;
  opts.metrics = &private_registry;
  Detector detector(&model, opts);
  std::vector<std::thread> pool;
  const size_t per = (batch.size() + threads - 1) / threads;
  for (size_t t = 0; t < threads; ++t) {
    const size_t begin = std::min(batch.size(), t * per);
    const size_t end = std::min(batch.size(), begin + per);
    pool.emplace_back([&, begin, end] {
      SequentialExecutor executor(&detector);
      for (size_t i = begin; i < end; ++i) out[i] = executor.DetectOne(batch[i]);
    });
  }
  for (auto& th : pool) th.join();
  return out;
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

}  // namespace perfbench
