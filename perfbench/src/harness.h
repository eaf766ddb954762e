#pragma once

/// \file harness.h
/// Pieces every workload shares: the run's options and result, host and
/// process probes, the production-shape training pass, the seeded WEB
/// streams and the in-process reference the served reports are checked
/// against.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "corpus/corpus_generator.h"
#include "detect/api.h"
#include "detect/model.h"
#include "detect/trainer.h"
#include "obs/metrics.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  ///< scratch space inside the checkout
};

/// Metrics in emission order, each with its unit.
class MetricList {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }
  double Get(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< why `correct` is false
  MetricList end_to_end;
  MetricList per_layer;

  void Fail(const std::string& why);
};

// ---------------------------------------------------------------- probes

/// Times a fixed integer spin loop. Host drift shows as a change in this
/// number between runs; it never rescales another metric.
int64_t SpinNs();

struct ProcUsage {
  int64_t cpu_us = 0;        ///< user + system CPU time of the process
  int64_t ctx_switches = 0;  ///< voluntary + involuntary
};
ProcUsage ReadUsage();

/// Machine-wide CPU ticks from /proc/stat: all of them, and those stolen by
/// the hypervisor for other guests.
struct HostTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostTicks ReadHostTicks();

/// VmHWM of the process in MiB, from /proc/self/status.
double PeakRssMb();
/// Current VmRSS of the process in MiB.
double CurrentRssMb();

// -------------------------------------------------------------- training

/// Training corpus size and candidate space of a production-shape pass.
inline constexpr size_t kTrainColumns = 2000;
inline constexpr size_t kTrainThreads = 2;

/// The production-shape training configuration: all 144 candidate
/// languages, a 64 MiB model budget, an explicit thread count.
autodetect::TrainOptions ProductionTrainOptions(autodetect::MetricsRegistry* metrics);

/// A seeded clean WEB training corpus of kTrainColumns columns.
autodetect::Corpus TrainingCorpus(uint64_t seed);

struct TrainPass {
  double build_stats_s = 0;
  double supervise_s = 0;
  double finalize_s = 0;
  double save_s = 0;
  double total_s = 0;
  double rss_after_stats_mb = 0;
};

/// One full pass: BuildStats -> Supervise -> Finalize -> Model::Save.
/// Stage spans go to `spans` under one "train.pass" root.
autodetect::Result<TrainPass> TrainAndSave(const autodetect::Corpus& corpus,
                                           const autodetect::TrainOptions& options,
                                           const std::string& model_path,
                                           SpanLog& spans);

/// Adds the train.* per-layer metrics: stage times (mean over `passes`),
/// the program's train.stage.* histograms and train.patterns_total.
void AddTrainLayerMetrics(const std::vector<TrainPass>& passes,
                          autodetect::MetricsRegistry& registry, MetricList* out);

/// The paper's flagship pair must come out incompatible.
bool FlagshipIncompatible(const autodetect::Model& model);

// --------------------------------------------------------------- streams

/// A never-replayed stream of WEB columns with errors injected at the
/// profile's rate, so each column's ground truth is known.
autodetect::GeneratorOptions WebStream(uint64_t seed, size_t min_rows, size_t max_rows);

/// First row holding the injected value of `column`, or -1 when clean.
int64_t InjectedRow(const autodetect::Column& column);

/// Runs `batch` through in-process SequentialExecutors on `threads` threads
/// (each its own Detector over `model`, no pair cache, a private metrics
/// registry) and returns the reports in batch order.
std::vector<autodetect::DetectReport> ReferenceReports(
    const autodetect::Model& model, const std::vector<autodetect::DetectRequest>& batch,
    size_t threads);

/// Creates `path` (and parents); false on failure.
bool MakeDirs(const std::string& path);

}  // namespace perfbench
