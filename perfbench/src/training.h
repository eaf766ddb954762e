#pragma once

/// \file training.h
/// The train_web workload: full production-shape training passes over a
/// seeded WEB corpus, from the materialized corpus to the saved model.

#include "harness.h"

namespace perfbench {

void RunTrainWeb(const RunOptions& options, SpanLogs& logs, RunReport* report);

}  // namespace perfbench
