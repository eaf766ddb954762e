#pragma once

/// \file serving.h
/// Serving a seeded WEB stream through an in-process Server on an ephemeral
/// loopback port, from the benchmark's own closed-loop clients, and checking
/// every served report against the in-process SequentialExecutor.

#include <cstddef>
#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

enum class Protocol { kWire, kHttp };

/// `count` CPUs from position `first` among those the process may use,
/// wrapping around on a machine with fewer; count 0 leaves threads unpinned.
struct CpuRange {
  size_t first = 0;
  size_t count = 0;
};

/// Thread budget of the server under test: one acceptor, one dispatch
/// thread per connection, two engine workers. Client threads equal the
/// connection count, so client threads plus connections stay within 4.
inline constexpr size_t kAcceptors = 1;
inline constexpr size_t kEngineWorkers = 2;
/// Threads the post-timing reference check uses.
inline constexpr size_t kReferenceThreads = 4;

struct ServeParams {
  Protocol protocol = Protocol::kWire;
  size_t columns_per_request = 16;
  size_t min_rows = 5;
  size_t max_rows = 40;
  size_t connections = 2;
  /// CPUs of the engine's workers, and of the server's other threads and
  /// the clients.
  CpuRange engine_cpus;
  CpuRange net_cpus;
  uint64_t stream_seed = 1;
  /// Requests generated (untimed) before each timed segment.
  size_t chunk_requests = 1024;
  /// Timed window; 0 serves exactly one chunk with no deadline.
  double seconds = 0;
  /// Set-ups made (each timed): the first serves the stream, the others are
  /// made on the side after timed segments and torn down at once.
  size_t setups = 1;
  size_t warmup_columns = 1024;
  /// Columns of the seed-determined prefix scored for precision at K.
  size_t eval_columns = 8192;
  bool trace = false;
};

/// Serves the stream described by `params` with the model at `model_path`.
/// Fills cols_per_s, req_p50_us, req_p99_us, setup_s and p_at_k into
/// report->end_to_end, the net/serve/detect/text/stats/model/proc layer
/// metrics and trace.overhead_frac into report->per_layer (traced runs
/// only), and adds the served requests to attempted/failed. Any mismatch
/// with the reference, failed request or non-kOk report fails the report.
void ServeStream(const ServeParams& params, const std::string& model_path,
                 SpanLogs& logs, RunReport* report);

}  // namespace perfbench
