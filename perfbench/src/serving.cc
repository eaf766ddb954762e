#include "serving.h"

#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "common/string_util.h"
#include "detect/detector.h"
#include "net/client.h"
#include "net/http.h"
#include "net/json.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/detection_engine.h"
#include "serve/lifecycle.h"
#include "stats/value_interner.h"
#include "text/run_tokenizer.h"

namespace perfbench {

using namespace autodetect;

namespace {

/// Seed of the warm-up columns; fixed so every set-up does the same work.
constexpr uint64_t kWarmupSeed = 0x5eed0001;
/// The timed window is cut into slices of this length, and throughput and
/// latency are read at the quiet quartile of the slices (bench_math.h):
/// short enough that a 20-s run holds 80 of them, long enough to hold 250+
/// requests on every workload.
constexpr int64_t kSliceNs = 250'000'000;
/// Requests of the first chunk timed through each layer call in traced runs.
constexpr size_t kProbeRequests = 512;

// ---------------------------------------------------------------- stream

/// Requests of one segment, generated and encoded before it is timed.
struct Chunk {
  std::vector<WireRequest> requests;
  std::vector<std::string> encoded;  ///< wire frame or whole HTTP request
};

std::string EncodeHttpRequest(const WireRequest& request) {
  std::string body = StrFormat("{\"request_id\":%llu,\"columns\":[",
                               static_cast<unsigned long long>(request.request_id));
  for (size_t c = 0; c < request.columns.size(); ++c) {
    if (c > 0) body.push_back(',');
    body.append("{\"name\":");
    AppendJsonString(&body, request.columns[c].name);
    body.append(",\"values\":[");
    for (size_t v = 0; v < request.columns[c].values.size(); ++v) {
      if (v > 0) body.push_back(',');
      AppendJsonString(&body, request.columns[c].values[v]);
    }
    body.append("]}");
  }
  body.append("]}");
  return StrFormat(
             "POST /detect HTTP/1.1\r\nHost: 127.0.0.1\r\n"
             "Content-Type: application/json\r\nContent-Length: %zu\r\n\r\n",
             body.size()) +
         body;
}

class StreamChunks {
 public:
  StreamChunks(const ServeParams& params, uint64_t seed)
      : params_(params),
        source_(WebStream(seed, params.min_rows, params.max_rows)) {}

  Chunk Next(size_t num_requests) {
    Chunk chunk;
    Column column;
    for (size_t r = 0; r < num_requests; ++r) {
      WireRequest request;
      request.request_id = next_request_id_++;
      for (size_t c = 0; c < params_.columns_per_request; ++c) {
        source_.Next(&column);
        request.columns.push_back(
            WireColumn{StrFormat("c%zu", next_column_++), std::move(column.values)});
      }
      chunk.encoded.push_back(params_.protocol == Protocol::kWire
                                  ? EncodeRequestFrame(request)
                                  : EncodeHttpRequest(request));
      chunk.requests.push_back(std::move(request));
    }
    return chunk;
  }

 private:
  const ServeParams& params_;
  GeneratedColumnSource source_;
  uint64_t next_request_id_ = 1;
  size_t next_column_ = 0;
};

// ---------------------------------------------------------------- CPUs

/// Restricts the calling thread to `range` of the CPUs it may run on;
/// threads it starts afterwards inherit the set. Returns the set it had,
/// for RestoreCpus.
cpu_set_t PinToCpus(const CpuRange& range) {
  cpu_set_t had;
  CPU_ZERO(&had);
  sched_getaffinity(0, sizeof had, &had);
  std::vector<int> allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &had)) allowed.push_back(cpu);
  }
  if (range.count == 0 || allowed.empty()) return had;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (size_t i = 0; i < range.count; ++i) {
    CPU_SET(allowed[(range.first + i) % allowed.size()], &pinned);
  }
  sched_setaffinity(0, sizeof pinned, &pinned);
  return had;
}

void RestoreCpus(const cpu_set_t& had) { sched_setaffinity(0, sizeof had, &had); }

// ---------------------------------------------------------------- client

/// One keep-alive client connection. Response bytes are appended to `log`
/// untouched, so decoding and checking happen after timing.
struct ClientConn {
  int fd = -1;
  std::string rbuf;
  size_t rpos = 0;
  std::string log;

  ClientConn() = default;
  ClientConn(const ClientConn&) = delete;
  ClientConn& operator=(const ClientConn&) = delete;
  ~ClientConn() {
    if (fd >= 0) ::close(fd);
  }

  bool SendAll(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      bytes.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  /// Reads more bytes; returns the time they arrived, or -1 on EOF/error.
  int64_t Receive() {
    if (rpos == rbuf.size()) {
      rbuf.clear();
      rpos = 0;
    }
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return -1;
      rbuf.append(buf, static_cast<size_t>(n));
      return NowNs();
    }
  }
};

struct Outcome {
  bool started = false;
  bool ok = false;      ///< every report arrived (set by the client loop)
  bool traced = false;  ///< spans recorded for this request
  uint32_t conn = 0;
  int64_t start_ns = 0;
  int64_t first_ns = 0;  ///< first kColumnReport frame / first response byte
  int64_t done_ns = 0;   ///< kBatchDone frame / last response byte
  int64_t next_start_ns = 0;  ///< next request on the same connection
  size_t log_begin = 0;
  size_t log_end = 0;
};

/// Sends one ADWIRE1 request and reads its frames up to kBatchDone.
bool ExchangeWire(ClientConn& conn, const std::string& frame, size_t columns,
                  Outcome* o) {
  o->start_ns = NowNs();
  if (!conn.SendAll(frame)) return false;
  o->log_begin = conn.log.size();
  size_t reports = 0;
  int64_t arrived = 0;
  for (;;) {
    for (;;) {
      auto peek = PeekFrame(std::string_view(conn.rbuf).substr(conn.rpos));
      if (!peek.ok()) return false;
      if (!peek->has_value()) break;
      const FrameView& f = **peek;
      if (f.type == FrameType::kColumnReport) {
        if (reports++ == 0) o->first_ns = arrived;
        conn.log.append(conn.rbuf, conn.rpos, f.frame_len);
        conn.rpos += f.frame_len;
        continue;
      }
      conn.rpos += f.frame_len;
      o->done_ns = arrived;
      o->log_end = conn.log.size();
      if (f.type != FrameType::kBatchDone) return false;
      auto done = DecodeBatchDonePayload(f.payload);
      return done.ok() && done->columns == columns && reports == columns;
    }
    arrived = conn.Receive();
    if (arrived < 0) return false;
  }
}

/// Sends one keep-alive HTTP request and reads the whole response; the body
/// goes to the log. Only a 200 counts as arrived.
bool ExchangeHttp(ClientConn& conn, const std::string& request, Outcome* o) {
  o->start_ns = NowNs();
  if (!conn.SendAll(request)) return false;
  o->log_begin = conn.log.size();
  size_t body_len = 0;
  size_t head_len = 0;
  int status = 0;
  for (;;) {
    const int64_t arrived = conn.Receive();
    if (arrived < 0) return false;
    if (o->first_ns == 0) o->first_ns = arrived;
    std::string_view view = std::string_view(conn.rbuf).substr(conn.rpos);
    if (head_len == 0) {
      const size_t end = view.find("\r\n\r\n");
      if (end == std::string_view::npos) continue;
      head_len = end + 4;
      std::string_view head = view.substr(0, end);
      if (head.size() < 12 || head.substr(0, 9) != "HTTP/1.1 ") return false;
      status = std::atoi(std::string(head.substr(9, 3)).c_str());
      std::string lower = ToLowerAscii(head);
      const size_t cl = lower.find("\r\ncontent-length:");
      if (cl == std::string::npos) return false;
      body_len = std::strtoull(lower.c_str() + cl + 17, nullptr, 10);
    }
    if (view.size() < head_len + body_len) continue;
    conn.log.append(view.substr(head_len, body_len));
    conn.rpos += head_len + body_len;
    o->done_ns = arrived;
    o->log_end = conn.log.size();
    return status == 200;
  }
}

// ---------------------------------------------------------------- server

/// Model, engine, server and connected clients: what one set-up builds.
class ServerUnderTest {
 public:
  ServerUnderTest() = default;
  ServerUnderTest(const ServerUnderTest&) = delete;
  ServerUnderTest& operator=(const ServerUnderTest&) = delete;
  ~ServerUnderTest() {
    conns.clear();
    if (server != nullptr) server->Stop();
  }

  Status Start(const ServeParams& params, const std::string& model_path) {
    const int64_t t0 = NowNs();
    AD_ASSIGN_OR_RETURN(Model loaded, Model::Load(model_path));
    load_ms = (NowNs() - t0) * 1e-6;
    model = std::make_unique<Model>(std::move(loaded));
    MemoryBudgetOptions budget_opts;
    budget_opts.global_bytes = 512ull << 20;
    budget_opts.per_request_bytes = 64ull << 20;
    budget_opts.metrics = &registry;
    memory = std::make_unique<MemoryBudget>(budget_opts);
    EngineOptions engine_opts;
    engine_opts.num_threads = kEngineWorkers;
    engine_opts.metrics = &registry;
    // Threads start on the CPUs of their side; the main thread, which runs
    // the reference checks, returns to all of them.
    const cpu_set_t had = PinToCpus(params.engine_cpus);
    engine = std::make_unique<DetectionEngine>(model.get(), engine_opts);
    RestoreCpus(had);
    ServerOptions server_opts;
    server_opts.num_acceptors = kAcceptors;
    server_opts.dispatch_threads = params.connections;
    server_opts.metrics = &registry;
    server_opts.memory = memory.get();
    PinToCpus(params.net_cpus);
    server = std::make_unique<Server>(engine.get(), server_opts);
    const Status started = server->Start();
    RestoreCpus(had);
    AD_RETURN_NOT_OK(started);
    for (size_t c = 0; c < params.connections; ++c) {
      AD_ASSIGN_OR_RETURN(int fd, RawConnect("127.0.0.1", server->port()));
      auto conn = std::make_unique<ClientConn>();
      conn->fd = fd;
      if (params.protocol == Protocol::kWire &&
          !conn->SendAll(std::string_view(kWireMagic, kWireMagicLen))) {
        return Status::IOError("sending the ADWIRE1 preamble failed");
      }
      conns.push_back(std::move(conn));
    }
    return Status::OK();
  }

  MetricsRegistry registry;
  std::unique_ptr<Model> model;
  std::unique_ptr<MemoryBudget> memory;
  std::unique_ptr<DetectionEngine> engine;
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<ClientConn>> conns;
  double load_ms = 0;
};

/// Runs the closed loop over every connection until the chunk is used up or
/// `deadline_ns` (0 = none) passes; a request started before the deadline
/// completes. In traced runs every other request of a connection records
/// client spans, so traced and untraced throughput come from one run.
std::vector<Outcome> RunChunk(ServerUnderTest& sut, const ServeParams& params,
                              const Chunk& chunk, int64_t deadline_ns,
                              const std::vector<SpanLog*>& logs) {
  std::vector<Outcome> outcomes(chunk.requests.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < sut.conns.size(); ++c) {
    clients.emplace_back([&, c] {
      PinToCpus(params.net_cpus);
      ClientConn& conn = *sut.conns[c];
      SpanLog* log = logs.empty() ? nullptr : logs[c];
      Outcome* prev = nullptr;
      for (size_t local = 0;; ++local) {
        if (deadline_ns != 0 && NowNs() >= deadline_ns) break;
        const size_t i = next.fetch_add(1);
        if (i >= outcomes.size()) break;
        Outcome& o = outcomes[i];
        o.started = true;
        o.conn = static_cast<uint32_t>(c);
        o.traced = log != nullptr && log->enabled() && local % 2 == 0;
        o.ok = params.protocol == Protocol::kWire
                   ? ExchangeWire(conn, chunk.encoded[i],
                                  chunk.requests[i].columns.size(), &o)
                   : ExchangeHttp(conn, chunk.encoded[i], &o);
        if (prev != nullptr) prev->next_start_ns = o.start_ns;
        if (o.traced) {
          const uint64_t id = chunk.requests[i].request_id;
          const int32_t root = log->Add("client.request", o.start_ns, o.done_ns, -1, id);
          log->Add("client.wait_first", o.start_ns, o.first_ns, root, id);
          log->Add("client.recv_rest", o.first_ns, o.done_ns, root, id);
        }
        prev = &o;
        if (!o.ok) break;  // connection state unknown; stop using it
      }
      if (prev != nullptr) prev->next_start_ns = NowNs();
    });
  }
  for (auto& t : clients) t.join();
  return outcomes;
}

// ---------------------------------------------------------------- checks

DetectReport Normalized(DetectReport report) {
  report.latency_us = 0;
  return report;
}

/// Replaces every "latency_us":<digits> with "latency_us":0.
std::string ZeroJsonLatencies(std::string_view body) {
  static constexpr std::string_view kKey = "\"latency_us\":";
  std::string out;
  out.reserve(body.size());
  size_t pos = 0;
  for (;;) {
    const size_t at = body.find(kKey, pos);
    if (at == std::string_view::npos) break;
    out.append(body.substr(pos, at + kKey.size() - pos));
    out.push_back('0');
    pos = at + kKey.size();
    while (pos < body.size() && body[pos] >= '0' && body[pos] <= '9') ++pos;
  }
  out.append(body.substr(pos));
  return out;
}

/// Checks the served bytes of one request against the reference reports
/// (served latency_us excluded; status must be kOk). Returns "" or why not.
std::string CheckServed(Protocol protocol, const WireRequest& request,
                        std::string_view served, const DetectReport* refs) {
  const size_t n = request.columns.size();
  if (protocol == Protocol::kHttp) {
    std::vector<DetectReport> expected;
    for (size_t c = 0; c < n; ++c) expected.push_back(Normalized(refs[c]));
    // The server ends the JSON body with a newline.
    if (ZeroJsonLatencies(served) !=
        DetectResponseToJson(request.request_id, expected) + "\n") {
      return StrFormat("request %llu: HTTP body differs from the reference",
                       static_cast<unsigned long long>(request.request_id));
    }
    return "";
  }
  std::vector<bool> seen(n, false);
  size_t pos = 0;
  while (pos < served.size()) {
    auto peek = PeekFrame(served.substr(pos));
    if (!peek.ok() || !peek->has_value()) return "undecodable report frame";
    auto report = DecodeReportPayload((*peek)->payload);
    pos += (*peek)->frame_len;
    if (!report.ok()) return report.status().ToString();
    const size_t c = report->column_index;
    if (report->request_id != request.request_id || c >= n || seen[c]) {
      return "report frame for an unexpected request or column";
    }
    seen[c] = true;
    report->report = Normalized(std::move(report->report));
    WireReport expected{request.request_id, c, Normalized(refs[c])};
    if (EncodeReportFrame(*report) != EncodeReportFrame(expected)) {
      return StrFormat("request %llu column %zu: report differs from the reference "
                       "(status %s)",
                       static_cast<unsigned long long>(request.request_id), c,
                       std::string(ColumnStatusName(report->report.status)).c_str());
    }
  }
  return "";
}

std::vector<DetectRequest> BatchOf(const Chunk& chunk, size_t num_requests) {
  std::vector<DetectRequest> batch;
  for (size_t r = 0; r < num_requests; ++r) {
    for (DetectRequest& d : ToDetectBatch(chunk.requests[r])) batch.push_back(std::move(d));
  }
  return batch;
}

// ---------------------------------------------------------------- probes

struct ProbeTotals {
  uint64_t requests = 0;
  uint64_t values = 0;        ///< values interned
  uint64_t keyed_values = 0;  ///< sampled distinct values keyed
  uint64_t value_pairs = 0;
  uint64_t keyrow_pairs = 0;
};

/// Times calls into the net, stats and text layers on the first requests of
/// a chunk, each inside a "probe.request" span, and counts the key-row
/// dedup ceiling through MultiGeneralizer from outside the detector.
void RunProbes(const ServeParams& params, const Chunk& chunk,
               const std::vector<DetectReport>& refs, const Model& model,
               SpanLog& log, ProbeTotals* totals) {
  std::vector<int> lang_ids;
  for (const auto& l : model.languages) lang_ids.push_back(l.lang_id);
  const MultiGeneralizer keys = MultiGeneralizer::ForIds(lang_ids);
  const size_t width = keys.num_languages();
  const DetectorOptions detector_defaults;
  ValueInterner interner;
  std::vector<uint32_t> sampled;
  std::vector<uint64_t> rows;
  size_t ref_pos = 0;
  for (size_t r = 0; r < std::min(kProbeRequests, chunk.requests.size()); ++r) {
    const WireRequest& request = chunk.requests[r];
    const uint64_t id = request.request_id;
    ScopedSpan root(log, "probe.request", -1, id);
    bool decoded = false;
    {
      ScopedSpan span(log, "net.decode", root.index(), id);
      if (params.protocol == Protocol::kWire) {
        auto frame = PeekFrame(chunk.encoded[r]);
        decoded = frame.ok() && frame->has_value() &&
                  DecodeRequestPayload((*frame)->payload).ok();
      } else {
        auto http = ParseHttpRequest(chunk.encoded[r]);
        decoded = http.ok() && http->has_value() &&
                  ParseJsonDetectRequest((*http)->body).ok();
      }
    }
    AD_CHECK(decoded) << "benchmark request " << id << " does not decode";
    {
      ScopedSpan span(log, "net.encode", root.index(), id);
      size_t bytes = 0;
      if (params.protocol == Protocol::kWire) {
        for (size_t c = 0; c < request.columns.size(); ++c) {
          bytes += EncodeReportFrame(WireReport{id, c, refs[ref_pos + c]}).size();
        }
        bytes += EncodeBatchDoneFrame(WireBatchDone{id, request.columns.size()}).size();
      } else {
        std::vector<DetectReport> reports(refs.begin() + static_cast<long>(ref_pos),
                                          refs.begin() + static_cast<long>(
                                              ref_pos + request.columns.size()));
        bytes += BuildHttpResponse(200, "application/json",
                                   DetectResponseToJson(id, reports) + "\n", true)
                     .size();
      }
      AD_CHECK(bytes > 0);
    }
    ref_pos += request.columns.size();
    for (const WireColumn& column : request.columns) {
      {
        ScopedSpan span(log, "stats.intern", root.index(), id);
        interner.Intern(column.values);
      }
      totals->values += column.values.size();
      interner.SampleIndices(detector_defaults.max_distinct_values, &sampled);
      rows.assign(sampled.size() * width, 0);
      {
        ScopedSpan span(log, "text.keys", root.index(), id);
        for (size_t i = 0; i < sampled.size(); ++i) {
          keys.KeysForValue(interner.entry(sampled[i]).value, rows.data() + i * width);
        }
      }
      totals->keyed_values += sampled.size();
      size_t distinct_rows = 0;
      for (size_t i = 0; i < sampled.size(); ++i) {
        bool repeat = false;
        for (size_t j = 0; j < i && !repeat; ++j) {
          repeat = std::equal(rows.begin() + static_cast<long>(i * width),
                              rows.begin() + static_cast<long>((i + 1) * width),
                              rows.begin() + static_cast<long>(j * width));
        }
        distinct_rows += repeat ? 0 : 1;
      }
      totals->value_pairs += PairsWithSelf(sampled.size());
      totals->keyrow_pairs += PairsWithSelf(distinct_rows);
    }
    ++totals->requests;
  }
}

// ---------------------------------------------------------------- metrics

uint64_t CounterOf(const MetricsSnapshot& s, const char* name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double GaugeOf(const MetricsSnapshot& s, const char* name) {
  auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second;
}

HistogramSnapshot HistOf(const MetricsSnapshot& s, const char* name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? HistogramSnapshot{} : it->second;
}

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t requests_ok = 0;
  uint64_t columns_ok = 0;
  uint64_t distinct_values = 0;
  int64_t timed_ns = 0;
  std::vector<double> latency_us;
  std::vector<double> first_report_us;
  std::vector<Slice> slices;
  double traced_cols = 0, traced_cycle_ns = 0;
  double untraced_cols = 0, untraced_cycle_ns = 0;
  ProcUsage usage;
};

}  // namespace

void ServeStream(const ServeParams& params, const std::string& model_path,
                 SpanLogs& logs, RunReport* report) {
  // Inputs first, untimed: the warm-up columns and the evaluation prefix.
  StreamChunks warmup_stream(params, kWarmupSeed);
  const Chunk warmup = warmup_stream.Next(
      std::max<size_t>(1, params.warmup_columns / params.columns_per_request));
  std::vector<EvalColumn> eval(params.eval_columns);
  std::vector<DetectRequest> eval_batch;
  {
    GeneratedColumnSource prefix(
        WebStream(params.stream_seed, params.min_rows, params.max_rows));
    Column column;
    for (size_t i = 0; i < params.eval_columns; ++i) {
      prefix.Next(&column);
      eval[i].injected_row = InjectedRow(column);
      eval_batch.emplace_back(StrFormat("c%zu", i), std::move(column.values));
    }
  }

  // Set-up, timed. The first one serves the stream; the others are made on
  // the side between timed segments and torn down at once, so their median
  // samples the whole run rather than one phase of the host.
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  auto set_up = [&]() -> std::unique_ptr<ServerUnderTest> {
    const int64_t t0 = NowNs();
    auto made = std::make_unique<ServerUnderTest>();
    Status started = made->Start(params, model_path);
    if (!started.ok()) {
      report->Fail("server set-up: " + started.ToString());
      return nullptr;
    }
    for (const Outcome& o : RunChunk(*made, params, warmup, 0, {})) {
      if (!o.ok) {
        report->Fail("a warm-up request failed");
        return nullptr;
      }
    }
    setup_s.push_back((NowNs() - t0) * 1e-9);
    load_ms.push_back(made->load_ms);
    return made;
  };
  std::unique_ptr<ServerUnderTest> sut = set_up();
  if (sut == nullptr) return;
  const Model& model = *sut->model;

  std::vector<SpanLog*> client_logs;
  for (size_t c = 0; c < params.connections; ++c) client_logs.push_back(&logs.NewLog());
  SpanLog& probe_log = logs.NewLog();

  StreamChunks stream(params, params.stream_seed);
  Totals totals;
  ProbeTotals probes;
  const MetricsSnapshot before = sut->registry.Snapshot();
  const int64_t budget_ns = static_cast<int64_t>(params.seconds * 1e9);
  for (size_t segment = 0;; ++segment) {
    if (params.seconds > 0 ? totals.timed_ns >= budget_ns : segment > 0) break;
    const Chunk chunk = stream.Next(params.chunk_requests);

    const ProcUsage u0 = ReadUsage();
    const int64_t begin = NowNs();
    const int64_t deadline = params.seconds > 0 ? begin + (budget_ns - totals.timed_ns) : 0;
    std::vector<Outcome> outcomes = RunChunk(*sut, params, chunk, deadline, client_logs);
    const int64_t end = NowNs();
    const ProcUsage u1 = ReadUsage();
    const int64_t timed_before = totals.timed_ns;
    totals.timed_ns += end - begin;
    // The slice of a request: when it completed, on a clock that runs only
    // inside timed segments.
    auto slice_of = [&](int64_t ns) -> Slice& {
      const size_t k = static_cast<size_t>((timed_before + ns - begin) / kSliceNs);
      if (totals.slices.size() <= k) totals.slices.resize(k + 1);
      return totals.slices[k];
    };
    totals.usage.cpu_us += u1.cpu_us - u0.cpu_us;
    totals.usage.ctx_switches += u1.ctx_switches - u0.ctx_switches;

    // After timing: every served report against the reference.
    size_t started = 0;
    while (started < outcomes.size() && outcomes[started].started) ++started;
    const std::vector<DetectReport> refs =
        ReferenceReports(model, BatchOf(chunk, started), kReferenceThreads);
    size_t ref_pos = 0;
    for (size_t r = 0; r < started; ++r) {
      Outcome& o = outcomes[r];
      const WireRequest& request = chunk.requests[r];
      const size_t n = request.columns.size();
      ++totals.attempted;
      if (o.ok) {
        const std::string& log = sut->conns[o.conn]->log;
        const std::string why =
            CheckServed(params.protocol, request,
                        std::string_view(log).substr(o.log_begin, o.log_end - o.log_begin),
                        refs.data() + ref_pos);
        if (!why.empty()) {
          report->Fail(why);
          o.ok = false;
        }
      } else {
        report->Fail(StrFormat("request %llu failed on the wire",
                               static_cast<unsigned long long>(request.request_id)));
      }
      if (!o.ok) {
        ++totals.failed;
        ++slice_of(o.done_ns != 0 ? o.done_ns : o.start_ns).failed;
        ref_pos += n;
        continue;
      }
      for (size_t c = 0; c < n; ++c) {
        totals.distinct_values += refs[ref_pos + c].column.distinct_values;
      }
      ref_pos += n;
      ++totals.requests_ok;
      totals.columns_ok += n;
      const double latency_us = (o.done_ns - o.start_ns) * 1e-3;
      Slice& slice = slice_of(o.done_ns);
      slice.columns += static_cast<double>(n);
      slice.latency_us.push_back(latency_us);
      // Whole-run lists only where a layer metric needs them, so the
      // benchmark's own memory does not grow with throughput untraced.
      if (params.trace) {
        totals.latency_us.push_back(latency_us);
        totals.first_report_us.push_back((o.first_ns - o.start_ns) * 1e-3);
      }
      const double cycle = static_cast<double>(o.next_start_ns - o.start_ns);
      (o.traced ? totals.traced_cols : totals.untraced_cols) += static_cast<double>(n);
      (o.traced ? totals.traced_cycle_ns : totals.untraced_cycle_ns) += cycle;
    }
    if (segment == 0 && params.trace) RunProbes(params, chunk, refs, model, probe_log, &probes);
    for (auto& conn : sut->conns) conn->log.clear();
    if (setup_s.size() < params.setups && set_up() == nullptr) return;
  }
  while (setup_s.size() < params.setups) {
    if (set_up() == nullptr) return;
  }
  const MetricsSnapshot after = sut->registry.Snapshot();

  // Precision at K over the seed-determined prefix, from the reference
  // (served reports were just shown byte-identical to it).
  const std::vector<DetectReport> eval_reports =
      ReferenceReports(model, eval_batch, kReferenceThreads);
  for (size_t i = 0; i < eval.size(); ++i) {
    if (auto top = eval_reports[i].column.Top()) {
      eval[i].has_top = true;
      eval[i].confidence = top->confidence;
      eval[i].top_row = top->row;
    }
  }

  report->attempted += totals.attempted;
  report->failed += totals.failed;
  const double timed_s = totals.timed_ns * 1e-9;
  const double cols = static_cast<double>(totals.columns_ok);
  // Only whole slices count; a window shorter than one slice is one slice.
  std::vector<Slice>& slices = totals.slices;
  const size_t whole = static_cast<size_t>(totals.timed_ns / kSliceNs);
  double slice_s = kSliceNs * 1e-9;
  if (whole == 0) {
    slices.resize(1);
    slice_s = timed_s;
  } else if (slices.size() > whole) {
    slices.resize(whole);
  }
  MetricList& e2e = report->end_to_end;
  e2e.Set("cols_per_s", QuietSliceRate(slices, slice_s), "cols/s");
  e2e.Set("req_p50_us", QuietSlicePercentile(slices, 0.50), "us");
  e2e.Set("req_p90_us", QuietSlicePercentile(slices, 0.90), "us");
  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("p_at_k", PrecisionAtK(eval), "frac");
  std::fprintf(stderr,
               "served %llu requests (%llu failed), %.0f columns in %.3f s "
               "(%.0f cols/s overall); %zu slices, %zu requests in the first\n",
               static_cast<unsigned long long>(totals.attempted),
               static_cast<unsigned long long>(totals.failed), cols, timed_s,
               Ratio(cols, timed_s), slices.size(), slices[0].latency_us.size());
  if (!params.trace) return;

  MetricList& layer = report->per_layer;
  const double reqs = static_cast<double>(totals.requests_ok);
  layer.Set("req_p99_us", QuietSlicePercentile(slices, 0.99), "us");
  // The whole-run median, to set against the server's whole-run histogram.
  const double req_p50 = PercentileWithFailures(totals.latency_us, totals.failed, 0.50);
  const auto self = SelfTimes(probe_log.spans());
  auto self_of = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  const double probe_reqs = static_cast<double>(probes.requests);
  layer.Set("net.decode_us_per_req", Ratio(self_of("net.decode") * 1e-3, probe_reqs), "us");
  layer.Set("net.encode_us_per_req", Ratio(self_of("net.encode") * 1e-3, probe_reqs), "us");
  const double server_p50 = static_cast<double>(
      HistogramDelta(HistOf(before, "serve.net.request_latency_us"),
                     HistOf(after, "serve.net.request_latency_us"))
          .ValueAtQuantile(0.50));
  layer.Set("net.server_req_p50_us", server_p50, "us");
  layer.Set("net.outside_server_us", req_p50 - server_p50, "us");
  layer.Set("net.first_report_us", Median(totals.first_report_us), "us");
  const double bytes =
      static_cast<double>(CounterOf(after, "serve.net.bytes_read_total") -
                          CounterOf(before, "serve.net.bytes_read_total") +
                          CounterOf(after, "serve.net.bytes_written_total") -
                          CounterOf(before, "serve.net.bytes_written_total"));
  layer.Set("net.bytes_per_col", Ratio(bytes, cols), "B");
  layer.Set("net.frames_out_per_req",
            Ratio(static_cast<double>(CounterOf(after, "serve.net.frames_out_total") -
                                      CounterOf(before, "serve.net.frames_out_total")),
                  reqs),
            "count");

  auto delta_hist = [&](const char* name) {
    return HistogramDelta(HistOf(before, name), HistOf(after, name));
  };
  auto delta_counter = [&](const char* name) {
    return static_cast<double>(CounterOf(after, name) - CounterOf(before, name));
  };
  auto delta_gauge = [&](const char* name) {
    return GaugeOf(after, name) - GaugeOf(before, name);
  };
  layer.Set("serve.dispatch_us",
            static_cast<double>(delta_hist("serve.stage.dispatch_us").ValueAtQuantile(0.5)),
            "us");
  const HistogramSnapshot batch = delta_hist("serve.batch_latency_us");
  layer.Set("serve.batch_us", static_cast<double>(batch.ValueAtQuantile(0.5)), "us");
  layer.Set("serve.batch_p99_us", static_cast<double>(batch.ValueAtQuantile(0.99)), "us");
  layer.Set("serve.worker_busy_frac",
            Ratio(delta_counter("serve.worker_busy_us_total"),
                  static_cast<double>(kEngineWorkers) * timed_s * 1e6),
            "frac");
  const double hits = delta_gauge("serve.cache.hits");
  const double lookups = hits + delta_gauge("serve.cache.misses");
  layer.Set("serve.cache.hit_rate", Ratio(hits, lookups), "frac");
  layer.Set("serve.cache.lookups_per_col", Ratio(lookups, cols), "count");
  layer.Set("serve.cache.evictions", delta_gauge("serve.cache.evictions"), "count");
  layer.Set("serve.mem.peak_bytes", GaugeOf(after, "serve.mem.peak_bytes"), "B");

  const HistogramSnapshot col = delta_hist("detect.column_latency_us");
  const double detected = delta_counter("detect.columns_total");
  const double scored = delta_counter("detect.pairs_scored_total");
  const double cache_hits = delta_counter("detect.pairs_cache_hits_total");
  const double score_us = static_cast<double>(delta_hist("detect.stage.score_us").sum);
  layer.Set("detect.col_p50_us", static_cast<double>(col.ValueAtQuantile(0.5)), "us");
  layer.Set("detect.col_p99_us", static_cast<double>(col.ValueAtQuantile(0.99)), "us");
  layer.Set("detect.score_us_per_col", Ratio(score_us, detected), "us");
  layer.Set("detect.key_us_per_col",
            Ratio(static_cast<double>(delta_hist("detect.stage.key_us").sum), detected), "us");
  layer.Set("detect.score_ns_per_pair", Ratio(score_us * 1e3, scored + cache_hits), "ns");
  layer.Set("detect.pairs_scored_per_col", Ratio(scored, detected), "count");
  layer.Set("detect.cache_hits_per_col", Ratio(cache_hits, detected), "count");
  layer.Set("detect.distinct_per_col",
            Ratio(static_cast<double>(totals.distinct_values), cols), "count");
  layer.Set("detect.rare_fallbacks_per_col",
            Ratio(delta_counter("detect.rare_fallbacks_total"), detected), "count");
  layer.Set("detect.value_pairs_per_keyrow_pair",
            Ratio(static_cast<double>(probes.value_pairs),
                  static_cast<double>(probes.keyrow_pairs)),
            "ratio");
  layer.Set("text.keys_ns_per_value",
            Ratio(self_of("text.keys"), static_cast<double>(probes.keyed_values)), "ns");
  layer.Set("stats.intern_ns_per_value",
            Ratio(self_of("stats.intern"), static_cast<double>(probes.values)), "ns");
  layer.Set("model.load_ms", Median(load_ms), "ms");
  layer.Set("model.bytes", static_cast<double>(model.FileBytes()), "B");
  layer.Set("proc.cpu_us_per_col", Ratio(static_cast<double>(totals.usage.cpu_us), cols), "us");
  layer.Set("proc.ctx_switches_per_req",
            Ratio(static_cast<double>(totals.usage.ctx_switches), reqs), "count");
  const double traced_rate = Ratio(totals.traced_cols, totals.traced_cycle_ns);
  const double untraced_rate = Ratio(totals.untraced_cols, totals.untraced_cycle_ns);
  layer.Set("trace.overhead_frac", 1.0 - Ratio(traced_rate, untraced_rate), "frac");
}

}  // namespace perfbench
