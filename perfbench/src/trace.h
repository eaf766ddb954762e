#pragma once

/// \file trace.h
/// Bench-side spans for the traced mode. A span is recorded around a call
/// into one layer of the program: name, start, end, the span that caused it
/// and the request it belongs to. Each thread appends to its own SpanLog, so
/// recording takes no lock; the logs are merged and written out when the
/// run ends. A disabled log records nothing, which is what untraced runs use.

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

struct Span {
  const char* name = "";  ///< static string naming the layer call
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< index of the causing span in the same log
  uint64_t request_id = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span now; returns its index, or -1 when the log is disabled.
  int32_t Begin(const char* name, int32_t parent, uint64_t request_id);
  void End(int32_t index);
  /// Records a finished span with explicit bounds.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns, int32_t parent,
              uint64_t request_id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int32_t parent = -1,
             uint64_t request_id = 0)
      : log_(log), index_(log.Begin(name, parent, request_id)) {}
  ~ScopedSpan() { log_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  SpanLog& log_;
  int32_t index_;
};

/// Owns the per-thread logs of one run. Create a log on the thread that
/// starts the worker, before starting it; logs never move once created.
class SpanLogs {
 public:
  explicit SpanLogs(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  SpanLog& NewLog() { return logs_.emplace_back(enabled_); }
  std::vector<const SpanLog*> all() const {
    std::vector<const SpanLog*> out;
    for (const SpanLog& log : logs_) out.push_back(&log);
    return out;
  }

 private:
  bool enabled_;
  std::deque<SpanLog> logs_;
};

struct LayerTime {
  uint64_t count = 0;
  int64_t total_ns = 0;  ///< summed span durations
  int64_t self_ns = 0;   ///< summed durations minus time covered by children
};

/// Per span name: count, total time and self time. A span's self time is its
/// duration minus the part of its interval that its child spans cover
/// (overlapping children are counted once, and a child's time outside its
/// parent is ignored).
std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans);

/// Writes every span of every log as tab-separated lines
/// (log, index, name, start_ns, end_ns, parent, request_id). Returns false
/// if the file cannot be written.
bool DumpSpans(const std::string& path, const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
