#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanLog::Begin(const char* name, int32_t parent, uint64_t request_id) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  return Add(name, now, now, parent, request_id);
}

void SpanLog::End(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

int32_t SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     int32_t parent, uint64_t request_id) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request_id});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t duration = s.end_ns - s.start_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;  // end of the union covered so far
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    LayerTime& t = out[s.name];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - covered;
  }
  return out;
}

bool DumpSpans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("log\tindex\tname\tstart_ns\tend_ns\tparent\trequest_id\n", f);
  for (size_t l = 0; l < logs.size(); ++l) {
    const auto& spans = logs[l]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%s\t%lld\t%lld\t%d\t%llu\n", l, i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request_id));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
