// Shared result emitter for bench_pipeline: order statistics with their
// sample counts, a small JSON writer for the result file, the span
// recorder behind `--trace` (Chrome trace-event output plus a self-time
// summary per span name), and the hardware counters the costs are read
// from.
//
// Percentiles are nearest-rank: the p-th percentile of n sorted samples is
// the sample at rank ceil(p * n), so p50 of an even count is the lower
// median and p99 of 100 samples is the 99th sample, never the maximum.
#ifndef RDFPARAMS_PIPELINE_BENCH_BENCH_REPORT_H_
#define RDFPARAMS_PIPELINE_BENCH_BENCH_REPORT_H_

#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rdfparams::bench {

// ---------------------------------------------------------------------------
// Hardware counters
// ---------------------------------------------------------------------------

/// User-space CPU cycles and instructions retired by the thread that opens
/// the counters and by every thread started after that (perf_event_open
/// with `inherit`); reads sum over all of them, running or ended. Threads
/// already running at Open() are not counted, so open first in main().
class CpuCounters {
 public:
  struct Sample {
    double cycles = 0;
    double instructions = 0;
  };

  CpuCounters() = default;
  ~CpuCounters() {
    for (int fd : fd_) {
      if (fd >= 0) ::close(fd);
    }
  }
  CpuCounters(const CpuCounters&) = delete;
  CpuCounters& operator=(const CpuCounters&) = delete;

  /// False, with the reason in *error, when the kernel refuses a counter
  /// (no PMU in this machine, or perf_event_paranoid above 2).
  bool Open(std::string* error) {
    const uint64_t config[2] = {PERF_COUNT_HW_CPU_CYCLES,
                                PERF_COUNT_HW_INSTRUCTIONS};
    for (size_t i = 0; i < fd_.size(); ++i) {
      perf_event_attr attr;
      std::memset(&attr, 0, sizeof(attr));
      attr.size = sizeof(attr);
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = config[i];
      attr.inherit = 1;
      attr.exclude_kernel = 1;
      attr.exclude_hv = 1;
      attr.read_format =
          PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
      fd_[i] = static_cast<int>(::syscall(SYS_perf_event_open, &attr, 0, -1,
                                          -1, PERF_FLAG_FD_CLOEXEC));
      if (fd_[i] < 0) {
        *error = std::string("perf_event_open: ") + std::strerror(errno);
        return false;
      }
    }
    return true;
  }

  /// Counts so far; 0 before a successful Open().
  Sample Read() const { return {ReadOne(fd_[0]), ReadOne(fd_[1])}; }

 private:
  /// A counter the kernel had to share with other events is scaled by its
  /// enabled over running time, as `perf stat` does.
  static double ReadOne(int fd) {
    uint64_t v[3] = {0, 0, 0};  // value, time enabled, time running
    if (fd < 0 || ::read(fd, v, sizeof(v)) != sizeof(v) || v[2] == 0) {
      return 0;
    }
    return static_cast<double>(v[0]) *
           (static_cast<double>(v[1]) / static_cast<double>(v[2]));
  }

  std::array<int, 2> fd_{-1, -1};
};

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of an ascending vector; p in [0, 1]. 0 when
/// `sorted` is empty.
inline double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// The percentiles a timing may report as its tail, highest first.
inline constexpr double kTailCandidates[] = {0.999, 0.99, 0.9, 0.5};

/// Highest candidate percentile with at least ten samples ranked above it
/// (p50 when even that is unsupported).
inline double SupportedTail(size_t count) {
  for (double p : kTailCandidates) {
    const double rank = std::ceil(p * static_cast<double>(count));
    if (static_cast<double>(count) - rank >= 10.0) return p;
  }
  return 0.5;
}

/// Median, quartiles and the highest supported percentile of one timing
/// (or any other sampled quantity), with the sample count they rest on.
struct Summary {
  size_t count = 0;
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  double tail_p = 0.5;  ///< which percentile `tail` is
  double tail = 0;
  double min = 0;
  double max = 0;
};

inline Summary Summarize(std::vector<double> samples) {
  Summary s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  if (samples.empty()) return s;
  s.median = NearestRank(samples, 0.50);
  s.q1 = NearestRank(samples, 0.25);
  s.q3 = NearestRank(samples, 0.75);
  s.tail_p = SupportedTail(samples.size());
  s.tail = NearestRank(samples, s.tail_p);
  s.min = samples.front();
  s.max = samples.back();
  return s;
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// Shortest text that reads back as the same double (all its digits, no
/// rounding). Non-finite values have no JSON spelling and become null.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

inline std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Minimal streaming writer for nested objects. Keys and values are
/// appended in call order; commas are placed automatically.
class JsonWriter {
 public:
  JsonWriter& BeginObject(std::string_view key = {}) {
    Prefix(key);
    out_ += '{';
    first_.push_back(true);
    return *this;
  }
  JsonWriter& EndObject() {
    out_ += '}';
    first_.pop_back();
    return *this;
  }
  JsonWriter& Number(std::string_view key, double v) {
    Prefix(key);
    out_ += JsonNumber(v);
    return *this;
  }
  JsonWriter& Int(std::string_view key, uint64_t v) {
    Prefix(key);
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& String(std::string_view key, std::string_view v) {
    Prefix(key);
    out_ += JsonString(v);
    return *this;
  }
  JsonWriter& Bool(std::string_view key, bool v) {
    Prefix(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  const std::string& str() const { return out_; }

 private:
  void Prefix(std::string_view key) {
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
    if (!key.empty()) out_ += JsonString(key) + ':';
  }

  std::string out_;
  std::vector<bool> first_;
};

/// One reported metric: a summary of samples in `unit`, or a single value
/// (a count, ratio or rate) with count 1.
struct Metric {
  std::string unit;
  Summary summary;
  /// The figure the metric reports: the median for timings, the value
  /// itself otherwise.
  double value = 0;
};

inline Metric TimingMetric(std::string unit, std::vector<double> samples) {
  Metric m;
  m.unit = std::move(unit);
  m.summary = Summarize(std::move(samples));
  m.value = m.summary.median;
  return m;
}

inline Metric ValueMetric(std::string unit, double value) {
  Metric m;
  m.unit = std::move(unit);
  m.summary = Summarize({value});
  m.value = value;
  return m;
}

inline void WriteMetric(JsonWriter* w, const std::string& name,
                        const Metric& m) {
  w->BeginObject(name)
      .Number("value", m.value)
      .String("unit", m.unit)
      .Int("count", m.summary.count)
      .Number("median", m.summary.median)
      .Number("q1", m.summary.q1)
      .Number("q3", m.summary.q3)
      .Number("tail_p", m.summary.tail_p)
      .Number("tail", m.summary.tail)
      .Number("min", m.summary.min)
      .Number("max", m.summary.max)
      .EndObject();
}

inline bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Records nested spans from one thread: name, start, end, parent and a
/// request id. Spans live in memory until the trace is written. Names
/// must be string literals (only the pointer is kept).
///
/// With `children` false only root spans are recorded and nested Begin /
/// End pairs cost a counter update: that is the untraced baseline the
/// tracing overhead is measured against, timing the same root regions.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanRecorder(bool children = true)
      : children_(children), origin_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span under the innermost open one.
  void Begin(const char* name, uint64_t request = 0) {
    if (depth_++ > 0 && !children_) return;
    const int64_t parent =
        open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    spans_.push_back(Record{name, Now(), 0, parent, request});
    open_.push_back(spans_.size() - 1);
  }

  /// Closes the innermost open span.
  void End() {
    if (--depth_ > 0 && !children_) return;
    spans_[open_.back()].end_ns = Now();
    open_.pop_back();
  }

  /// RAII span; a null recorder records nothing.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name, uint64_t request = 0)
        : rec_(rec) {
      if (rec_ != nullptr) rec_->Begin(name, request);
    }
    ~Scope() {
      if (rec_ != nullptr) rec_->End();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
  };

  /// Seconds of self time per span name: each span's duration minus the
  /// part its child spans cover, summed over the spans of that name.
  std::map<std::string, double> SelfTimes() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const int64_t p = spans_[i].parent;
      if (p >= 0) child_ns[static_cast<size_t>(p)] += Duration(i);
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] +=
          static_cast<double>(Duration(i) - child_ns[i]) * 1e-9;
    }
    return out;
  }

  /// Summed duration of the root spans (those without a parent).
  double RootSeconds() const {
    int64_t ns = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent < 0) ns += Duration(i);
    }
    return static_cast<double>(ns) * 1e-9;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds), loadable
  /// in chrome://tracing and Perfetto.
  std::string ChromeTrace() const {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      if (i > 0) out += ",\n";
      out += "{\"name\":" + JsonString(r.name) +
             ",\"cat\":" + JsonString(Layer(r.name)) +
             ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
             JsonNumber(static_cast<double>(r.begin_ns) * 1e-3) +
             ",\"dur\":" + JsonNumber(static_cast<double>(Duration(i)) * 1e-3) +
             ",\"args\":{\"id\":" + std::to_string(i) +
             ",\"parent\":" + std::to_string(r.parent) +
             ",\"request\":" + std::to_string(r.request) + "}}";
    }
    return out + "]}\n";
  }

 private:
  struct Record {
    const char* name;
    int64_t begin_ns;
    int64_t end_ns;
    int64_t parent;  ///< index into spans_, -1 for a root
    uint64_t request;
  };

  static std::string Layer(std::string_view name) {
    return std::string(name.substr(0, name.find('.')));
  }
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  int64_t Duration(size_t i) const {
    return spans_[i].end_ns - spans_[i].begin_ns;
  }

  bool children_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<size_t> open_;
  size_t depth_ = 0;
};

}  // namespace rdfparams::bench

#endif  // RDFPARAMS_PIPELINE_BENCH_BENCH_REPORT_H_
