#pragma once
/// \file trace.hpp
/// In-memory span recorder for the benchmark's traced run. Spans are
/// opened around each call the benchmark makes into a layer's public API
/// and named `<layer>.<call>`; each span links to the span that was open
/// when it started, so the trace is a tree. Nothing is recorded while the
/// tracer is disabled (no clock reads, no allocation), which is how the
/// untraced run measures the end-to-end metrics. The spans are written out
/// once, as Chrome trace-event JSON, when the benchmark ends.

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    double start_us = 0.0;
    double dur_us = 0.0;
    std::vector<std::pair<std::string, double>> args;  ///< counters at this boundary
  };

  /// RAII handle of one open span; inert when the tracer was disabled at
  /// open time.
  class Scope {
   public:
    Scope(Tracer* tracer, int id) : tracer_(tracer), id_(id) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void arg(const char* key, double value) {
      if (tracer_ != nullptr)
        tracer_->spans_[static_cast<std::size_t>(id_)].args.emplace_back(key, value);
    }

   private:
    Tracer* tracer_;
    int id_;
  };

  /// Toggle between spans only: a scope opened while enabled must close
  /// while enabled.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] Scope span(const char* name) {
    if (!enabled_) return Scope(nullptr, -1);
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_us = now_us();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return Scope(this, id);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Duration in seconds (empty `key`) or arg `key` of every span named `name`.
  [[nodiscard]] std::vector<double> values(const std::string& name,
                                           const std::string& key = "") const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(value_of(s, key));
    return out;
  }

  /// Write the spans as Chrome trace-event JSON ("X" complete events; the
  /// parent link rides in args). `other_data` is a JSON object stamped into
  /// the file's otherData field. Returns false when the file cannot be
  /// written.
  [[nodiscard]] bool write_chrome_json(const std::string& path,
                                       const std::string& other_data) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\"traceEvents\":[",
                 other_data.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d",
                   i == 0 ? "" : ",", s.name.c_str(), layer_of(s.name).c_str(),
                   s.start_us, s.dur_us, i, s.parent);
      for (const auto& [key, value] : s.args)
        std::fprintf(f, ",\"%s\":%.17g", key.c_str(), value);
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.dur_us = now_us() - s.start_us;
    stack_.pop_back();
  }

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  [[nodiscard]] static double value_of(const Span& s, const std::string& key) {
    if (key.empty()) return s.dur_us * 1e-6;
    for (const auto& [k, v] : s.args)
      if (k == key) return v;
    return 0.0;
  }

  [[nodiscard]] static std::string layer_of(const std::string& name) {
    const std::size_t dot = name.find('.');
    return dot == std::string::npos ? "bench" : name.substr(0, dot);
  }

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  Clock::time_point origin_ = Clock::now();
};

}  // namespace perfbench
