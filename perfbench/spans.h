// In-memory spans recorded by the benchmark around its calls into presto's
// layers. A span's name starts with its layer ("apps.", "runtime.", "sim.",
// ...); spans of one cell share a cell id. Nothing is written until the run
// ends (write_chrome_json).
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  // since the recorder was created
    double end_s = 0.0;
    int parent = -1;  // index into spans(), -1 for a root
    int cell = -1;    // cell id shared by a cell's spans, -1 for none
  };

  // Closes its span on destruction.
  class Scope {
   public:
    Scope(Spans& s, std::string name, int cell = -1)
        : spans_(s), id_(s.begin(std::move(name), cell)) {}
    ~Scope() { spans_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_;
  };

  int begin(std::string name, int cell = -1);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  // Each span's duration minus the part covered by its direct children,
  // summed per layer (the span name up to its first '.').
  std::map<std::string, double> self_seconds_by_layer() const;

  // Chrome trace_event JSON ("X" complete events, one thread), which
  // Perfetto and chrome://tracing open.
  bool write_chrome_json(const std::string& path) const;

 private:
  double now_s() const;

  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
