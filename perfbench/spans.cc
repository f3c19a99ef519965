#include "spans.h"

#include <cstdio>

namespace perfbench {

double Spans::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

int Spans::begin(std::string name, int cell) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.cell = cell;
  s.start_s = now_s();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Spans::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  // Scopes nest, so the closing span is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Spans::self_seconds_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_s - spans_[i].start_s;
  // Children of one parent never overlap (spans nest on one thread), so
  // subtracting each child's duration removes exactly the covered part.
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name.substr(0, spans_[i].name.find('.'))] += self[i];
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool Spans::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name = json_escape(s.name);
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"cell\": %d}}",
                 i == 0 ? "" : ",\n", name.c_str(),
                 name.substr(0, name.find('.')).c_str(), s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, i, s.parent, s.cell);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
