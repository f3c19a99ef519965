// presto benchmark runner.
//
//   presto_perfbench --workload NAME --seed N --seconds S --mode measure|layers
//                    [--spans PATH] [--plant-mismatch]
//
// measure: repeats the workload's cell set for about S seconds with tracing
//   off and prints the end-to-end metrics (medians over passes).
// layers: unit-cost probes, System build/teardown, untraced and spanned
//   passes, and one event-traced cell; prints the per-layer metrics and a
//   self-time table, and writes the benchmark's spans to PATH.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Cells run one after another on this thread; only the layer run's
// window-pool probe uses a second (worker) thread.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cells.h"
#include "check/oracle.h"
#include "checks.h"
#include "probes.h"
#include "spans.h"

namespace {

using perfbench::Cell;
using perfbench::CellRun;
using perfbench::Spans;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  std::string mode = "measure";
  std::string spans_path;
  bool plant_mismatch = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "presto_perfbench: %s\nusage: presto_perfbench --workload NAME "
               "--seed N --seconds S [--mode measure|layers] [--spans PATH] "
               "[--plant-mismatch]\n",
               why.c_str());
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-mismatch") {
      a.plant_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      if (!parse_u64(v, &a.seed)) usage(std::string("bad --seed ") + v);
      have_seed = true;
    } else if (flag == "--seconds") {
      std::uint64_t s = 0;
      if (!parse_u64(v, &s) || s < 1 || s > 3600)
        usage(std::string("bad --seconds ") + v);
      a.seconds = static_cast<double>(s);
    } else if (flag == "--mode") {
      a.mode = v;
      if (a.mode != "measure" && a.mode != "layers")
        usage("bad --mode " + a.mode);
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  return a;
}

// Each of these silently changes the program measured, so the benchmark
// refuses to run with any of them set, and with the coherence oracle on.
void guard_measured_program() {
  static const char* const kEnv[] = {
      "PRESTO_TEST_BUG", "PRESTO_ORACLE",    "PRESTO_BACKEND",
      "PRESTO_WORKERS",  "PRESTO_STACK_SIZE", "PRESTO_STACHE_TRACE",
      "PRESTO_JOBS",
  };
  for (const char* name : kEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "presto_perfbench: refusing to measure: %s is set and "
                   "would change the program measured\n",
                   name);
      std::exit(3);
    }
  }
  if (presto::check::oracle_enabled_by_default()) {
    std::fprintf(stderr,
                 "presto_perfbench: refusing to measure: the coherence oracle "
                 "is on (a build without NDEBUG)\n");
    std::exit(3);
  }
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void print_fingerprint() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf("host: {\"cpu\": %s, \"nproc\": %u, \"compiler\": %s, "
              "\"build_type\": %s}\n",
              json_string(cpu_model()).c_str(),
              std::thread::hardware_concurrency(),
              json_string(compiler).c_str(),
              json_string(PERFBENCH_BUILD_TYPE).c_str());
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double sim_seconds(presto::sim::Time t) { return static_cast<double>(t) * 1e-9; }

// One timed cell execution.
struct Timed {
  CellRun run;
  double wall_s = 0.0;
  double setup_s = 0.0;  // wall outside System::run
};

Timed run_cell(const Cell& c) {
  const auto t0 = Clock::now();
  presto::apps::AppResult r = c.run();
  Timed t;
  t.wall_s = since(t0);
  t.setup_s = t.wall_s - r.report.host.run_wall_s;
  t.run = CellRun{c.name, c.input, r.checksum, std::move(r.report)};
  return t;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const perfbench::Verdict& v,
                  const std::vector<Metric>& metrics) {
  for (const std::string& why : v.reasons)
    std::printf("FAILED %s\n", why.c_str());
  std::string out = "{\"correct\": ";
  out += v.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(v.attempted);
  out += ", \"failed\": " + std::to_string(v.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
           ": {\"value\": " + buf + ", \"unit\": " +
           json_string(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// Moves the last run's checksum by one part in 10^12 (thousands of ulps),
// so the checks must count it.
void plant_mismatch(std::vector<CellRun>* runs) {
  if (runs->empty()) return;
  double& c = runs->back().checksum;
  c += (c == 0.0 ? 1.0 : c) * 1e-12;
  std::printf("planted a checksum mismatch in %s\n", runs->back().cell.c_str());
}

int measure(const Args& a, const Workload& w) {
  const auto t_start = Clock::now();
  std::vector<CellRun> runs;
  // References first: they are not timed, and they also warm the heap.
  for (const Cell& c : w.references) runs.push_back(run_cell(c).run);
  const double refs_s = since(t_start);

  const std::size_t n = w.cells.size();
  std::vector<std::vector<double>> wall(n), setup(n);
  std::vector<double> pass_s;
  presto::sim::Time exec_total = 0;
  // At least two passes (the repeat check needs them); then more while the
  // next pass, at the median pass time, still fits in the budget.
  while (pass_s.size() < 2 ||
         since(t_start) + median(pass_s) <= a.seconds) {
    const auto tp = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      Timed t = run_cell(w.cells[i]);
      wall[i].push_back(t.wall_s);
      setup[i].push_back(t.setup_s);
      if (pass_s.empty()) exec_total += t.run.report.exec;
      runs.push_back(std::move(t.run));
    }
    pass_s.push_back(since(tp));
    std::printf("pass %zu:", pass_s.size());
    for (std::size_t i = 0; i < n; ++i) std::printf(" %.4f", wall[i].back());
    std::printf("\n");
  }

  double wall_s = 0.0, setup_s = 0.0;
  std::printf("workload %s seed %llu: %zu passes, references %.3f s\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              pass_s.size(), refs_s);
  std::printf("%-24s %12s %12s %14s\n", "cell", "wall_s", "setup_s",
              "sim_exec_s");
  for (std::size_t i = 0; i < n; ++i) {
    const double cw = median(wall[i]), cs = median(setup[i]);
    wall_s += cw;
    setup_s += cs;
    std::printf("%-24s %12.6f %12.6f %14.9f\n", w.cells[i].name.c_str(), cw,
                cs, sim_seconds(runs[w.references.size() + i].report.exec));
  }
  if (a.plant_mismatch) plant_mismatch(&runs);
  const perfbench::Verdict v = perfbench::check_runs(runs);
  print_result(v, {{"wall_s", wall_s, "s"},
                   {"setup_s", setup_s, "s"},
                   {"peak_rss_mb", peak_rss_mb(), "MB"},
                   {"sim_exec_s", sim_seconds(exec_total), "s"}});
  return 0;
}

// Host-time probes of single layers, each call in its own span; every figure
// is a median over repetitions.
struct Probes {
  double event_ns = 0.0, handoff_ns = 0.0, hit_ns = 0.0, remote_read_ns = 0.0,
         send_ns = 0.0;
  presto::stats::HostCounters windows;  // window counts, from the last run
  double win_drain_s = 0.0, win_boundary_s = 0.0, win_barrier_wait_s = 0.0,
         win_park_s = 0.0;
  double build_s = 0.0, teardown_s = 0.0;  // summed over the cells
};

Probes run_probes(Spans& spans, const Workload& w) {
  constexpr int kReps = 5;
  std::vector<double> ev, ho, hit, rr, send;
  for (int r = 0; r < kReps; ++r) {
    {
      Spans::Scope s(spans, "sim.probe.event");
      ev.push_back(perfbench::probe_event_ns());
    }
    {
      Spans::Scope s(spans, "sim.probe.handoff");
      ho.push_back(perfbench::probe_handoff_ns());
    }
    {
      Spans::Scope s(spans, "mem.probe.read");
      const perfbench::MemProbe m = perfbench::probe_mem();
      hit.push_back(m.hit_ns);
      rr.push_back(m.remote_read_ns);
    }
    {
      Spans::Scope s(spans, "net.probe.send");
      send.push_back(perfbench::probe_send_ns());
    }
  }
  Probes p;
  p.event_ns = median(ev);
  p.handoff_ns = median(ho);
  p.hit_ns = median(hit);
  p.remote_read_ns = median(rr);
  p.send_ns = median(send);

  // The window pool, which no workload's cells use: three runs.
  std::vector<double> drain, boundary, barrier, park;
  for (int r = 0; r < 3; ++r) {
    Spans::Scope s(spans, "sim.probe.windows");
    p.windows = perfbench::probe_windows();
    drain.push_back(static_cast<double>(p.windows.win_drain_ns) * 1e-9);
    boundary.push_back(static_cast<double>(p.windows.win_boundary_ns) * 1e-9);
    barrier.push_back(static_cast<double>(p.windows.win_barrier_wait_ns) *
                      1e-9);
    park.push_back(static_cast<double>(p.windows.win_park_ns) * 1e-9);
  }
  p.win_drain_s = median(drain);
  p.win_boundary_s = median(boundary);
  p.win_barrier_wait_s = median(barrier);
  p.win_park_s = median(park);

  // System construction and destruction for each cell's own configuration.
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    std::vector<double> build, teardown;
    for (int r = 0; r < kReps; ++r) {
      Spans::Scope s(spans, "runtime.probe.build " + w.cells[i].name,
                     static_cast<int>(i));
      const perfbench::BuildProbe b =
          perfbench::probe_build(w.cells[i].machine, w.cells[i].kind);
      build.push_back(b.build_s);
      teardown.push_back(b.teardown_s);
    }
    p.build_s += median(build);
    p.teardown_s += median(teardown);
  }
  return p;
}

int layers(const Args& a, const Workload& w) {
  const auto t_start = Clock::now();
  Spans spans;
  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };
  const Probes p = run_probes(spans, w);

  // Untraced and spanned passes, alternating, for the span overhead; the
  // spanned passes' reports give the layer counts. Untraced passes record
  // no span at all.
  const auto tc = static_cast<std::size_t>(w.traced_cell);
  std::vector<CellRun> runs;
  std::vector<double> overhead, tc_wall;
  std::vector<Timed> spanned;
  double untraced_pass_s = 0.0, spanned_pass_s = 0.0;
  while (overhead.empty() || since(t_start) + 2.0 * (untraced_pass_s +
                                                     spanned_pass_s) <=
                                 a.seconds) {
    auto tp = Clock::now();
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      Timed t = run_cell(w.cells[i]);
      if (i == tc) tc_wall.push_back(t.wall_s);
      runs.push_back(std::move(t.run));
    }
    untraced_pass_s = since(tp);
    tp = Clock::now();
    spanned.clear();
    {
      Spans::Scope pass(spans, "bench.pass");
      for (std::size_t i = 0; i < w.cells.size(); ++i) {
        Spans::Scope s(spans, "apps." + w.cells[i].name, static_cast<int>(i));
        spanned.push_back(run_cell(w.cells[i]));
      }
    }
    spanned_pass_s = since(tp);
    tc_wall.push_back(spanned[tc].wall_s);
    for (const Timed& t : spanned) runs.push_back(t.run);
    overhead.push_back(spanned_pass_s - untraced_pass_s);
  }

  // One cell with presto's event tracer on (in memory).
  Cell traced_cell = w.cells[tc];
  traced_cell.machine.trace.enabled = true;
  Timed traced;
  {
    Spans::Scope s(spans, "trace." + traced_cell.name, static_cast<int>(tc));
    traced = run_cell(traced_cell);
  }
  {
    Spans::Scope s(spans, "bench.references");
    for (const Cell& c : w.references) runs.push_back(run_cell(c).run);
  }
  const double layer_run_s = since(t_start);

  if (a.plant_mismatch) plant_mismatch(&runs);
  perfbench::Verdict v = perfbench::check_runs(runs);
  const std::vector<std::string> tr =
      perfbench::check_traced(traced.run, spanned[tc].run);
  ++v.attempted;
  if (!tr.empty()) {
    ++v.failed;
    std::string why = traced.run.cell + " (traced):";
    for (const std::string& r : tr) why += " " + r + ";";
    v.reasons.push_back(why);
  }

  // Layer counts, summed over the last spanned pass's cells.
  using presto::stats::HostCounters;
  using presto::stats::Report;
  const auto sum = [&spanned](auto Report::* field) {
    double total = 0.0;
    for (const Timed& t : spanned)
      total += static_cast<double>(t.run.report.*field);
    return total;
  };
  const auto host_sum = [&spanned](auto HostCounters::* field) {
    double total = 0.0;
    for (const Timed& t : spanned)
      total += static_cast<double>(t.run.report.host.*field);
    return total;
  };
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  const double events = host_sum(&HostCounters::events);
  const double accesses = sum(&Report::shared_accesses);
  add("sim.run_s", host_sum(&HostCounters::run_wall_s), "s");
  add("sim.events", events, "count");
  add("sim.handoffs", host_sum(&HostCounters::handoffs), "count");
  add("sim.direct_resumes", host_sum(&HostCounters::direct_resumes), "count");
  add("sim.yields", host_sum(&HostCounters::yields), "count");
  add("sim.blocks", host_sum(&HostCounters::blocks), "count");
  add("sim.ns_per_event",
      events > 0 ? host_sum(&HostCounters::run_wall_s) * 1e9 / events : 0.0,
      "ns");
  add("sim.unit_ns.event", p.event_ns, "ns");
  add("sim.unit_ns.handoff", p.handoff_ns, "ns");
  add("sim.windows", d(p.windows.windows), "count");
  add("sim.win_drain_s", p.win_drain_s, "s");
  add("sim.win_boundary_s", p.win_boundary_s, "s");
  add("sim.win_barrier_wait_s", p.win_barrier_wait_s, "s");
  add("sim.win_park_s", p.win_park_s, "s");
  add("sim.win_parks", d(p.windows.win_parks), "count");
  add("sim.win_releases", d(p.windows.win_releases), "count");
  add("mem.accesses", accesses, "count");
  add("mem.faults", sum(&Report::faults), "count");
  add("mem.local_faults", sum(&Report::local_faults), "count");
  add("mem.local_hit_pct",
      accesses > 0 ? 100.0 * (1.0 - sum(&Report::faults) / accesses) : 100.0,
      "%");
  add("mem.unit_ns.hit", p.hit_ns, "ns");
  add("mem.unit_ns.remote_read", p.remote_read_ns, "ns");
  add("net.msgs", sum(&Report::msgs), "count");
  add("net.bytes", sum(&Report::bytes), "bytes");
  add("net.unit_ns.send", p.send_ns, "ns");
  add("proto.presend_blocks", sum(&Report::presend_blocks), "count");
  add("proto.dir_probes", sum(&Report::dir_probes), "count");
  add("proto.sched_lookups", sum(&Report::sched_lookups), "count");
  add("proto.cc_flushes", sum(&Report::cc_flushes), "count");
  add("proto.cc_entries", sum(&Report::cc_entries), "count");
  add("proto.metadata_bytes", host_sum(&HostCounters::metadata_bytes),
      "bytes");
  add("runtime.build_s", p.build_s, "s");
  add("runtime.teardown_s", p.teardown_s, "s");
  add("stats.remote_wait_s", sum(&Report::remote_wait) * 1e-9, "s");
  add("stats.presend_s", sum(&Report::presend) * 1e-9, "s");
  add("stats.compute_synch_s", sum(&Report::compute_synch) * 1e-9, "s");
  add("stats.barrier_wait_s", sum(&Report::barrier_wait) * 1e-9, "s");
  const presto::stats::Report& tr_r = traced.run.report;
  add("trace.events", d(tr_r.trace_events), "count");
  add("trace.overhead_pct", (traced.wall_s / median(tc_wall) - 1.0) * 100.0,
      "%");
  add("trace.miss_cold", d(tr_r.miss_cold), "count");
  add("trace.miss_invalidation", d(tr_r.miss_invalidation), "count");
  add("trace.miss_presend_waste", d(tr_r.miss_presend_waste), "count");
  add("trace.miss_merge", d(tr_r.miss_merge), "count");
  const std::uint64_t presends =
      tr_r.presend_hits + tr_r.presend_waste + tr_r.presend_unused;
  add("trace.presend_hit_pct",
      presends ? 100.0 * d(tr_r.presend_hits) / d(presends) : 0.0, "%");

  std::printf("workload %s seed %llu: layer run, %zu pass pairs, traced cell "
              "%s\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              overhead.size(), traced_cell.name.c_str());
  std::printf("%-20s %9s %9s %9s %10s %9s %10s %9s %9s\n", "cell", "wall_s",
              "run_s", "setup_s", "events", "handoff%", "accesses", "faults",
              "msgs");
  for (const Timed& t : spanned) {
    const presto::stats::Report& r = t.run.report;
    std::printf("%-20s %9.4f %9.4f %9.4f %10llu %9.1f %10llu %9llu %9llu\n",
                t.run.cell.c_str(), t.wall_s, r.host.run_wall_s, t.setup_s,
                static_cast<unsigned long long>(r.host.events),
                r.host.events ? 100.0 * d(r.host.handoffs) / d(r.host.events)
                              : 0.0,
                static_cast<unsigned long long>(r.shared_accesses),
                static_cast<unsigned long long>(r.faults),
                static_cast<unsigned long long>(r.msgs));
  }
  std::printf("%-12s %12s   (self time of the benchmark's spans)\n", "layer",
              "self_s");
  double spanned_s = 0.0;
  for (const auto& [layer, s] : spans.self_seconds_by_layer()) {
    std::printf("%-12s %12.6f\n", layer.c_str(), s);
    spanned_s += s;
  }
  std::printf("%-12s %12.6f   (untraced passes, checks)\n", "not spanned",
              layer_run_s - spanned_s);
  std::printf("span overhead: %.6f s per pass (median of %zu spanned minus "
              "untraced passes)\n",
              median(overhead), overhead.size());
  std::printf("unmeasured from outside: mem.read_faults, mem.write_faults "
              "(Report carries only their sum, mem.faults)\n");
  if (!a.spans_path.empty()) {
    if (!spans.write_chrome_json(a.spans_path)) {
      std::fprintf(stderr, "presto_perfbench: cannot write %s\n",
                   a.spans_path.c_str());
      return 1;
    }
    std::printf("spans: %s (%zu spans, Chrome trace_event JSON)\n",
                a.spans_path.c_str(), spans.spans().size());
  }
  print_result(v, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  guard_measured_program();
  Workload w;
  if (!perfbench::make_workload(a.workload, a.seed, &w))
    usage("unknown workload " + a.workload);
  print_fingerprint();
  return a.mode == "measure" ? measure(a, w) : layers(a, w);
}
