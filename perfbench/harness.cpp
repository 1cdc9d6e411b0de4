// perfbench — the C++ half of the repository benchmark. run.py is the
// entry point and does the statistics; METRICS.md is the metric catalog.
//
//   perfbench compile --workload paper-beam|scale-multilevel --seed N
//                     --seconds S [--trace] [--trace-out FILE]
//       Closed loop, one caller, one compile at a time on 2 inner lanes.
//       Generates the workload's instance set from the seed and compiles it
//       in whole sweeps until S seconds have passed, then replays every
//       compiled circuit on the stabilizer simulator under a seed the
//       compiler never used. Untraced runs call compile_framework; --trace
//       drives make_framework_pipeline() stage by stage under
//       benchmark-owned spans (nothing inside the library records), also
//       compiles each instance untraced and at 1 lane, and reports the
//       per-layer counters. Prints one JSON object of raw samples.
//   perfbench gen-serve --seed N --probe-rounds R --out DIR
//       Writes the serve-zipf graph pools (hot set, fresh graphs, one-edge
//       edits of hot graphs, R rounds of cold-latency probes) as graph6
//       lines.
//   perfbench loadgen --port P --schedule FILE --connections K
//       Sends the scheduled NDJSON requests over K TCP connections, step
//       by step. An open-loop step sends each request at its due time and
//       times it from then; a step whose due times are negative is a
//       closed loop, where each connection sends its next request once
//       the previous one on it is answered. Then checks every response and
//       replays every returned circuit. Prints one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "circuit/serialize.hpp"
#include "common/json.hpp"
#include "common/json_value.hpp"
#include "common/rng.hpp"
#include "compile/framework.hpp"
#include "compile/pipeline.hpp"
#include "compile/verify.hpp"
#include "graph/generators.hpp"
#include "io/graph_io.hpp"
#include "obs/trace.hpp"
#include "runtime/batch_compiler.hpp"
#include "service/transport.hpp"

namespace {

using namespace epg;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---- arguments -------------------------------------------------------------

struct Args {
  std::map<std::string, std::string> kv;
  bool has(const std::string& k) const { return kv.count(k) != 0; }
  std::string str(const std::string& k) const {
    const auto it = kv.find(k);
    if (it == kv.end()) throw std::runtime_error("missing --" + k);
    return it->second;
  }
  std::uint64_t u64(const std::string& k) const {
    return std::stoull(str(k));
  }
  double num(const std::string& k) const { return std::stod(str(k)); }
};

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) throw std::runtime_error("bad argument " + k);
    k = k.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
      a.kv[k] = argv[++i];
    else
      a.kv[k] = "1";
  }
  return a;
}

// ---- instances ---------------------------------------------------------------

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Graph lattice_graph(std::size_t n, std::uint64_t seed) {
  std::size_t rows = 1;  // most square rows x cols factorization of n
  for (std::size_t r = 2; r * r <= n; ++r)
    if (n % r == 0) rows = r;
  return shuffle_labels(make_lattice(rows, n / rows), seed);
}

Graph family_graph(const std::string& family, std::size_t n,
                   std::uint64_t seed) {
  if (family == "lattice") return lattice_graph(n, seed);
  if (family == "tree")
    return shuffle_labels(make_random_tree(n, mix(seed, 1), 3), seed);
  if (family == "waxman") {
    // The median-density of nine draws: a Waxman graph's edge count swings
    // its compile time and ee-CNOT count far more than its shape does, so
    // this keeps the instance set's totals steady from seed to seed.
    std::vector<Graph> draws;
    for (std::uint64_t k = 0; k < 9; ++k)
      draws.push_back(make_waxman(n, mix(seed, 2 + 16 * k)));
    std::sort(draws.begin(), draws.end(), [](const Graph& a, const Graph& b) {
      return a.edge_count() < b.edge_count();
    });
    return shuffle_labels(draws[4], seed);
  }
  if (family == "random")
    return shuffle_labels(make_sparse_random(n, 4.0, mix(seed, 3)), seed);
  throw std::runtime_error("unknown family " + family);
}

struct Instance {
  std::string name;
  Graph graph;
};

struct WorkloadShape {
  std::vector<std::string> families;
  std::vector<std::size_t> sizes;
  std::size_t draws;     ///< instances per (family, size) cell
  std::size_t warmup_n;  ///< warm-up compile: first family at this size
};

// Sec. V.A families at paper sizes, and the scale tier's families at 1k
// vertices. Every (family, size) cell appears `draws` times per seed; the
// seed draws the random structure and the label permutation. Sizes are
// capped where one sweep of the set still fits a run several times over.
WorkloadShape workload_shape(const std::string& workload) {
  if (workload == "paper-beam")
    return {{"lattice", "tree", "waxman"}, {16, 20, 24, 28}, 2, 20};
  if (workload == "scale-multilevel")
    return {{"random", "tree", "lattice"}, {1024}, 2, 256};
  throw std::runtime_error("unknown compile workload " + workload);
}

std::vector<Instance> make_instances(const WorkloadShape& shape,
                                     std::uint64_t seed) {
  std::vector<Instance> out;
  for (const std::string& family : shape.families)
    for (std::size_t n : shape.sizes)
      for (std::size_t d = 0; d < shape.draws; ++d)
        out.push_back({family + std::to_string(n) + "." + std::to_string(d),
                       family_graph(family, n, mix(seed, out.size() + 100))});
  return out;
}

FrameworkConfig workload_config(const std::string& workload, std::size_t n) {
  FrameworkConfig cfg;
  cfg.partition.g_max = 7;         // paper: g_max = 7
  cfg.partition.max_lc_ops = 15;   // paper: l = 15
  cfg.ne_limit_factor = 1.5;       // paper: Ne_limit = 1.5 * Ne_min
  // Lifted wall-clock budgets: under a binding budget both compile time
  // and output track machine load instead of the program.
  cfg.partition.time_budget_ms = kUnboundedBudgetMs;
  cfg.subgraph.time_budget_ms = kUnboundedBudgetMs;
  if (workload == "scale-multilevel") {
    cfg.partition.strategy = "multilevel";
    // bench_scale's rule: the uncapped flexible-ne pass is quadratic in
    // parts at these sizes.
    cfg.flexible_ne_max_trials = n <= 1000 ? 64 : n <= 10000 ? 16 : 4;
    cfg.verify_seeds = 1;
  } else {
    cfg.partition.strategy = "beam";
  }
  return cfg;
}

// ---- compile workloads ---------------------------------------------------------

constexpr const char* kStages[] = {"partition", "subgraph", "schedule",
                                   "correction", "verify"};
constexpr std::size_t kNumStages = std::size(kStages);

struct Quality {
  std::size_t ee_cnot = 0;
  double duration_tau = 0.0;
  double t_loss_tau = 0.0;
  bool operator==(const Quality&) const = default;
};

Quality quality_of(const FrameworkResult& r) {
  return {r.stats().ee_cnot_count, r.stats().duration_tau,
          r.stats().t_loss_tau};
}

/// Per-layer counters of one traced compile.
struct LayerCounters {
  double stage_ms[kNumStages] = {};
  double wall_ms = 0.0;
  double lc_ops = 0, parts = 0, stems = 0, dfs_nodes = 0, part_entries = 0;
  double ladder_fallbacks = 0, emitter_busy = 0, emitter_capacity = 0;

  void add(const LayerCounters& o) {
    for (std::size_t s = 0; s < kNumStages; ++s) stage_ms[s] += o.stage_ms[s];
    wall_ms += o.wall_ms;
    lc_ops += o.lc_ops;
    parts += o.parts;
    stems += o.stems;
    dfs_nodes += o.dfs_nodes;
    part_entries += o.part_entries;
    ladder_fallbacks += o.ladder_fallbacks;
    emitter_busy += o.emitter_busy;
    emitter_capacity += o.emitter_capacity;
  }
};

/// Busy emitter-ticks and emitters x makespan of a schedule.
std::pair<double, double> emitter_occupancy(const GlobalSchedule& s) {
  const auto& gates = s.circuit.gates();
  double busy = 0.0;
  for (std::size_t i = 0; i < gates.size() && i < s.gate_start.size(); ++i) {
    const double len = static_cast<double>(s.gate_end[i] - s.gate_start[i]);
    busy += len * ((gates[i].a.kind == QubitKind::emitter) +
                   (gates[i].b.kind == QubitKind::emitter &&
                    gates[i].is_two_qubit()));
  }
  return {busy, static_cast<double>(s.circuit.num_emitters()) *
                    static_cast<double>(s.makespan)};
}

void record_span(TraceRecorder& rec, const char* name, double start_us,
                 const std::string& args) {
  rec.record({name, "perfbench", start_us, rec.now_us() - start_us, 0, args});
}

/// One compile driven stage by stage through the public pipeline, each
/// stage->run(ctx) inside a benchmark-owned span.
FrameworkResult traced_compile(const Instance& inst,
                               const FrameworkConfig& cfg,
                               const Executor& exec, TraceRecorder& rec,
                               LayerCounters& out) {
  const double t0 = rec.now_us();
  PipelineContext ctx{inst.graph, cfg, exec, {}, {}, {}, {}, {}, nullptr};
  const auto stages = make_framework_pipeline();
  for (std::size_t s = 0; s < stages.size() && s < kNumStages; ++s) {
    const double start = rec.now_us();
    stages[s]->run(ctx);
    record_span(rec, kStages[s], start, "");
    out.stage_ms[s] = (rec.now_us() - start) / 1000.0;
    if (s == 0) {
      out.lc_ops = static_cast<double>(ctx.result.partition.lc_sequence.size());
      out.parts = static_cast<double>(ctx.plan.parts.size());
      out.stems = static_cast<double>(ctx.result.stem_count);
    } else if (s == 1) {
      out.dfs_nodes = static_cast<double>(ctx.result.subgraph_nodes);
      std::lock_guard<std::mutex> lock(ctx.part_cache.mu);
      out.part_entries = static_cast<double>(ctx.part_cache.map.size());
    } else if (s == 2) {
      out.ladder_fallbacks = ctx.result.dangler_fallback ? 1.0 : 0.0;
      std::tie(out.emitter_busy, out.emitter_capacity) =
          emitter_occupancy(ctx.result.schedule);
    }
  }
  record_span(rec, "compile", t0, "\"instance\":\"" + inst.name + "\"");
  out.wall_ms = (rec.now_us() - t0) / 1000.0;
  return std::move(ctx.result);
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i ? "," : "") + json_number(v[i]);
  return s + "]";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// CPU time, user plus system, of this process's threads so far.
double self_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

int run_compile(const Args& args) {
  const std::string workload = args.str("workload");
  const std::uint64_t seed = args.u64("seed");
  const double seconds = args.num("seconds");
  const bool traced = args.has("trace");
  const WorkloadShape shape = workload_shape(workload);
  const Executor two_lanes(1);  // one pool worker + the calling thread

  // Set-up: instance generation plus one untimed warm-up compile, repeated
  // so the reported set-up time is a median.
  std::vector<Instance> instances;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    instances = make_instances(shape, seed);
    const Graph warm =
        family_graph(shape.families[0], shape.warmup_n, mix(seed, rep));
    compile_framework(warm, workload_config(workload, warm.vertex_count()),
                      two_lanes);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }

  const std::size_t count = instances.size();
  std::vector<FrameworkConfig> configs;
  for (const Instance& inst : instances)
    configs.push_back(workload_config(workload, inst.graph.vertex_count()));
  std::vector<std::vector<double>> samples(count);
  std::vector<Quality> quality(count);
  std::vector<Circuit> circuits(count, Circuit(0, 0));
  std::size_t attempted = 0, failed = 0;

  // Accepts one compile: verified, and every repeat compiles to the same
  // metrics as the first (a deterministic program must).
  auto accept = [&](std::size_t i, const FrameworkResult& r, bool first) {
    ++attempted;
    if (!r.verified) {
      ++failed;
    } else if (first) {
      quality[i] = quality_of(r);
      circuits[i] = r.schedule.circuit;
    } else if (!(quality_of(r) == quality[i])) {
      ++failed;
    }
  };
  auto guarded = [&](auto&& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      ++attempted;
      ++failed;
      std::cerr << "perfbench: compile failed: " << e.what() << '\n';
    }
  };

  std::ostringstream out;
  out.precision(17);
  const auto start = Clock::now();
  const double cpu0 = self_cpu_ms();
  if (!traced) {
    // Closed loop over the instance set, in whole sweeps so every instance
    // weighs the same: as many as come nearest to the measuring time, at
    // least one.
    for (std::size_t k = 0;; ++k) {
      const std::size_t i = k % count;
      guarded([&] {
        const auto t0 = Clock::now();
        const FrameworkResult r =
            compile_framework(instances[i].graph, configs[i], two_lanes);
        samples[i].push_back(ms_since(t0));
        accept(i, r, k < count);
      });
      if ((k + 1) % count != 0) continue;
      const double elapsed = ms_since(start);
      const double sweep = elapsed / static_cast<double>((k + 1) / count);
      if (elapsed + sweep / 2 >= seconds * 1000.0) break;
    }
  } else {
    // Each sweep compiles every instance untraced and traced, both at 2
    // lanes; the traced compiles carry the layer counters. Which of the
    // two goes first alternates from compile to compile, since a second
    // compile of a graph runs on a warmer heap. The tracing overhead is
    // traced wall over untraced wall.
    TraceRecorder rec;
    LayerCounters two, one;
    std::vector<double> untraced_ms, traced_ms, stages_ms;
    std::size_t sweeps = 0;
    while (sweeps == 0 ||
           ms_since(start) * (1.0 + 0.5 / static_cast<double>(sweeps)) <
               seconds * 1000.0) {
      for (std::size_t i = 0; i < count; ++i)
        guarded([&] {
          const bool traced_first = (i + sweeps) % 2 == 1;
          for (int pass = 0; pass < 2; ++pass) {
            const bool first = sweeps == 0 && pass == 0;
            if ((pass == 0) == traced_first) {
              LayerCounters c;
              const FrameworkResult t =
                  traced_compile(instances[i], configs[i], two_lanes, rec, c);
              traced_ms.push_back(c.wall_ms);
              stages_ms.push_back(
                  std::accumulate(c.stage_ms, c.stage_ms + kNumStages, 0.0));
              two.add(c);
              accept(i, t, first);
            } else {
              const auto t0 = Clock::now();
              const FrameworkResult r =
                  compile_framework(instances[i].graph, configs[i], two_lanes);
              untraced_ms.push_back(ms_since(t0));
              accept(i, r, first);
            }
          }
        });
      ++sweeps;
    }
    // One 1-lane sweep for parallel efficiency; its metrics must equal the
    // 2-lane ones.
    for (std::size_t i = 0; i < count; ++i)
      guarded([&] {
        LayerCounters c;
        const FrameworkResult r = traced_compile(
            instances[i], configs[i], Executor::serial(), rec, c);
        one.add(c);
        accept(i, r, false);
      });
    if (args.has("trace-out")) {
      std::ofstream f(args.str("trace-out"));
      rec.write_chrome_trace(f);
    }
    const double per = 1.0 / static_cast<double>(sweeps);
    out << "\"sweeps\":" << sweeps << ",\"layers\":{";
    for (std::size_t s = 0; s < kNumStages; ++s)
      out << "\"" << kStages[s] << "_ms\":" << json_number(two.stage_ms[s] * per)
          << ",\"" << kStages[s] << "_ms_1lane\":"
          << json_number(one.stage_ms[s]) << ",";
    out << "\"lc_ops\":" << json_number(two.lc_ops * per)
        << ",\"parts\":" << json_number(two.parts * per)
        << ",\"stems\":" << json_number(two.stems * per)
        << ",\"dfs_nodes\":" << json_number(two.dfs_nodes * per)
        << ",\"part_entries\":" << json_number(two.part_entries * per)
        << ",\"ladder_fallbacks\":" << json_number(two.ladder_fallbacks * per)
        << ",\"emitter_busy\":" << json_number(two.emitter_busy)
        << ",\"emitter_capacity\":" << json_number(two.emitter_capacity)
        << ",\"untraced_ms\":" << json_array(untraced_ms)
        << ",\"traced_ms\":" << json_array(traced_ms)
        << ",\"stages_ms\":" << json_array(stages_ms) << "},";
  }
  const double measured_s = ms_since(start) / 1000.0;
  const double cpu_ms = self_cpu_ms() - cpu0;

  // Independent correctness check, outside the timed region: replay every
  // circuit under seeds the compiler's own verify stage never draws.
  const auto replay0 = Clock::now();
  std::size_t replay_failed = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (circuits[i].num_photons() == 0) continue;  // compile already failed
    const VerifyReport rep = verify_generates(circuits[i], instances[i].graph,
                                              2, mix(seed, 0xC4EC + i));
    if (!rep.ok) {
      ++replay_failed;
      std::cerr << "perfbench: replay failed on " << instances[i].name << ": "
                << rep.message << '\n';
    }
  }
  const double replay_ms = ms_since(replay0);

  out << "\"workload\":\"" << workload << "\",\"measured_s\":"
      << json_number(measured_s) << ",\"cpu_ms\":" << json_number(cpu_ms)
      << ",\"setup_s\":" << json_array(setup_s)
      << ",\"peak_rss_mb\":" << json_number(peak_rss_mb())
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"replay_failed\":" << replay_failed
      << ",\"replay_ms\":" << json_number(replay_ms) << ",\"instances\":[";
  for (std::size_t i = 0; i < count; ++i)
    out << (i ? "," : "") << "{\"name\":\"" << instances[i].name
        << "\",\"n\":" << instances[i].graph.vertex_count()
        << ",\"m\":" << instances[i].graph.edge_count()
        << ",\"ee_cnot\":" << quality[i].ee_cnot
        << ",\"duration_tau\":" << json_number(quality[i].duration_tau)
        << ",\"t_loss_tau\":" << json_number(quality[i].t_loss_tau)
        << ",\"ms\":" << json_array(samples[i]) << "}";
  out << "]";
  std::cout << "{" << out.str() << "}" << std::endl;
  return failed + replay_failed == 0 ? 0 : 1;
}

// ---- serve-zipf inputs -----------------------------------------------------

/// Toggle one edge: add a random non-edge, or drop a random edge whose
/// removal keeps the graph connected.
Graph one_edge_edit(const Graph& g, Rng& rng) {
  const std::size_t n = g.vertex_count();
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto u = static_cast<Vertex>(rng.below(n));
    const auto v = static_cast<Vertex>(rng.below(n));
    if (u == v) continue;
    Graph e = g;
    if (!g.has_edge(u, v)) {
      e.add_edge(u, v);
      return e;
    }
    e.remove_edge(u, v);
    std::vector<bool> seen(n, false);
    std::vector<Vertex> stack{0};
    seen[0] = true;
    std::size_t reached = 1;
    while (!stack.empty()) {
      const Vertex x = stack.back();
      stack.pop_back();
      for (Vertex y : e.neighbors(x))
        if (!seen[y]) {
          seen[y] = true;
          ++reached;
          stack.push_back(y);
        }
    }
    if (reached == n) return e;
  }
  throw std::runtime_error("no one-edge edit found");
}

// Cold graphs of serve-zipf, one class per entry: paper families whose
// cold compile through the cluster spans about 30 ms (n = 11 lattice, a
// linear cluster) to 2 s (4x6 lattice) on a 4-core x86 VM. A lattice of n
// vertices is the most square rows x cols = n. Lattices and trees only:
// their compile time hardly moves with the seed, where a Waxman graph's
// swings threefold already at n = 12.
struct ColdClass {
  const char* family;
  std::size_t n;
};
constexpr ColdClass kColdLadder[] = {
    {"lattice", 24}, {"lattice", 11}, {"tree", 12},    {"lattice", 8},
    {"tree", 16},    {"lattice", 10}, {"lattice", 9},  {"tree", 20},
    {"lattice", 12}, {"tree", 24},    {"lattice", 16}, {"lattice", 20}};
constexpr std::size_t kColdClasses = std::size(kColdLadder);

int run_gen_serve(const Args& args) {
  const std::uint64_t seed = args.u64("seed");
  const std::size_t rounds = args.u64("probe-rounds");
  const std::string dir = args.str("out");
  const std::size_t hot = 32, per_class = 16, edits = 64, edited = 8;
  const char* families[] = {"lattice", "tree", "waxman"};
  // No graph appears twice across the pools, so every fresh, edit and
  // probe request is a real cold compile.
  std::unordered_set<std::string> written;
  std::uint64_t salt = 0;
  auto unique = [&](auto&& draw) {
    for (;;) {
      std::string g6 = write_graph6(draw(mix(seed, salt++)));
      if (written.insert(g6).second) return g6;
    }
  };
  // Hot set: line r is Zipf rank r, sizes growing with rank from n = 9 to
  // 22, families cycling, so every seed draws the same mix of shapes and
  // sizes.
  std::vector<Graph> hot_set;
  {
    std::ofstream f(dir + "/hot.g6");
    for (std::size_t i = 0; i < hot; ++i) {
      const std::size_t n = 9 + 13 * i / (hot - 1);
      Graph g;
      f << unique([&](std::uint64_t s) {
        return g = family_graph(families[i % 3], n, s);
      }) << '\n';
      hot_set.push_back(std::move(g));
    }
  }
  // probe.g6: `rounds` rounds of one graph of each cold class, in ladder
  // order. fresh.g6: per_class graphs of each class. In both, line j is of
  // class j mod kColdClasses.
  {
    std::ofstream probe(dir + "/probe.g6"), fresh(dir + "/fresh.g6");
    for (std::size_t j = 0; j < (per_class + rounds) * kColdClasses; ++j) {
      const ColdClass& c = kColdLadder[j % kColdClasses];
      (j < rounds * kColdClasses ? probe : fresh)
          << unique([&](std::uint64_t s) {
               return family_graph(c.family, c.n, s);
             })
          << '\n';
    }
  }
  // One-edge edits of the `edited` most popular hot graphs, in turn.
  {
    std::ofstream f(dir + "/edit.g6");
    Rng rng(mix(seed, 9000));
    for (std::size_t i = 0; i < edits; ++i)
      f << unique([&](std::uint64_t) {
        return one_edge_edit(hot_set[i % edited], rng);
      }) << '\n';
  }
  return 0;
}

// ---- serve-zipf load generator -------------------------------------------

struct Request {
  std::size_t step = 0;
  double due_ms = 0.0;  ///< offset from the step's start; < 0: closed loop
  std::string kind;
  std::string line;
  Clock::time_point start;  ///< when the request's step started
  Clock::time_point due, sent, recv;
  bool answered = false;
  std::string response;
};

int run_loadgen(const Args& args) {
  const auto port = static_cast<std::uint16_t>(args.u64("port"));
  const std::size_t conns = std::max<std::uint64_t>(args.u64("connections"), 1);
  const double drain_ms = 60000;  // per step; a stuck step fails the run
  std::vector<Request> reqs;
  {
    std::ifstream f(args.str("schedule"));
    std::string line;
    while (std::getline(f, line)) {
      if (line.empty()) continue;
      std::istringstream is(line);
      Request r;
      is >> r.step >> r.due_ms >> r.kind;
      std::getline(is >> std::ws, r.line);
      reqs.push_back(std::move(r));
    }
  }
  // The request id is its index in the schedule.
  std::vector<LineConn> links;
  for (std::size_t c = 0; c < conns; ++c) {
    std::string err;
    const int fd = connect_tcp("127.0.0.1", port, err);
    if (fd < 0) throw std::runtime_error(err);
    links.emplace_back(fd);
  }
  // A connection's reader publishes each response under the connection's
  // mutex, for closed-loop writers.
  std::vector<std::mutex> mus(conns);
  std::vector<std::condition_variable> cvs(conns);
  std::atomic<std::size_t> answered{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < conns; ++c)
    readers.emplace_back([&, c] {
      std::string line;
      while (!stop.load()) {
        if (!links[c].read_line(line, 200)) {
          if (!links[c].valid()) break;
          continue;
        }
        const auto now = Clock::now();
        const std::size_t id = static_cast<std::size_t>(
            JsonValue::parse(line).get_u64("id", reqs.size()));
        {
          std::lock_guard<std::mutex> lock(mus[c]);
          if (id >= reqs.size() || reqs[id].answered) continue;
          reqs[id].recv = now;
          reqs[id].response = std::move(line);
          reqs[id].answered = true;
        }
        cvs[c].notify_one();
        answered.fetch_add(1);
      }
    });

  // Steps run back to back; a step starts once the previous one has fully
  // drained (or timed out), so each step's backlog is its own.
  std::size_t next = 0, sent_total = 0;
  bool drained = true;
  while (next < reqs.size()) {
    const std::size_t step = reqs[next].step;
    const auto step_start = Clock::now();
    std::size_t end = next;
    while (end < reqs.size() && reqs[end].step == step) ++end;
    if (reqs[next].due_ms < 0) {
      std::vector<std::thread> writers;
      for (std::size_t c = 0; c < conns; ++c)
        writers.emplace_back([&, c] {
          for (std::size_t i = next + c; i < end; i += conns) {
            Request& r = reqs[i];
            r.due = r.sent = Clock::now();
            links[c].write_line(r.line);
            std::unique_lock<std::mutex> lock(mus[c]);
            if (!cvs[c].wait_for(lock, std::chrono::milliseconds(
                                           static_cast<std::int64_t>(drain_ms)),
                                 [&] { return r.answered; }))
              return;
          }
        });
      for (std::thread& t : writers) t.join();
      sent_total += end - next;
    } else {
      for (std::size_t i = next; i < end; ++i) {
        Request& r = reqs[i];
        r.due = step_start + std::chrono::microseconds(
                                 static_cast<std::int64_t>(r.due_ms * 1000.0));
        std::this_thread::sleep_until(r.due);
        r.sent = Clock::now();
        links[i % conns].write_line(r.line);
        ++sent_total;
      }
    }
    for (std::size_t i = next; i < end; ++i) reqs[i].start = step_start;
    const auto deadline = Clock::now() + std::chrono::milliseconds(
                                             static_cast<std::int64_t>(drain_ms));
    while (answered.load() < sent_total && Clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (answered.load() < sent_total) {
      drained = false;
      break;
    }
    next = end;
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  // Correctness, outside the timed region: every response ok, every graph
  // compiled to one set of metrics whichever tier served it, and every
  // returned circuit replays to its graph state.
  const auto check0 = Clock::now();
  std::size_t failed = 0, replay_failed = 0, replayed = 0;
  std::unordered_map<std::string, std::string> metrics_of;  // g6 -> metrics
  double ee_total = 0, duration_total = 0, loss_total = 0;
  std::ostringstream rows;
  rows.precision(17);
  auto check_result = [&](const JsonValue& res, const std::string& g6) {
    if (!res.get_bool("ok", false) || !res.get_bool("verified", false))
      return false;
    const std::string key =
        std::to_string(res.get_u64("ee_cnot_count", 0)) + "/" +
        json_number(res.get_number("duration_tau", 0)) + "/" +
        json_number(res.get_number("t_loss_tau", 0));
    const auto [it, fresh] = metrics_of.emplace(g6, key);
    if (fresh) {
      ee_total += static_cast<double>(res.get_u64("ee_cnot_count", 0));
      duration_total += res.get_number("duration_tau", 0);
      loss_total += res.get_number("t_loss_tau", 0);
    }
    return it->second == key;
  };
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    Request& r = reqs[i];
    bool ok = r.answered;
    std::string tier = "none";
    double compute_ms = -1.0;  // present outside --deterministic only
    if (ok) {
      try {
        const JsonValue req = JsonValue::parse(r.line);
        const JsonValue res = JsonValue::parse(r.response);
        compute_ms = res.get_number("compute_ms", -1.0);
        if (!res.get_bool("ok", false)) {
          ok = false;
          tier = res.get_string("code", "error");
        } else if (req.get_string("op", "") == "batch") {
          const auto& jobs = req.find("jobs")->items();
          const auto& results = res.find("results")->items();
          ok = jobs.size() == results.size();
          for (std::size_t j = 0; ok && j < jobs.size(); ++j)
            ok = check_result(results[j], jobs[j].get_string("graph", ""));
          tier = "batch";
        } else {
          const std::string g6 = req.get_string("graph", "");
          ok = check_result(res, g6);
          tier = res.get_string("tier", "?");
          if (ok && res.find("circuit") != nullptr) {
            ++replayed;
            const VerifyReport rep = verify_generates(
                parse_circuit(res.get_string("circuit", "")), read_graph6(g6),
                2, 0xC4EC0000ULL + i);
            if (!rep.ok) {
              ++replay_failed;
              ok = false;
            }
          }
        }
      } catch (const std::exception& e) {
        ok = false;
        std::cerr << "perfbench: bad response to request " << i << ": "
                  << e.what() << '\n';
      }
    }
    if (!ok) ++failed;
    const auto rel = [&](Clock::time_point t, Clock::time_point from) {
      return std::chrono::duration<double, std::milli>(t - from).count();
    };
    rows << (i ? "," : "") << "[" << r.step << ",\"" << r.kind << "\",\""
         << tier << "\"," << (ok ? 1 : 0) << ","
         << json_number(r.answered ? rel(r.recv, r.due) : -1.0) << ","
         << json_number(r.sent.time_since_epoch().count() ? rel(r.sent, r.due)
                                                          : -1.0)
         << "," << json_number(compute_ms) << ","
         << json_number(rel(r.due, r.start)) << "]";
  }
  std::cout << "{\"drained\":" << (drained ? "true" : "false")
            << ",\"failed\":" << failed << ",\"replayed\":" << replayed
            << ",\"replay_failed\":" << replay_failed
            << ",\"replay_ms\":" << json_number(ms_since(check0))
            << ",\"ee_cnot_total\":" << json_number(ee_total)
            << ",\"duration_tau_total\":" << json_number(duration_total)
            << ",\"t_loss_tau_total\":" << json_number(loss_total)
            << ",\"graphs\":" << metrics_of.size()

            << ",\"requests\":[" << rows.str() << "]}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::runtime_error("usage: perfbench compile|gen-serve|loadgen ...");
    const std::string mode = argv[1];
    const Args args = parse_args(argc, argv, 2);
    if (mode == "compile") return run_compile(args);
    if (mode == "gen-serve") return run_gen_serve(args);
    if (mode == "loadgen") return run_loadgen(args);
    throw std::runtime_error("unknown mode " + mode);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
