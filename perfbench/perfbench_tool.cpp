// In-process half of the performa benchmark (perfbench/run.py drives it).
//
// Every subcommand reads the inputs run.py generated from its seed and
// writes one flat JSON object per line to stdout. With --spans FILE it
// also keeps a span around each public call it makes into a layer and
// writes them at exit as Chrome trace_event records (name, ts, dur,
// parent and request id in args), ready to be merged with run.py's own.
//
//   perfbench_tool engine WARMUP REQUESTS [--threads N] [--spans FILE]
//       Warm an in-process QueryEngine with the WARMUP lines, then print
//       its answer to every REQUESTS line: the reference the daemon's
//       warm answers must match bit for bit. With --spans, also time
//       parse / key / handle_line per line and the derived QbdSolution
//       metrics and qos per cached model size.
//   perfbench_tool cold POINTS [--setup-only] [--spans FILE]
//       Solve the points flagged "warmup", print "ready", then solve the
//       other points in order, one chunk (the points sharing a "chunk"
//       number) per stdin line, printing latency, E[Q], P(empty),
//       tail(500) and the trust verdict per point; end of input stops
//       early. Then recompute E[Q] at pool width 1 for the points run
//       that are flagged "w1". With --spans, also time model build,
//       block build, spectral radius and verification, and keep the
//       program's own solve_r spans of each point's solution.
//   perfbench_tool kernels N1,N2,... REPS [--spans FILE]
//       Time gemm and LU at the default pool width and at width 1.
//   perfbench_tool info
//       Pool width, daemon workers, kernel backend and compiler, for the
//       provenance.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/cluster_model.h"
#include "core/qos.h"
#include "daemon/jsonio.h"
#include "daemon/query.h"
#include "daemon/server.h"
#include "linalg/kernels.h"
#include "linalg/lu.h"
#include "linalg/pool.h"
#include "map/repair_facility.h"
#include "medist/tpt.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qbd/level_dependent.h"
#include "qbd/rsolver.h"
#include "qbd/solution.h"

using namespace performa;
using daemon::JsonObject;
using daemon::JsonWriter;

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- spans

struct SpanRecord {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string rid;
  double value = NAN;  ///< optional measured quantity (e.g. iterations)
};

/// In-memory span recorder; disabled unless --spans was given, so the
/// untraced runs pay one branch per call.
class Recorder {
 public:
  bool enabled = false;
  std::vector<SpanRecord> spans;
  std::vector<std::uint64_t> stack;
  std::uint64_t next_id = 1;

  void write(const std::string& path) const {
    std::ofstream out(path);
    const int pid = static_cast<int>(getpid());
    for (const SpanRecord& s : spans) {
      JsonWriter w;
      w.field("name", s.name);
      w.field("cat", "perfbench");
      w.field("ph", "X");
      w.field("ts", s.ts_us);
      w.field("dur", s.dur_us);
      w.field("pid", static_cast<std::uint64_t>(pid));
      w.field("tid", std::uint64_t{1});
      w.field("id", s.id);
      w.field("parent", s.parent);
      w.field("rid", s.rid);
      if (!std::isnan(s.value)) w.field("value", s.value);
      out << std::move(w).str() << "\n";
    }
  }
};

Recorder g_rec;

/// RAII span around one call into a layer.
class Span {
 public:
  Span(std::string name, std::string rid = "") {
    if (!g_rec.enabled) return;
    rec_.emplace();
    rec_->name = std::move(name);
    rec_->rid = std::move(rid);
    rec_->id = g_rec.next_id++;
    rec_->parent = g_rec.stack.empty() ? 0 : g_rec.stack.back();
    g_rec.stack.push_back(rec_->id);
    rec_->ts_us = now_us();
  }
  ~Span() {
    if (!rec_) return;
    rec_->dur_us = now_us() - rec_->ts_us;
    g_rec.stack.pop_back();
    g_rec.spans.push_back(std::move(*rec_));
  }
  void value(double v) {
    if (rec_) rec_->value = v;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::optional<SpanRecord> rec_;
};

// ---------------------------------------------------------------- io

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

JsonObject parse_or_die(const std::string& line) {
  JsonObject obj;
  std::string error;
  if (!daemon::parse_json_object(line, obj, error)) {
    throw std::runtime_error("bad input line: " + error);
  }
  return obj;
}

void emit(std::string line) {
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), stdout);
}

// Options after the positional arguments.
struct Flags {
  std::string spans;
  unsigned threads = 0;
  bool setup_only = false;
};

Flags parse_flags(int argc, char** argv, int first) {
  Flags f;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--spans" && i + 1 < argc) {
      f.spans = argv[++i];
    } else if (a == "--threads" && i + 1 < argc) {
      f.threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (a == "--setup-only") {
      f.setup_only = true;
    } else {
      throw std::runtime_error("unknown flag " + a);
    }
  }
  return f;
}

// ---------------------------------------------------------------- engine

/// `"op.mM"`-style label of a request, used in span names.
std::string request_label(const JsonObject& req, std::size_t m) {
  std::string op = req.string("op", "?");
  if (op == "tail") {
    op = req.number("k", 0.0) > 64.0 ? "tail_klarge" : "tail_ksmall";
  }
  return op + ".m" + std::to_string(m);
}

/// Times `fn` `reps` times, one span each.
template <typename F>
void timed(const std::string& name, const std::string& rid, int reps, F&& fn) {
  for (int r = 0; r < reps; ++r) {
    Span s(name, rid);
    fn();
  }
}

int cmd_engine(const std::string& warmup_path, const std::string& req_path,
               const Flags& flags) {
  if (flags.threads != 0) linalg::set_pool_threads(flags.threads);
  daemon::QueryEngine engine{daemon::EngineConfig{}};
  for (const std::string& line : read_lines(warmup_path)) {
    const std::string answer = engine.handle_line(line);
    if (answer.find("\"ok\":true") == std::string::npos) {
      std::fprintf(stderr, "warm-up failed: %s -> %s\n", line.c_str(),
                   answer.c_str());
      return 1;
    }
  }
  const std::vector<std::string> requests = read_lines(req_path);
  for (const std::string& line : requests) emit(engine.handle_line(line));
  if (!g_rec.enabled) return 0;

  // Traced layer pass over the same lines (run.py sends each line once).
  // Each line gets a request id; its codec, key and handle calls are
  // timed separately.
  const int reps = 5;
  // Untraced and traced passes alternate; the fastest of each is kept,
  // so that a burst of host noise in one pass does not read as overhead.
  double untraced_us = INFINITY;
  double traced_us = INFINITY;
  for (int r = 0; r < 3; ++r) {
    const double t_untraced0 = now_us();
    for (const std::string& line : requests) (void)engine.handle_line(line);
    untraced_us = std::min(untraced_us, now_us() - t_untraced0);
    obs::enable_trace_memory();  // the program's own spans join in
    const double t_traced0 = now_us();
    {
      Span pass("obs.traced_handle_pass");
      for (const std::string& line : requests) {
        Span s("daemon.handle_traced");
        (void)engine.handle_line(line);
      }
    }
    traced_us = std::min(traced_us, now_us() - t_traced0);
    (void)obs::drain_memory_trace();
    obs::disable_trace();
  }
  {
    JsonWriter w;
    w.field("overhead_untraced_us", untraced_us);
    w.field("overhead_traced_us", traced_us);
    emit(std::move(w).str());
  }

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::string& line = requests[i];
    const std::string rid = "line-" + std::to_string(i);
    const JsonObject req = parse_or_die(line);
    daemon::ModelSpec spec;
    std::string err;
    if (!daemon::parse_model(req, spec, err)) continue;
    const std::string key = daemon::canonical_model_key(spec);
    daemon::CachedSolution entry;
    std::size_t m = 0;
    if (engine.cache().get(key, entry, /*count_stats=*/false)) {
      m = entry.solution->phase_dim();
    } else {
      m = map::lumped_state_count(
          spec.repair == "tpt" ? spec.tpt_phases + 1 : 2, spec.n_servers);
    }
    Span req_span("daemon.request." + request_label(req, m), rid);
    timed("daemon.parse", rid, reps, [&] {
      JsonObject o;
      std::string e;
      daemon::parse_json_object(line, o, e);
    });
    timed("daemon.key", rid, reps, [&] {
      daemon::ModelSpec s;
      std::string e;
      daemon::parse_model(req, s, e);
      (void)daemon::canonical_model_key(s);
    });
    timed("daemon.handle." + request_label(req, m), rid, reps,
          [&] { (void)engine.handle_line(line); });
  }

  // Derived metrics straight on the cached solutions, once per model size.
  std::vector<std::size_t> done_m;
  for (const auto& [key, entry] : engine.cache().snapshot()) {
    const qbd::QbdSolution& sol = *entry.solution;
    const std::size_t m = sol.phase_dim();
    if (std::find(done_m.begin(), done_m.end(), m) != done_m.end()) continue;
    done_m.push_back(m);
    const std::string sm = ".m" + std::to_string(m);
    const std::string rid = "solution" + sm;
    volatile double sink = 0.0;
    timed("qbd.decay_rate" + sm, rid, 3, [&] { sink = sol.decay_rate(); });
    timed("qbd.variance" + sm, rid, 3, [&] { sink = sol.variance(); });
    timed("qbd.mean" + sm, rid, 3, [&] { sink = sol.mean_queue_length(); });
    timed("qbd.tail.k25" + sm, rid, 3, [&] { sink = sol.tail(25); });
    timed("qbd.tail.k500" + sm, rid, 3, [&] { sink = sol.tail(500); });
    timed("qbd.pmf" + sm, rid, 3, [&] { sink = sol.pmf(10); });
    timed("core.qos" + sm, rid, 3, [&] {
      sink = core::delay_violation_probability(sol, 5.0, entry.nu_bar);
    });
    (void)sink;
  }
  return 0;
}

// ---------------------------------------------------------------- cold

/// Peak resident set of this process in kB (VmHWM), 0 if unreadable.
std::uint64_t vm_hwm_kb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

core::ClusterParams cluster_params(const JsonObject& p) {
  core::ClusterParams params;
  params.n_servers = static_cast<unsigned>(p.number("n", 2));
  params.nu_p = 2.0;
  params.delta = 0.2;
  params.up = medist::exponential_from_mean(90.0);
  if (p.string("repair", "exp") == "tpt") {
    medist::TptSpec tpt;
    tpt.phases = static_cast<unsigned>(p.number("T", 10));
    tpt.alpha = 1.4;
    tpt.theta = 0.5;
    tpt.mean = 10.0;
    params.down = medist::make_tpt(tpt);
  } else {
    params.down = medist::exponential_from_mean(10.0);
  }
  return params;
}

struct PointResult {
  double mean = 0.0;
  double p_empty = 0.0;
  double tail500 = 0.0;
  std::size_t m = 0;
  std::string trust;
  unsigned healing = 0;
};

/// The metric set `perfctl sweep` computes per point.
template <typename Solution>
PointResult metric_set(const Solution& sol, std::size_t m) {
  const qbd::TrustReport& t = sol.trust();
  PointResult out;
  out.mean = sol.mean_queue_length();
  out.p_empty = sol.probability_empty();
  out.tail500 = sol.tail(500);
  out.m = m;
  out.trust = t.verified ? qbd::to_string(t.verdict) : "unverified";
  out.healing = t.refinements + t.resolves;
  return out;
}

/// R solves and fallback tiers of the timed points' own solutions.
std::uint64_t g_solves = 0;
std::uint64_t g_fallbacks = 0;

/// Scope of one solution's construction. Adds the solver counters'
/// deltas to g_solves / g_fallbacks, and when tracing turns the
/// program's own qbd.rsolver.solve spans (the program's trace sink is on
/// in traced cold runs) into qbd.solve_r.<cls> spans: the time and
/// iterations of the solves this solution really ran.
class SolveScope {
 public:
  SolveScope(std::string cls, std::string rid)
      : cls_(std::move(cls)), rid_(std::move(rid)) {
    if (g_rec.enabled) (void)obs::drain_memory_trace();  // not this point's
  }
  ~SolveScope() {
    g_solves += solves().value() - solves0_;
    g_fallbacks += fallbacks().value() - fallbacks0_;
    if (!g_rec.enabled) return;
    for (const obs::TraceEvent& ev : obs::drain_memory_trace()) {
      if (std::strcmp(ev.name, "qbd.rsolver.solve") != 0) continue;
      SpanRecord s;
      s.name = "qbd.solve_r." + cls_;
      s.ts_us = ev.ts_us;
      s.dur_us = ev.dur_us;
      s.id = g_rec.next_id++;
      s.parent = g_rec.stack.empty() ? 0 : g_rec.stack.back();
      s.rid = rid_;
      const std::size_t at = ev.args.find("\"iterations\":");
      if (at != std::string::npos) s.value = std::atof(&ev.args[at + 13]);
      g_rec.spans.push_back(std::move(s));
    }
  }
  SolveScope(const SolveScope&) = delete;
  SolveScope& operator=(const SolveScope&) = delete;

 private:
  static const obs::Counter& solves() {
    return obs::counter("qbd.rsolver.solves");
  }
  static const obs::Counter& fallbacks() {
    return obs::counter("qbd.rsolver.fallbacks");
  }
  std::string cls_, rid_;
  std::uint64_t solves0_ = solves().value();
  std::uint64_t fallbacks0_ = fallbacks().value();
};

/// Traced-only extra call: the spectral radius of a released R.
void trace_spectral_radius(const linalg::Matrix& r, const std::string& cls,
                           const std::string& rid) {
  Span s("qbd.spectral_radius." + cls, rid);
  (void)qbd::spectral_radius(r);
}

/// One analyst point: model build, certified solve, the sweep metric set.
/// The spans below sit around each public call; the extra spectral-radius
/// and verify calls run only when tracing.
PointResult solve_point(const JsonObject& p, const std::string& rid) {
  const std::string cls = p.string("cls", "?");
  const std::string kind = p.string("kind", "homog");
  const double rho = p.number("rho", 0.7);

  if (kind == "facility") {
    const core::ClusterParams cp = cluster_params(p);
    std::optional<map::RepairFacility> fac;
    {
      Span s("map.facility_build", rid);
      fac.emplace(cp.up, cp.down, cp.nu_p, cp.delta, cp.n_servers,
                  static_cast<unsigned>(p.number("c", 1)),
                  static_cast<unsigned>(p.number("s", 0)));
    }
    const double lambda = rho * fac->mmpp().mean_rate();
    std::optional<qbd::LevelDependentBlocks> blocks;
    {
      Span s("qbd.blocks_build", rid);
      blocks.emplace(qbd::repair_facility_level_dependent_blocks(*fac, lambda));
    }
    std::optional<qbd::LevelDependentSolution> sol;
    {
      Span s("qbd.ld_solution.facility", rid);
      SolveScope scope(cls, rid);
      sol.emplace(*blocks);
    }
    if (g_rec.enabled) trace_spectral_radius(sol->r(), cls, rid);
    return metric_set(*sol, blocks->phase_dim());
  }

  std::optional<core::ClusterModel> model;
  {
    Span s("core.model_build." + cls, rid);
    model.emplace(cluster_params(p));
  }
  const double lambda = model->lambda_for_rho(rho);
  if (kind == "ld-boundary") {
    std::optional<qbd::LevelDependentBlocks> blocks;
    {
      Span s("qbd.blocks_build", rid);
      blocks.emplace(qbd::cluster_level_dependent_blocks(
          model->aggregate(), model->params().nu_p, model->params().delta,
          lambda));
    }
    std::optional<qbd::LevelDependentSolution> sol;
    {
      Span s("qbd.ld_solution.boundary", rid);
      SolveScope scope(cls, rid);
      sol.emplace(*blocks);
    }
    if (g_rec.enabled) trace_spectral_radius(sol->r(), cls, rid);
    return metric_set(*sol, blocks->phase_dim());
  }

  std::optional<qbd::QbdBlocks> blocks;
  {
    Span s("qbd.blocks_build", rid);
    blocks.emplace(qbd::m_mmpp_1(model->aggregate().mmpp(), lambda));
  }
  std::optional<qbd::QbdSolution> sol;
  {
    Span s("qbd.solution." + cls, rid);
    SolveScope scope(cls, rid);
    sol.emplace(*blocks);
  }
  if (g_rec.enabled) {
    trace_spectral_radius(sol->r(), cls, rid);
    qbd::QbdSolution copy = *sol;
    Span s("qbd.verify." + cls, rid);
    (void)copy.verify(*blocks);
  }
  return metric_set(*sol, sol->phase_dim());
}

void emit_point(std::size_t index, const JsonObject& p, double lat_s,
                const PointResult* r, const std::string& error) {
  JsonWriter w;
  w.field("i", static_cast<std::uint64_t>(index));
  w.field("cls", p.string("cls", "?"));
  w.field("lat_s", lat_s);
  w.field("ok", r != nullptr);
  if (r != nullptr) {
    w.field("m", static_cast<std::uint64_t>(r->m));
    w.field("mean", r->mean);
    w.field("p_empty", r->p_empty);
    w.field("tail500", r->tail500);
    w.field("trust", r->trust);
    w.field("healing", static_cast<std::uint64_t>(r->healing));
  } else {
    w.field("error", error);
  }
  emit(std::move(w).str());
}

int cmd_cold(const std::string& points_path, const Flags& flags) {
  std::vector<JsonObject> points;
  for (const std::string& line : read_lines(points_path)) {
    points.push_back(parse_or_die(line));
  }
  // Warm-up points are solved untimed, so lazy pool start-up and
  // first-touch page faults land in set-up.
  for (const JsonObject& p : points) {
    if (p.boolean("warmup", false)) (void)solve_point(p, "warmup");
  }
  emit("{\"ready\":true}");
  std::fflush(stdout);
  if (flags.setup_only) return 0;
  g_rec.spans.clear();
  g_solves = g_fallbacks = 0;
  if (g_rec.enabled) obs::enable_trace_memory();

  // Each run of points sharing a "chunk" number starts on one stdin
  // line and ends with a chunk_done line, so the caller can time each
  // chunk and interleave it with other work; it closes stdin once it has
  // measured enough.
  std::vector<std::size_t> run;
  double chunk = -1.0;
  bool stopped = false;
  for (std::size_t i = 0; i < points.size() && !stopped; ++i) {
    if (points[i].boolean("warmup", false)) continue;
    if (points[i].number("chunk", 0.0) != chunk) {
      if (chunk >= 0.0) {
        emit("{\"chunk_done\":true}");
        std::fflush(stdout);
      }
      chunk = points[i].number("chunk", 0.0);
      std::string go;
      if (!std::getline(std::cin, go)) {
        stopped = true;
        continue;
      }
    }
    run.push_back(i);
    const std::string cls = points[i].string("cls", "?");
    const std::string rid = "point-" + std::to_string(i);
    const double t0 = now_us();
    try {
      Span s("point." + cls, rid);
      const PointResult r = solve_point(points[i], rid);
      emit_point(i, points[i], (now_us() - t0) / 1e6, &r, "");
    } catch (const std::exception& e) {
      emit_point(i, points[i], (now_us() - t0) / 1e6, nullptr, e.what());
    }
  }
  if (!stopped && chunk >= 0.0) emit("{\"chunk_done\":true}");
  if (g_rec.enabled) obs::disable_trace();
  {
    JsonWriter w;
    w.field("solves", g_solves);
    w.field("fallbacks", g_fallbacks);
    w.field("vm_hwm_kb", vm_hwm_kb());
    emit(std::move(w).str());
  }

  // Outside the timed region: E[Q] of the flagged sample at width 1.
  const bool was_tracing = g_rec.enabled;
  g_rec.enabled = false;
  linalg::set_pool_threads(1);
  for (std::size_t i : run) {
    if (!points[i].boolean("w1", false)) continue;
    JsonWriter w;
    w.field("i", static_cast<std::uint64_t>(i));
    try {
      w.field("w1_mean", solve_point(points[i], "").mean);
    } catch (const std::exception& e) {
      w.field("w1_error", e.what());
    }
    emit(std::move(w).str());
  }
  linalg::set_pool_threads(0);
  g_rec.enabled = was_tracing;
  return 0;
}

// ---------------------------------------------------------------- kernels

linalg::Matrix random_matrix(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  linalg::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = u(rng);
    a(i, i) += static_cast<double>(n);  // well conditioned for LU
  }
  return a;
}

int cmd_kernels(const std::string& sizes, int reps) {
  std::vector<std::size_t> ns;
  std::stringstream ss(sizes);
  for (std::string tok; std::getline(ss, tok, ',');) {
    ns.push_back(static_cast<std::size_t>(std::stoul(tok)));
  }
  const unsigned width_default = linalg::pool_threads();
  for (std::size_t n : ns) {
    const linalg::Matrix a = random_matrix(n, 1000 + n);
    const linalg::Matrix b = random_matrix(n, 2000 + n);
    for (unsigned width : {width_default, 1u}) {
      linalg::set_pool_threads(width);
      const std::string tag =
          ".n" + std::to_string(n) + (width == 1 ? ".w1" : ".wdefault");
      (void)(a * b);  // spawn workers outside the timed calls
      std::vector<double> gemm_us, lu_us;
      volatile double sink = 0.0;
      for (int r = 0; r < reps; ++r) {
        double t0 = now_us();
        {
          Span s("linalg.gemm" + tag);
          sink = (a * b)(0, 0);
        }
        gemm_us.push_back(now_us() - t0);
        t0 = now_us();
        {
          Span s("linalg.lu" + tag);
          sink = linalg::Lu(a).determinant();
        }
        lu_us.push_back(now_us() - t0);
      }
      (void)sink;
      std::sort(gemm_us.begin(), gemm_us.end());
      std::sort(lu_us.begin(), lu_us.end());
      JsonWriter w;
      w.field("n", static_cast<std::uint64_t>(n));
      w.field("width", static_cast<std::uint64_t>(width));
      w.field("gemm_us", gemm_us[gemm_us.size() / 2]);
      w.field("lu_us", lu_us[lu_us.size() / 2]);
      w.field("reps", static_cast<std::uint64_t>(reps));
      emit(std::move(w).str());
    }
  }
  linalg::set_pool_threads(0);
  return 0;
}

int cmd_info() {
  JsonWriter w;
  w.field("pool_threads", static_cast<std::uint64_t>(linalg::pool_threads()));
  w.field("daemon_workers",
          static_cast<std::uint64_t>(daemon::DaemonConfig{}.workers));
  w.field("kernel", linalg::to_string(linalg::kernel_backend()));
#if defined(__clang__)
  w.field("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  w.field("compiler", "gcc " __VERSION__);
#else
  w.field("compiler", "unknown");
#endif
#ifdef NDEBUG
  w.field("assertions", false);
#else
  w.field("assertions", true);
#endif
  emit(std::move(w).str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_tool engine WARMUP REQUESTS [flags]\n"
               "       perfbench_tool cold POINTS [flags]\n"
               "       perfbench_tool kernels N1,N2,... REPS [flags]\n"
               "       perfbench_tool info\n"
               "flags: --spans FILE  --threads N  --setup-only\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    int rc = 2;
    Flags flags;
    if (cmd == "engine" && argc >= 4) {
      flags = parse_flags(argc, argv, 4);
      g_rec.enabled = !flags.spans.empty();
      rc = cmd_engine(argv[2], argv[3], flags);
    } else if (cmd == "cold" && argc >= 3) {
      flags = parse_flags(argc, argv, 3);
      g_rec.enabled = !flags.spans.empty();
      rc = cmd_cold(argv[2], flags);
    } else if (cmd == "info") {
      rc = cmd_info();
    } else if (cmd == "kernels" && argc >= 4) {
      flags = parse_flags(argc, argv, 4);
      g_rec.enabled = !flags.spans.empty();
      rc = cmd_kernels(argv[2], std::atoi(argv[3]));
    } else {
      return usage();
    }
    std::fflush(stdout);
    if (g_rec.enabled) g_rec.write(flags.spans);
    linalg::pool_shutdown();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_tool: %s\n", e.what());
    return 1;
  }
}
