// ptbench — end-to-end and per-layer benchmark of the PT-IM propagator.
//
// One process runs one workload on the 8-atom Si cell (ecut 3 Ha, 8000 K,
// 20 bands, hybrid) through public entry points only: core::Simulation,
// td::PtImPropagator's staged protocol, ham::ExchangeOperator::apply_diag,
// core::EnsembleCampaign and io::load_checkpoint. It sets up once, then
// repeats the workload's fixed trajectory ("rep") until --seconds have
// passed (at least two reps, so the exact counts can be compared), checks
// every rep, and prints one JSON summary line on stdout. With --trace 1
// it alternates untraced and traced reps and also writes, into --out,
//   trace.json  — Chrome trace of the setup and the traced reps, with the
//                 run header and benchmark-level counters in "otherData";
//   steps.jsonl — obs::StepReport lines of the traced reps;
// which layers.py turns into the layer table.
//
//   ptbench --workload ace_serial --seed 1 --seconds 6 --trace 0
//           --out DIR --reference ptbench/reference.txt
//   ptbench --make-reference FILE   (regenerates the stored dipole series)

#include <omp.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "backend/buffer.hpp"
#include "common/timer.hpp"
#include "core/campaign.hpp"
#include "core/simulation.hpp"
#include "fft/simd.hpp"
#include "io/checkpoint.hpp"
#include "obs/obs.hpp"
#include "obs/step_report.hpp"
#include "obs/trace_export.hpp"
#include "pw/wavefunction.hpp"

#ifndef PTBENCH_BUILD_TYPE
#define PTBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace ptim;

namespace {

// --- workloads ---------------------------------------------------------------

constexpr int kAceSteps = 14;       // steps of the ACE laser trajectory ...
constexpr int kAceHorizon = 40;     // ... on a pulse placed over 40 steps
constexpr int kCampaignJobs = 6;    // kicked Diag trajectories per campaign
constexpr int kCampaignSteps = 3;   // steps per campaign job
constexpr int kMinReps = 2;         // exact counts are compared across reps
constexpr double kKickUnit = 1e-3;  // job j is kicked by (j+1) * kKickUnit

struct Workload {
  std::string name;
  int ranks = 1;    // ptmpi ranks per trajectory
  int pg = 1;       // grid columns of the band x grid layout
  int omp = 0;      // OpenMP team width per rank thread (0 = nproc)
  int workers = 1;  // concurrent campaign worker groups
};

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

bool find_workload(const std::string& name, Workload* w) {
  const std::vector<Workload> all = {
      {"ace_serial", 1, 1, 0, 1},     // one process, OpenMP team = nproc
      {"ace_2x2", 4, 2, 1, 1},        // 2x2 band x grid ranks, 1 thread each
      {"diag_campaign", 1, 1, 2, 2},  // 2 workers x 2 threads
  };
  for (const auto& x : all)
    if (x.name == name) {
      *w = x;
      if (w->omp == 0) w->omp = nproc();
      return true;
    }
  return false;
}

core::SystemSpec system_spec() {
  core::SystemSpec spec;
  spec.nx = spec.ny = spec.nz = 1;
  spec.ecut = 3.0;
  spec.temperature_k = 8000.0;
  spec.extra_states_per_atom = 0.5;  // 16 occupied + 4 = 20 bands
  return spec;
}

// Inputs made from the seed: a random gauge of the initial state (band
// permutation P and phases D: Phi -> Phi P D, sigma -> (PD)^H sigma PD,
// which leaves the density matrix Phi sigma Phi^H and so the physics and
// the work unchanged while every array holds different numbers), and the
// order in which the campaign jobs are submitted. The laser is the default
// one (x polarized); the campaign kicks are along x.
struct Inputs {
  uint64_t seed = 0;
  std::vector<int> job_order;
};

template <typename T>
void shuffle(std::vector<T>& v, std::mt19937_64& rng) {
  for (size_t i = v.size(); i > 1; --i)  // Fisher-Yates, portable
    std::swap(v[i - 1], v[rng() % i]);
}

Inputs make_inputs(uint64_t seed) {
  Inputs in;
  in.seed = seed;
  for (int j = 0; j < kCampaignJobs; ++j) in.job_order.push_back(j);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  shuffle(in.job_order, rng);
  return in;
}

td::TdState gauge(const td::TdState& s, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const size_t n = s.phi.cols();
  std::vector<size_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = i;
  shuffle(p, rng);
  std::vector<cplx> ph(n);
  for (auto& z : ph)
    z = std::polar(1.0,
                   2.0 * M_PI * static_cast<double>(rng() >> 11) * 0x1.0p-53);
  td::TdState g = s;
  for (size_t i = 0; i < n; ++i)
    for (size_t r = 0; r < s.phi.rows(); ++r)
      g.phi(r, i) = s.phi(r, p[i]) * ph[i];
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j)
      g.sigma(i, j) = std::conj(ph[i]) * s.sigma(p[i], p[j]) * ph[j];
  return g;
}

const grid::Vec3 kX{1.0, 0.0, 0.0};

core::RunConfig ace_config() {
  core::RunConfig cfg;
  cfg.variant = td::PtImVariant::kAce;
  cfg.steps = kAceSteps;
  cfg.t_horizon = kAceHorizon * cfg.dt;
  return cfg;
}

core::RunConfig campaign_config() {
  core::RunConfig cfg;
  cfg.variant = td::PtImVariant::kDiag;
  cfg.steps = kCampaignSteps;
  cfg.checkpoint_every = 1;
  return cfg;
}

// --- reference dipole series -------------------------------------------------

// Key -> x dipole after each step: "ace" and "kick/<j>".
using Reference = std::map<std::string, std::vector<double>>;

Reference load_reference(const std::string& path) {
  Reference ref;
  std::ifstream f(path);
  PTIM_CHECK_MSG(f.good(), "cannot read reference " << path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string key;
    is >> key;
    std::vector<double> v;
    double x = 0.0;
    while (is >> x) v.push_back(x);
    ref[key] = v;
  }
  return ref;
}

std::string kick_key(int job) { return "kick/" + std::to_string(job); }

// Tolerance of the dipole gate after k steps. Each step's fixed point stops
// at a relative {Phi, sigma} residual below cfg.tol; the dipole is bilinear
// in Phi, so one step can move it by at most ~2*tol relative, and k steps
// by 2*k*tol in the worst case (no damping assumed).
double dipole_tolerance(const core::RunConfig& cfg, int k, double scale) {
  return 2.0 * k * cfg.tol * scale;
}

// --- per-state health gate ---------------------------------------------------

struct Health {
  double orth = 0.0;       // max |Phi^H Phi - I|
  double herm = 0.0;       // max |sigma - sigma^H|
  double trace_err = 0.0;  // |tr sigma - nelec/2|
  bool finite = true;
};

double sigma_herm(const la::MatC& s) {
  double m = 0.0;
  for (size_t i = 0; i < s.rows(); ++i)
    for (size_t j = 0; j < s.cols(); ++j)
      m = std::max(m, std::abs(s(i, j) - std::conj(s(j, i))));
  return m;
}

bool all_finite(const la::MatC& m) {
  for (size_t i = 0; i < m.size(); ++i)
    if (!std::isfinite(m.data()[i].real()) ||
        !std::isfinite(m.data()[i].imag()))
      return false;
  return true;
}

double sigma_trace(const la::MatC& s) {
  double t = 0.0;
  for (size_t i = 0; i < s.rows(); ++i) t += s(i, i).real();
  return t;
}

Health check_state(const td::TdState& s, double nelec) {
  Health h;
  h.finite = all_finite(s.phi) && all_finite(s.sigma);
  if (!h.finite) return h;
  const la::MatC ov = pw::overlap(s.phi, s.phi);
  for (size_t i = 0; i < ov.rows(); ++i)
    for (size_t j = 0; j < ov.cols(); ++j)
      h.orth = std::max(h.orth, std::abs(ov(i, j) - (i == j ? 1.0 : 0.0)));
  h.herm = sigma_herm(s.sigma);
  h.trace_err = std::abs(sigma_trace(s.sigma) - 0.5 * nelec);
  return h;
}

// Orthonormality and hermiticity are restored exactly by every commit
// (Cholesky + hermitize), so only roundoff may remain; the trace is
// conserved by the commutator form up to the fixed-point tolerance.
bool healthy(const Health& h, const core::RunConfig& cfg, int k, double nelec) {
  return h.finite && h.orth < 1e-10 && h.herm < 1e-10 &&
         h.trace_err < 2.0 * k * cfg.tol * 0.5 * nelec;
}

// --- one rep of a workload ---------------------------------------------------

// Exact per-rep counts; every rep of a run must reproduce the first one.
struct Counts {
  std::vector<long> per_step;  // (scf, outer, xapply, ffts) per step, in order
  std::map<std::string, long long> totals;
  bool operator==(const Counts& o) const {
    return per_step == o.per_step && totals == o.totals;
  }
};

struct Rep {
  std::vector<double> step_s;  // wall seconds per committed step
  double wall_s = 0.0;         // propagate + verify
  int steps = 0;
  int failed = 0;  // steps that failed the gate
  int trajectories = 0;
  Counts counts;
  Health worst;                 // largest deviations seen by the gate
  double worst_dipole = 0.0;    // max |dipole - reference|
  std::vector<std::string> failures;  // first few, for the log
  std::vector<std::string> jsonl;     // StepReport lines
  std::map<std::string, double> extra;  // run-level counters for the trace
};

void fail(Rep* r, const std::string& what) {
  ++r->failed;
  if (r->failures.size() < 8) r->failures.push_back(what);
}

// Gate one step: reference dipole, convergence, state health.
void gate_step(Rep* r, const core::RunConfig& cfg, const std::string& tag,
               int k, double dipole, const std::vector<double>& ref,
               double ref_scale, bool converged, const Health& h,
               double nelec) {
  const size_t i = static_cast<size_t>(k - 1);
  if (i < ref.size())
    r->worst_dipole = std::max(r->worst_dipole, std::abs(dipole - ref[i]));
  r->worst.orth = std::max(r->worst.orth, h.orth);
  r->worst.herm = std::max(r->worst.herm, h.herm);
  r->worst.trace_err = std::max(r->worst.trace_err, h.trace_err);
  std::ostringstream why;
  if (i >= ref.size() || !std::isfinite(dipole) ||
      std::abs(dipole - ref[i]) > dipole_tolerance(cfg, k, ref_scale))
    why << " dipole " << dipole << " vs ref "
        << (i < ref.size() ? ref[i] : NAN);
  if (!converged) why << " not converged";
  if (!healthy(h, cfg, k, nelec))
    why << " health(orth " << h.orth << ", herm " << h.herm << ", trace "
        << h.trace_err << ", finite " << h.finite << ")";
  if (!why.str().empty())
    fail(r, tag + " step " + std::to_string(k) + ":" + why.str());
}

double max_abs(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

struct Context {
  Workload w;
  Inputs in;
  core::Simulation* sim = nullptr;
  Reference ref;
  double ref_perturb = 0.0;  // self-test: scale the reference by (1 + this)
  int max_scf = 0;           // self-test: override cfg.max_scf when > 0
  fs::path out;
};

std::vector<double> reference(const Context& cx, const std::string& key) {
  auto it = cx.ref.find(key);
  PTIM_CHECK_MSG(it != cx.ref.end(), "reference has no series " << key);
  std::vector<double> v = it->second;
  for (double& x : v) x *= 1.0 + cx.ref_perturb;
  return v;
}

obs::StepCounters counters(const ham::ExchangeOperator& xop) {
  obs::StepCounters c;
  c.ffts = xop.fft_count.load(std::memory_order_relaxed);
  c.alloc_count = backend::buffer_alloc_count();
  return c;
}

// ace_serial: the staged PT-IM-ACE protocol driven from here, so begin /
// advance / exchange / finish each get a benchmark span.
Rep rep_ace_serial(Context& cx) {
  static const uint32_t kStep = obs::intern("bench.step");
  static const uint32_t kBegin = obs::intern("bench.td.begin");
  static const uint32_t kApply = obs::intern("bench.ham.apply_diag");
  static const uint32_t kAdvance = obs::intern("bench.td.advance");
  static const uint32_t kFinish = obs::intern("bench.td.finish");
  static const uint32_t kMeasure = obs::intern("bench.measure");
  core::Simulation& sim = *cx.sim;
  core::RunConfig cfg = ace_config();
  if (cx.max_scf > 0) cfg.max_scf = cx.max_scf;
  sim.set_laser(td::LaserParams{});
  const std::vector<double> ref = reference(cx, "ace");
  const double scale = max_abs(ref);

  Rep r;
  Timer wall;
  auto prop = sim.make_ptim(cfg);
  const ham::ExchangeOperator& xop = sim.hamiltonian().exchange_op();
  td::TdState s = gauge(sim.initial_state(), cx.in.seed);
  obs::StepSampler sampler;
  la::MatC w;
  for (int k = 1; k <= cfg.steps; ++k) {
    sampler.begin(counters(xop));
    Timer t;
    td::PtImStepStats st;
    double d = 0.0;
    {
      obs::ObsSpan step(kStep, obs::Cat::kStep);
      td::PtImPropagator::StepSession sess;
      {
        obs::ObsSpan sp(kBegin, obs::Cat::kCompute);
        sess = prop->step_begin(s);
      }
      bool more = true;
      while (more) {
        {
          obs::ObsSpan sp(kApply, obs::Cat::kCompute);
          w.resize(sess.ace_phi.rows(), sess.ace_phi.cols());
          xop.apply_diag(sess.ace_phi, sess.ace_occ, sess.ace_phi, w, false);
        }
        obs::ObsSpan sp(kAdvance, obs::Cat::kCompute);
        more = prop->step_advance(s, sess, w);
      }
      obs::ObsSpan sp(kFinish, obs::Cat::kCompute);
      st = prop->step_finish(s, sess);
    }
    {
      obs::ObsSpan sp(kMeasure, obs::Cat::kOther);
      d = sim.dipole(s, kX);
    }
    r.step_s.push_back(t.seconds());
    obs::StepReport rep = sampler.end(counters(xop));
    rep.step = k;
    rep.seconds = r.step_s.back();
    rep.scf_iterations = st.scf_iterations;
    rep.outer_iterations = st.outer_iterations;
    rep.exchange_applications = st.exchange_applications;
    rep.residual = st.residual;
    rep.converged = st.converged ? 1 : 0;
    r.jsonl.push_back(obs::to_jsonl(rep));
    r.counts.per_step.insert(r.counts.per_step.end(),
                             {st.scf_iterations, st.outer_iterations,
                              st.exchange_applications, rep.ffts});
    gate_step(&r, cfg, "ace", k, d, ref, scale, st.converged,
              check_state(s, sim.nelec()), sim.nelec());
  }
  r.steps = cfg.steps;
  r.trajectories = 1;
  r.wall_s = wall.seconds();
  return r;
}

// ace_2x2: the same trajectory through Simulation::run on a 2x2 band x grid
// layout, async ring, HostAsync. The per-step wall time comes from the
// StepReport lines (max over ranks); sigma is checked every step through
// probes (it is replicated, so this costs no communication), the full state
// at the end.
Rep rep_ace_2x2(Context& cx, int rep_index) {
  core::Simulation& sim = *cx.sim;
  core::RunConfig cfg = ace_config();
  if (cx.max_scf > 0) cfg.max_scf = cx.max_scf;
  cfg.nranks = cx.w.ranks;
  cfg.process_grid = dist::ProcessGrid{cx.w.ranks / cx.w.pg, cx.w.pg};
  cfg.pattern = dist::ExchangePattern::kAsyncRing;
  cfg.backend = backend::Kind::kHostAsync;
  const fs::path metrics =
      cx.out / ("rep" + std::to_string(rep_index) + ".jsonl");
  fs::remove(metrics);
  cfg.metrics_path = metrics.string();
  sim.set_laser(td::LaserParams{});
  const std::vector<double> ref = reference(cx, "ace");
  const double scale = max_abs(ref);

  core::MeasurementSet m;
  m.add("dipole", sim.dipole_probe(kX));
  m.add("herm",
        [](const core::MeasureContext& c) { return sigma_herm(*c.sigma); });
  m.add("trace",
        [](const core::MeasureContext& c) { return sigma_trace(*c.sigma); });
  m.add("finite", [](const core::MeasureContext& c) {
    return all_finite(*c.sigma) ? 1.0 : 0.0;
  });

  Rep r;
  Timer wall;
  const td::TdState start = gauge(sim.initial_state(), cx.in.seed);
  const core::Simulation::RunResult res = sim.run(cfg, std::move(m), &start);

  std::map<long, double> step_s;  // step -> max over ranks
  std::map<std::pair<long, int>, long> ffts;
  std::ifstream f(metrics);
  std::string line;
  while (std::getline(f, line)) {
    obs::StepReport sr;
    if (!obs::from_jsonl(line, &sr)) continue;
    step_s[sr.step] = std::max(step_s[sr.step], sr.seconds);
    ffts[{sr.step, sr.rank}] = sr.ffts;
    r.jsonl.push_back(line);
  }
  PTIM_CHECK_MSG(step_s.size() == static_cast<size_t>(cfg.steps),
                 "ace_2x2: expected one StepReport per step and rank");
  for (const auto& kv : step_s) r.step_s.push_back(kv.second);

  const auto& dip = res.measurements.series("dipole");
  const auto& herm = res.measurements.series("herm");
  const auto& trace = res.measurements.series("trace");
  const auto& finite = res.measurements.series("finite");
  for (int k = 1; k <= cfg.steps; ++k) {
    const size_t i = static_cast<size_t>(k - 1);
    const td::PtImStepStats& st = res.steps[i];
    Health h;
    h.herm = herm[i];
    h.trace_err = std::abs(trace[i] - 0.5 * sim.nelec());
    h.finite = finite[i] == 1.0;
    if (k == cfg.steps) {
      const Health full = check_state(res.final_state, sim.nelec());
      h.orth = full.orth;
      h.finite = h.finite && full.finite;
    }
    gate_step(&r, cfg, "ace_2x2", k, dip[i], ref, scale, st.converged, h,
              sim.nelec());
    r.counts.per_step.insert(r.counts.per_step.end(),
                             {st.scf_iterations, st.outer_iterations,
                              st.exchange_applications});
  }
  for (const auto& kv : ffts)
    r.counts.per_step.push_back(kv.second);
  long long calls = 0;
  for (size_t rank = 0; rank < res.comm.size(); ++rank)
    for (const auto& [op, s] : res.comm[rank].snapshot().ops) {
      const std::string key = "comm/" + std::to_string(rank) + "/" + op;
      r.counts.totals[key + "/calls"] = s.calls;
      r.counts.totals[key + "/bytes"] = s.bytes;
      calls += s.calls;
    }
  r.extra["comm_calls_per_step"] = static_cast<double>(calls) / cfg.steps;
  r.steps = cfg.steps;
  r.trajectories = 1;
  r.wall_s = wall.seconds();
  fs::remove(metrics);
  return r;
}

// diag_campaign: 6 kicked Diag trajectories through EnsembleCampaign with a
// checkpoint after every step, then collect(); every checkpoint is read back
// with io::load_checkpoint and gated ("writes beside reads").
Rep rep_campaign(Context& cx, int rep_index) {
  static const uint32_t kRun = obs::intern("bench.campaign.run");
  static const uint32_t kRestore = obs::intern("bench.io.restore");
  core::Simulation& sim = *cx.sim;
  core::RunConfig cfg = campaign_config();
  if (cx.max_scf > 0) cfg.max_scf = cx.max_scf;
  cfg.metrics_path = "per-job";  // enable switch: <job dir>/metrics.jsonl
  const fs::path dir = cx.out / ("campaign" + std::to_string(rep_index));
  fs::remove_all(dir);
  fs::create_directories(dir);

  Rep r;
  Timer wall;
  core::CampaignOptions opt;
  opt.dir = dir.string();
  opt.nworkers = cx.w.workers;
  core::EnsembleCampaign camp(sim, cfg, opt);
  core::MeasurementSet m;
  m.add("dipole", sim.dipole_probe(kX));
  camp.set_measurements(m);
  const td::TdState start = gauge(sim.initial_state(), cx.in.seed);
  std::map<int, int> job_of_id;  // campaign id -> kick index j
  for (int j : cx.in.job_order) {
    core::CampaignJob job;
    job.name = "kick" + std::to_string(j);
    job.kick = (j + 1) * kKickUnit * kX;
    job.initial = start;
    job_of_id[camp.submit(job)] = j;
  }
  {
    obs::ObsSpan sp(kRun, obs::Cat::kIo);
    camp.run();
  }
  const std::vector<core::CampaignResult> results = camp.collect();
  const int missing = kCampaignJobs - static_cast<int>(results.size());
  if (missing > 0) {
    fail(&r, "campaign: " + std::to_string(missing) + " jobs failed");
    r.failed += missing * cfg.steps - 1;  // every step of a failed job
  }

  long long ckpt_bytes = 0;
  long ckpts = 0;
  double restore_s = 0.0;
  std::map<int, std::vector<std::string>> lines_of_job;
  std::map<int, std::vector<long>> counts_of_job;
  for (const core::CampaignResult& res : results) {
    const int j = job_of_id.at(res.id);
    const std::string tag = "job kick" + std::to_string(j);
    const fs::path jdir = camp.queue().job_dir(res.id);
    const std::vector<double> ref = reference(cx, kick_key(j));
    const double scale = max_abs(ref);
    const auto& dip = res.measurements.series("dipole");

    std::map<long, obs::StepReport> reports;
    std::ifstream f(jdir / "metrics.jsonl");
    std::string line;
    while (std::getline(f, line)) {
      obs::StepReport sr;
      if (!obs::from_jsonl(line, &sr)) continue;
      reports[sr.step] = sr;  // last occurrence wins
      lines_of_job[j].push_back(line);
    }
    for (int k = 1; k <= cfg.steps; ++k) {
      const fs::path ck = jdir / ("ckpt_" + std::to_string(k) + ".ckpt");
      io::Checkpoint c;
      {
        obs::ObsSpan sp(kRestore, obs::Cat::kIo);
        Timer t;
        c = io::load_checkpoint(ck.string());
        restore_s += t.seconds();
      }
      ckpt_bytes += static_cast<long long>(fs::file_size(ck));
      ++ckpts;
      const auto it = reports.find(k);
      const bool have = it != reports.end();
      const size_t i = static_cast<size_t>(k - 1);
      gate_step(&r, cfg, tag, k, i < dip.size() ? dip[i] : NAN, ref, scale,
                have && it->second.converged == 1,
                check_state(c.state, sim.nelec()), sim.nelec());
      if (have) {
        r.step_s.push_back(it->second.seconds);
        counts_of_job[j].insert(
            counts_of_job[j].end(),
            {it->second.scf_iterations, it->second.outer_iterations,
             it->second.exchange_applications, it->second.ffts});
      }
    }
  }
  // Per-job rows in kick order, so reps line up whatever the schedule.
  for (const auto& [j, lines] : lines_of_job)
    r.jsonl.insert(r.jsonl.end(), lines.begin(), lines.end());
  for (const auto& [j, c] : counts_of_job)
    r.counts.per_step.insert(r.counts.per_step.end(), c.begin(), c.end());
  r.counts.totals["checkpoint_bytes"] = ckpt_bytes;
  r.counts.totals["checkpoints"] = ckpts;
  r.extra["io.checkpoint_bytes"] = static_cast<double>(ckpt_bytes);
  r.extra["io.checkpoints"] = static_cast<double>(ckpts);
  r.extra["io.restore_s"] = ckpts ? restore_s / ckpts : 0.0;
  r.steps = kCampaignJobs * cfg.steps;
  r.trajectories = kCampaignJobs;
  r.wall_s = wall.seconds();
  fs::remove_all(dir);
  return r;
}

// A solver error (e.g. a Cholesky breakdown of an unconverged state) fails
// every step of the rep.
Rep run_rep(Context& cx, int rep_index) {
  try {
    if (cx.w.name == "ace_serial") return rep_ace_serial(cx);
    if (cx.w.name == "ace_2x2") return rep_ace_2x2(cx, rep_index);
    return rep_campaign(cx, rep_index);
  } catch (const Error& e) {
    Rep r;
    r.steps = cx.w.name == "diag_campaign" ? kCampaignJobs * kCampaignSteps
                                           : kAceSteps;
    fail(&r, e.what());
    r.failed = r.steps;
    return r;
  }
}

// --- statistics and output ---------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile with at least ten samples beyond it: the 11th
// largest sample, at percentile 100*(n-10)/n (the maximum when n <= 10).
double tail(std::vector<double> v, double* pct) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n <= 10) {
    *pct = 100.0;
    return v.empty() ? 0.0 : v.back();
  }
  *pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return v[n - 11];
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

std::string json_num(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string json_obj(const std::map<std::string, std::string>& kv) {
  std::string o = "{";
  for (const auto& [k, v] : kv) {
    if (o.size() > 1) o += ",";
    o += json_str(k) + ":" + v;
  }
  return o + "}";
}

// Host bandwidth probe: STREAM-style triad a = b + s*c with every array at
// least four times the last-level cache; bytes are computed from the array
// sizes (3 arrays per pass, write-allocate traffic not counted).
double triad_gbs(size_t* array_bytes, size_t* llc_bytes) {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  *llc_bytes = static_cast<size_t>(llc);
  const size_t n = 4 * static_cast<size_t>(llc) / sizeof(double) + 1;
  *array_bytes = n * sizeof(double);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  const long ln = static_cast<long>(n);
#pragma omp parallel for schedule(static)
  for (long i = 0; i < ln; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  double best = 1e300;
  for (int pass = 0; pass < 5; ++pass) {
    Timer t;
#pragma omp parallel for schedule(static)
    for (long i = 0; i < ln; ++i) a[i] = b[i] + 3.0 * c[i];
    best = std::min(best, t.seconds());
  }
  PTIM_CHECK_MSG(a[n - 1] == 7.0, "triad produced a wrong value");
  return 3.0 * static_cast<double>(*array_bytes) / best / 1e9;
}

// --- reference generation ----------------------------------------------------

// Regenerates the stored series through the plain paths from the ungauged
// ground state: Simulation::run (prop->step()) for the ACE laser run, and
// Simulation::run with the kick as the starting vector potential for the
// Diag jobs — independent of the staged, distributed and campaign paths
// the workloads exercise.
int make_reference(const std::string& path) {
  omp_set_num_threads(nproc());
  std::ofstream f(path);
  f << "# Reference x dipole (a.u.) after each step, one series per line.\n"
       "# ace: PT-IM-ACE, the first " << kAceSteps
    << " steps of 50 as of the default laser pulse placed over " << kAceHorizon
    << " steps.\n# kick/<j>: PT-IM-Diag, "
    << kCampaignSteps << " steps, delta kick A_x = (j+1)*" << kKickUnit
    << ".\n";
  f.precision(17);
  {
    core::Simulation sim(system_spec());
    sim.prepare_ground_state();
    sim.set_laser(td::LaserParams{});
    core::MeasurementSet m;
    m.add("dipole", sim.dipole_probe(kX));
    const auto res = sim.run(ace_config(), std::move(m));
    f << "ace";
    for (double d : res.measurements.series("dipole")) f << ' ' << d;
    f << '\n';
  }
  core::Simulation sim(system_spec());  // no laser attached
  sim.prepare_ground_state();
  for (int j = 0; j < kCampaignJobs; ++j) {
    sim.hamiltonian().set_vector_potential((j + 1) * kKickUnit * kX);
    core::RunConfig cfg = campaign_config();
    cfg.checkpoint_every = 0;
    core::MeasurementSet m;
    m.add("dipole", sim.dipole_probe(kX));
    const auto res = sim.run(cfg, std::move(m));
    f << kick_key(j);
    for (double d : res.measurements.series("dipole")) f << ' ' << d;
    f << '\n';
  }
  return f.good() ? 0 : 1;
}

// --- main --------------------------------------------------------------------

struct Args {
  std::string workload, out, reference, make_reference;
  uint64_t seed = 0;
  double seconds = 8.0;
  bool trace = false;
  double perturb = 0.0;
  int max_scf = 0;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::stoull(v);
    else if (k == "--seconds") a->seconds = std::stod(v);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--out") a->out = v;
    else if (k == "--reference") a->reference = v;
    else if (k == "--make-reference") a->make_reference = v;
    else if (k == "--perturb-reference") a->perturb = std::stod(v);
    else if (k == "--max-scf") a->max_scf = std::stoi(v);
    else return false;
  }
  return true;
}

int run(const Args& a, char** argv) {
  Context cx;
  if (!find_workload(a.workload, &cx.w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const int np = nproc();
  const int busy = cx.w.workers * cx.w.ranks * cx.w.omp;
  if (busy > np) {
    std::fprintf(stderr, "refusing %s: %d busy threads > nproc %d\n",
                 cx.w.name.c_str(), busy, np);
    return 3;
  }
  // Rank and worker threads take their OpenMP team width from the process
  // default, which only OMP_NUM_THREADS sets: re-exec with it when needed.
  const std::string width = std::to_string(cx.w.omp);
  const char* env = std::getenv("OMP_NUM_THREADS");
  if (!env || width != env) {
    setenv("OMP_NUM_THREADS", width.c_str(), 1);
    execv(argv[0], argv);
    std::perror("execv");
    return 1;
  }
  cx.in = make_inputs(a.seed);
  cx.ref = load_reference(a.reference);
  cx.ref_perturb = a.perturb;
  cx.max_scf = a.max_scf;
  cx.out = a.out;
  fs::create_directories(cx.out);

  // Run header.
  const auto isa = fft::simd::isa_name(fft::simd::active_isa());
  std::map<std::string, std::string> header = {
      {"workload", json_str(cx.w.name)},
      {"seed", std::to_string(a.seed)},
      {"nproc", std::to_string(np)},
      {"ranks", std::to_string(cx.w.workers * cx.w.ranks)},
      {"omp_team", std::to_string(cx.w.omp)},
      // HostAsync: one worker per stream, compute + comm per rank.
      {"stream_workers", std::to_string(cx.w.ranks > 1 ? 2 * cx.w.ranks : 0)},
      {"busy_threads", std::to_string(busy)},
      {"grid_ranks", std::to_string(cx.w.pg)},
      {"simd_isa", json_str(isa)},
      {"compiler", json_str(std::string("g++ ") + __VERSION__)},
      {"build_type", json_str(PTBENCH_BUILD_TYPE)},
  };
  std::fprintf(stderr,
               "# %s seed %llu | nproc %d | %d ranks x %d OpenMP + %s "
               "stream workers | isa %s | %s | %s\n",
               cx.w.name.c_str(), static_cast<unsigned long long>(a.seed), np,
               cx.w.workers * cx.w.ranks, cx.w.omp,
               header["stream_workers"].c_str(), isa, __VERSION__,
               PTBENCH_BUILD_TYPE);

  std::vector<obs::Span> spans;
  uint64_t dropped = 0;
  const auto take_spans = [&]() {
    obs::set_enabled(false);
    const auto s = obs::snapshot();
    spans.insert(spans.end(), s.begin(), s.end());
    dropped += obs::dropped_spans();
    obs::clear();
  };

  // Setup: the same on every workload, at nproc threads.
  static const uint32_t kSetup = obs::intern("bench.setup");
  omp_set_num_threads(np);
  if (a.trace) obs::set_enabled(true);
  Timer setup_timer;
  std::unique_ptr<core::Simulation> sim;
  {
    obs::ObsSpan sp(kSetup, obs::Cat::kStep);
    sim = std::make_unique<core::Simulation>(system_spec());
    sim->prepare_ground_state();
  }
  const double setup_s = setup_timer.seconds();
  if (a.trace) take_spans();
  PTIM_CHECK_MSG(sim->nbands() == 20, "expected 20 bands");
  cx.sim = sim.get();
  // The backend drives only the distributed ring.
  header["backend"] = json_str(
      cx.w.ranks > 1 ? backend::kind_name(backend::Kind::kHostAsync) : "none");
  // Retire the set-up team: its idle threads would stay in this thread's
  // OpenMP pool, and with more pooled threads than CPUs libgomp turns every
  // team's barrier spinning into futex sleeps (seen on diag_campaign: 4e5
  // context switches and a 1.4-3x slower first rep). A parallel region of
  // the workload's width releases the surplus threads.
  omp_set_num_threads(cx.w.omp);
  int team = 0;
#pragma omp parallel
  {
#pragma omp single
    team = omp_get_num_threads();
  }
  PTIM_CHECK_MSG(team == cx.w.omp, "OpenMP team of " << team << " threads");

  // Reps: until --seconds have passed and at least kMinReps ran. Traced
  // runs alternate untraced and traced reps (first untraced).
  std::vector<double> steps_untraced, rep_walls;
  int attempted = 0, failed = 0, trajectories = 0, jobs_per_rep = 1;
  std::vector<std::string> jsonl;
  std::map<std::string, double> extra;
  Counts first;
  Timer measure;
  int reps = 0;
  while (reps < kMinReps || measure.seconds() < a.seconds) {
    const bool traced = a.trace && reps % 2 == 1;
    if (traced) obs::set_enabled(true);
    Rep r = run_rep(cx, reps);
    if (traced) {
      take_spans();
      jsonl.insert(jsonl.end(), r.jsonl.begin(), r.jsonl.end());
      for (const auto& [k, v] : r.extra) extra[k] = v;
    }
    if (reps == 0) {
      first = r.counts;
    } else if (!(r.counts == first)) {
      fail(&r, "exact counts differ from rep 0");
      r.failed = r.steps;  // the whole rep is suspect
    }
    for (const auto& msg : r.failures)
      std::fprintf(stderr, "FAIL rep %d: %s\n", reps, msg.c_str());
    std::fprintf(stderr,
                 "# rep %d%s: %.3f s, step p50 %.4f s | gate: max |d - ref| "
                 "%.3g, |Phi^H Phi - I| %.3g, |sigma - sigma^H| %.3g, "
                 "|tr sigma - nelec/2| %.3g\n",
                 reps, traced ? " (traced)" : "", r.wall_s, median(r.step_s),
                 r.worst_dipole, r.worst.orth, r.worst.herm, r.worst.trace_err);
    attempted += r.steps;
    failed += std::min(r.failed, r.steps);
    ++reps;
    if (r.trajectories == 0) break;  // the rep threw: nothing to time
    if (!traced) {
      steps_untraced.insert(steps_untraced.end(), r.step_s.begin(),
                            r.step_s.end());
      rep_walls.push_back(r.wall_s);
      jobs_per_rep = r.trajectories;
    }
    trajectories += r.trajectories;
  }
  double pct = 0.0;
  const double p50 = median(steps_untraced);
  const double tl = tail(steps_untraced, &pct);
  // wall_s: one rep, from its start to its verified result; the set-up it
  // starts from is setup_s. Each rep completes jobs_per_rep trajectories.
  const double rep_s = rep_walls.empty() ? 0.0 : median(rep_walls);
  std::map<std::string, std::string> metrics = {
      {"setup_s", json_num(setup_s)},
      {"step_s_p50", json_num(p50)},
      {"step_s_tail", json_num(tl)},
      {"wall_s", json_num(rep_s)},
      {"jobs_per_hour",
       json_num(rep_s > 0 ? 3600.0 * jobs_per_rep / rep_s : 0.0)},
      {"peak_rss_mb", json_num(peak_rss_mb())},
  };
  std::fprintf(stderr,
               "# %d reps, %d trajectories, %d steps untraced: step p50 %.4f "
               "s, tail p%.1f %.4f s (%zu steps, 10 beyond)\n",
               reps, trajectories, static_cast<int>(steps_untraced.size()),
               p50, pct, tl, steps_untraced.size());

  if (a.trace) {
    size_t array_bytes = 0, llc_bytes = 0;
    omp_set_num_threads(np);
    const double gbs = triad_gbs(&array_bytes, &llc_bytes);
    std::map<std::string, std::string> other = {
        {"header", json_obj(header)},
        {"untraced_step_p50_s", json_num(p50)},
        {"setup_s", json_num(setup_s)},
        {"dropped_spans", std::to_string(dropped)},
        {"nworkers", std::to_string(cx.w.workers)},
        {"host.triad_gbs", json_num(gbs)},
        {"triad_array_bytes", std::to_string(array_bytes)},
        {"llc_bytes", std::to_string(llc_bytes)},
    };
    const auto dims = sim->sphere().suggest_dims(1);
    other["wfc_grid"] = "[" + std::to_string(dims[0]) + "," +
                        std::to_string(dims[1]) + "," +
                        std::to_string(dims[2]) + "]";
    for (const auto& [k, v] : extra) other[k] = json_num(v);
    std::string doc = obs::chrome_trace_json(spans);
    const size_t close = doc.rfind('}');
    doc = doc.substr(0, close) + ",\"otherData\":" + json_obj(other) + "}";
    std::ofstream(cx.out / "trace.json") << doc;
    std::ofstream steps(cx.out / "steps.jsonl");
    for (const auto& l : jsonl) steps << l << '\n';
  }

  std::map<std::string, std::string> summary = {
      {"correct", failed == 0 ? "true" : "false"},
      {"attempted", std::to_string(attempted)},
      {"failed", std::to_string(failed)},
      {"metrics", json_obj(metrics)},
      {"tail_percentile", json_num(pct)},
      {"tail_samples", std::to_string(steps_untraced.size())},
      {"reps", std::to_string(reps)},
      {"header", json_obj(header)},
  };
  std::printf("%s\n", json_obj(summary).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: ptbench --workload W --seed N --seconds S --trace 0|1 "
                 "--out DIR --reference FILE\n       ptbench --make-reference "
                 "FILE\n");
    return 2;
  }
  try {
    if (!a.make_reference.empty()) return make_reference(a.make_reference);
    return run(a, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptbench: %s\n", e.what());
    return 1;
  }
}
