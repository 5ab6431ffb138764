// Ensemble trajectory throughput — the serving-layer measurement behind
// core::EnsembleDriver: N delta-kick trajectories over ONE prepared ground
// state, propagated one-at-a-time (the pre-ensemble baseline: every
// trajectory pays its own exchange applications) versus in lockstep
// batches whose ACE builds run through ExchangeOperator::apply_diag_packed
// (all in-flight trajectories' pair-density blocks share batched FFTs).
//
// The batched path is regression-pinned bitwise identical to the baseline
// (tests/test_ensemble.cpp); this bench reports what the packing buys in
// trajectories/hour. Writes BENCH_throughput.json.

// A second section times the crash-safe campaign path (core::
// EnsembleCampaign): the same jobs with atomic auto-checkpointing every 2
// steps, uninterrupted versus killed mid-flight and resumed from disk —
// the price of durability and of a restart, in the same traj/hour units.

#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "bench_common.hpp"
#include "core/campaign.hpp"
#include "core/ensemble.hpp"
#include "core/simulation.hpp"
#include "io/job_queue.hpp"

using namespace ptim;

namespace {

void remove_tree(const std::string& path) {
  for (const std::string& name : io::list_dir(path))
    remove_tree(path + "/" + name);
  ::rmdir(path.c_str());
  std::remove(path.c_str());
}

std::vector<core::EnsembleJob> make_jobs(int n) {
  std::vector<core::EnsembleJob> jobs;
  for (int i = 0; i < n; ++i) {
    core::EnsembleJob j;
    j.name = "kick" + std::to_string(i);
    j.kick = {1e-3 * static_cast<real_t>(i + 1), 0.0, 0.0};
    jobs.push_back(std::move(j));
  }
  return jobs;
}

bool states_identical(const td::TdState& a, const td::TdState& b) {
  return a.phi.size() == b.phi.size() && a.sigma.size() == b.sigma.size() &&
         std::memcmp(a.phi.data(), b.phi.data(),
                     a.phi.size() * sizeof(cplx)) == 0 &&
         std::memcmp(a.sigma.data(), b.sigma.data(),
                     a.sigma.size() * sizeof(cplx)) == 0;
}

// argv[i] as a positive int, or `fallback` when absent. Anything else
// (non-numeric, trailing junk, <= 0, out of range) is nullopt, so a stray
// flag cannot silently mean zero trajectories.
std::optional<int> positive_arg(int argc, char** argv, int i, int fallback) {
  if (argc <= i) return fallback;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(argv[i], &end, 10);
  if (end == argv[i] || *end != '\0' || errno == ERANGE || v <= 0 ||
      v > INT_MAX)
    return std::nullopt;
  return static_cast<int>(v);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<int> n_arg = positive_arg(argc, argv, 1, 6);
  const std::optional<int> steps_arg = positive_arg(argc, argv, 2, 4);
  if (!n_arg || !steps_arg) {
    std::fprintf(stderr,
                 "usage: bench_throughput [trajectories] [steps]\n"
                 "  both positive integers (defaults 6 and 4)\n");
    return 2;
  }
  const int n = *n_arg;
  const int steps = *steps_arg;

  bench::header("ensemble trajectory throughput (PT-IM-ACE, hybrid)");
  std::printf("%d trajectories x %d steps over one shared ground state\n\n",
              n, steps);

  core::SystemSpec spec;
  spec.ecut = 2.0;
  spec.temperature_k = 8000.0;
  spec.scf.tol_rho = 1e-6;
  core::Simulation sim(spec);
  sim.prepare_ground_state();

  core::RunConfig cfg;
  cfg.steps = steps;
  cfg.dt = 1.0;
  cfg.variant = td::PtImVariant::kAce;

  bench::BenchJson json("throughput");
  const std::string shape =
      "n=" + std::to_string(n) + " steps=" + std::to_string(steps);

  std::printf("%10s %12s %16s %10s\n", "width", "seconds", "traj/hour",
              "speedup");
  bench::rule();
  double base_secs = 0.0;
  std::vector<core::EnsembleJobResult> baseline;
  for (const size_t width : {size_t{1}, size_t{2}, size_t{0}}) {
    core::EnsembleDriver ens(sim, cfg);
    for (auto& j : make_jobs(n)) ens.submit(std::move(j));
    Timer t;
    auto results = ens.run_all(width);
    const double secs = t.seconds();
    if (width == 1) {
      base_secs = secs;
      baseline = std::move(results);
    } else {
      // The whole point of the packing is that it costs no accuracy at
      // all: per-trajectory results must be bitwise the baseline's.
      for (size_t i = 0; i < baseline.size(); ++i)
        if (!states_identical(baseline[i].final_state,
                              results[i].final_state)) {
          std::printf("FAIL: width=%zu diverged from baseline on job %zu\n",
                      width, i);
          return 1;
        }
    }
    const std::string label =
        width == 0 ? "all" : std::to_string(width);
    std::printf("%10s %12.3f %16.1f %9.2fx\n", label.c_str(), secs,
                n / secs * 3600.0, base_secs / secs);
    json.add("ensemble", shape + " width=" + label, secs);
  }
  std::printf("\n(batched widths verified bitwise identical to width=1)\n");

  // --- campaign durability overhead ---------------------------------------
  core::RunConfig ccfg = cfg;
  ccfg.checkpoint_every = 2;
  const auto submit_all = [&](core::EnsembleCampaign& camp) {
    for (auto& j : make_jobs(n)) {
      core::CampaignJob cj;
      cj.name = j.name;
      cj.kick = j.kick;
      camp.submit(cj);
    }
  };

  std::printf("\ncampaign (auto-checkpoint every 2 steps)\n");
  std::printf("%16s %12s %10s\n", "scenario", "seconds", "vs width=1");
  bench::rule();

  // Uninterrupted: what the checkpointing itself costs.
  const std::string dir_ref = "bench_campaign_ref";
  remove_tree(dir_ref);
  double campaign_secs = 0.0;
  {
    core::CampaignOptions opt;
    opt.dir = dir_ref;
    core::EnsembleCampaign camp(sim, ccfg, opt);
    submit_all(camp);
    Timer t;
    camp.run();
    campaign_secs = t.seconds();
  }
  std::printf("%16s %12.3f %9.2fx\n", "uninterrupted", campaign_secs,
              campaign_secs / base_secs);
  json.add("campaign", shape + " ckpt_every=2", campaign_secs);

  // Killed after the first job's midpoint checkpoint, then resumed in a
  // fresh campaign over the same directory: the restart overhead a real
  // crash pays (re-scan, re-validate, replay from the last snapshot).
  const std::string dir_kr = "bench_campaign_resume";
  remove_tree(dir_kr);
  double resume_secs = 0.0;
  {
    core::CampaignOptions opt;
    opt.dir = dir_kr;
    const auto kill_at = static_cast<uint64_t>(steps / 2);
    opt.fault_hook = [kill_at](int id, uint64_t done) {
      if (id == 0 && done == kill_at)
        throw core::CampaignKill("bench kill");
    };
    core::EnsembleCampaign camp(sim, ccfg, opt);
    submit_all(camp);
    Timer t;
    try {
      camp.run();
    } catch (const core::CampaignKill&) {
    }
    core::CampaignOptions resume_opt;
    resume_opt.dir = dir_kr;
    core::EnsembleCampaign resumed(sim, ccfg, resume_opt);
    resumed.run();
    resume_secs = t.seconds();
  }
  std::printf("%16s %12.3f %9.2fx\n", "kill+resume", resume_secs,
              resume_secs / base_secs);
  json.add("campaign", shape + " kill+resume", resume_secs);
  remove_tree(dir_ref);
  remove_tree(dir_kr);

  json.write();
  return 0;
}
