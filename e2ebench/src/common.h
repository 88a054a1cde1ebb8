// Shared plumbing of the end-to-end benchmark: arguments, the metric report,
// correctness tallies, the pass loop and the host fingerprint.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace e2ebench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< minimum wall time of the steady passes
  bool trace = false;     ///< true: per-layer ledger instead of end-to-end
};

/// Metrics in print order plus the correctness tally of one run.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);

  /// One correctness check; a failure is logged to stderr and counted.
  void check(bool ok, const std::string& what);
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;
  /// Human-readable metric table (one "name value unit" line each).
  std::string table() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  long attempted_ = 0;
  long failed_ = 0;
};

double median(std::vector<double> v);

/// Peak resident set of this process so far, MB.
double peak_rss_mb();

/// What one fixed-work pass produced: a bit-exact fingerprint of its outputs
/// (compared across passes) and the wall time of each of its fixed units
/// (a scenario leg, a thermal phase).
struct PassOutput {
  double objective = 0.0;
  std::vector<long> counts;
  std::vector<double> unit_s;  ///< wall seconds of each unit of the pass
  double work = 0.0;           ///< units of work of the throughput figure
  std::vector<double> work_s;  ///< seconds of that work, per unit
};

/// The first pass and the steady passes that follow it. Steady figures sum
/// each unit's median over the steady passes, so a slow spell on a shared
/// host that hits one unit of one pass does not move them.
struct PassSeries {
  double first_s = 0.0;
  PassOutput first;
  int steady_passes = 0;
  double pass_s = 0.0;      ///< sum over units of the median unit time
  double work_per_s = 0.0;  ///< work over the sum of median work times
};

/// Runs pass 0, then steady passes until at least `min_steady` of them ran
/// and `seconds` of steady wall time elapsed. Every steady pass must
/// reproduce pass 0's objective and counts exactly.
PassSeries run_passes(const Args& args, Report& report, int min_steady,
                      const std::function<PassOutput(int)>& pass);

/// Passes 0 and 1 of a traced run, both untraced. Pass 0 is the first pass
/// of the process, what one `regress` or CLI call pays after set-up.
struct UntracedPair {
  PassOutput first;
  PassOutput base;
  double first_s = 0.0;
  double base_s = 0.0;
};

/// Runs passes 0 and 1, checks that pass 1 reproduces pass 0, and reports
/// the ledger's cold.first_pass_s, alloc.first_pass_faults and
/// alloc.pass_faults: the wall time of pass 0 and the minor page faults of
/// each pass, where the allocator's page churn shows.
UntracedPair run_untraced_pair(Report& report,
                               const std::function<PassOutput(int)>& pass);

/// Runs `setup` `runs` times and returns the median wall seconds; the caller
/// keeps whatever the last call built. The count is fixed, not timed, so the
/// heap the first pass starts from is the same on every run of a seed.
double time_setup(int runs, const std::function<void()>& setup);

/// One pass of an isolated leg, as its pass process reports it. The pass
/// function fills in everything but `peak_rss_kb`; a pass that throws or
/// whose process dies reads `ok == false` with the reason in `error`.
struct LegRecord {
  double wall_s = 0.0;     ///< the pass as its caller sees it
  double leg_s = 0.0;      ///< the leg's own work time within it
  long work = 0;           ///< units of work (SA evaluations)
  double objective = 0.0;  ///< bit-exact fingerprint of the result
  bool ok = false;         ///< ran; result complete, legal, not degraded
  long peak_rss_kb = 0;    ///< peak resident set of the pass process
  char error[160] = {};
};

/// Set-up and passes of one isolated leg.
struct IsolatedRun {
  double setup_s = 0.0;  ///< median of the leg process's set-ups
  std::vector<LegRecord> passes;
};

/// Runs one leg in a process of its own, forked from this one, and blocks
/// until it ends. That process runs `setup` `setup_runs` times, then forks
/// one child per pass from the state the last set-up left, so every pass
/// starts from the same heap: what one `regress` or CLI call of the leg pays
/// after set-up. Passes run one at a time until at least `min_passes` ran
/// and `seconds` passed. Throws when set-up fails or the leg process dies.
IsolatedRun run_isolated(int setup_runs, int min_passes, double seconds,
                         const std::function<void()>& setup,
                         const std::function<LegRecord()>& pass);

/// CPU model, thread count, SIMD dispatch level, build type and compiler.
std::string host_fingerprint();

/// Integer mixing for per-instance seeds derived from --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

void run_sa_anneal(const Args& args, Report& report);
void run_rl_train(const Args& args, Report& report);
void run_thermal_eval(const Args& args, Report& report);

}  // namespace e2ebench
