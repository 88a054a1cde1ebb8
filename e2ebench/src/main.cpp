// End-to-end benchmark program for RLPlanner.
//
//   e2ebench --workload <sa_anneal|rl_train|thermal_eval> --seed N
//            --seconds S --trace <0|1>
//
// Each workload is one single-threaded closed loop: one caller issues
// fixed-work passes back to back. Set-up and the first pass of the fresh
// process are timed apart from the steady passes that follow; sa_anneal
// instead forks every pass of each leg from that leg's set-up state (see
// run_isolated). With
// --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer ledger, timed from this program around the library's
// public entry points. The last stdout line is one JSON object; the exit
// code is non-zero when any correctness check failed.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "util/simd.h"
#include "util/timer.h"

namespace e2ebench {

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "[e2ebench] CHECK FAILED: %s\n", what.c_str());
  }
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
    out << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": "
        << buf << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string Report::table() const {
  std::ostringstream out;
  char buf[160];
  for (const Metric& m : metrics_) {
    std::snprintf(buf, sizeof buf, "  %-26s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out << buf;
  }
  return out.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

namespace {

/// Sum over units of the median across passes of `field`.
double sum_of_unit_medians(const std::vector<PassOutput>& passes,
                           std::vector<double> PassOutput::*field) {
  double total = 0.0;
  for (std::size_t u = 0; u < (passes.front().*field).size(); ++u) {
    std::vector<double> samples;
    for (const PassOutput& p : passes) samples.push_back((p.*field)[u]);
    total += median(samples);
  }
  return total;
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// "# pass <i> <seconds> s units <unit seconds...>" on stdout.
void print_pass(int i, double seconds, const PassOutput& out) {
  std::printf("# pass %d %.4f s units", i, seconds);
  for (const double s : out.unit_s) std::printf(" %.4f", s);
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace

PassSeries run_passes(const Args& args, Report& report, int min_steady,
                      const std::function<PassOutput(int)>& pass) {
  PassSeries series;
  const rlplan::Timer first_timer;
  series.first = pass(0);
  series.first_s = first_timer.seconds();
  print_pass(0, series.first_s, series.first);
  std::vector<PassOutput> steady;
  const rlplan::Timer steady_timer;
  for (int i = 1; static_cast<int>(steady.size()) < min_steady ||
                  steady_timer.seconds() < args.seconds;
       ++i) {
    const rlplan::Timer t;
    steady.push_back(pass(i));
    const PassOutput& out = steady.back();
    print_pass(i, t.seconds(), out);
    report.check(out.objective == series.first.objective,
                 "pass " + std::to_string(i) +
                     " reproduces pass 0's objective bit-exactly");
    report.check(out.counts == series.first.counts,
                 "pass " + std::to_string(i) + " reproduces pass 0's counts");
  }
  series.steady_passes = static_cast<int>(steady.size());
  series.pass_s = sum_of_unit_medians(steady, &PassOutput::unit_s);
  series.work_per_s =
      steady.front().work / sum_of_unit_medians(steady, &PassOutput::work_s);
  return series;
}

UntracedPair run_untraced_pair(Report& report,
                               const std::function<PassOutput(int)>& pass) {
  UntracedPair out;
  const long f0 = minor_faults();
  const rlplan::Timer t0;
  out.first = pass(0);
  out.first_s = t0.seconds();
  const long f1 = minor_faults();
  const rlplan::Timer t1;
  out.base = pass(1);
  out.base_s = t1.seconds();
  const long f2 = minor_faults();
  print_pass(0, out.first_s, out.first);
  print_pass(1, out.base_s, out.base);
  report.check(out.base.objective == out.first.objective &&
                   out.base.counts == out.first.counts,
               "steady pass reproduces pass 0");
  report.set("cold.first_pass_s", out.first_s, "s");
  report.set("alloc.first_pass_faults", static_cast<double>(f1 - f0),
             "count");
  report.set("alloc.pass_faults", static_cast<double>(f2 - f1), "count");
  return out;
}

double time_setup(int runs, const std::function<void()>& setup) {
  std::vector<double> s;
  for (int i = 0; i < runs; ++i) {
    const rlplan::Timer t;
    setup();
    s.push_back(t.seconds());
  }
  return median(s);
}

namespace {

bool write_full(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// False on end of file or error before `size` bytes arrived.
bool read_full(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// In a freshly forked process: die with the parent, so no process of the
/// benchmark outlives it.
void die_with_parent(pid_t parent) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) _exit(1);
}

void set_error(LegRecord& rec, const std::string& what) {
  rec.ok = false;
  std::snprintf(rec.error, sizeof rec.error, "%s", what.c_str());
}

/// One pass in a child of the leg process; returns its record.
LegRecord fork_pass(const std::function<LegRecord()>& pass) {
  LegRecord rec;
  int fds[2];
  if (pipe(fds) != 0) {
    set_error(rec, "pipe failed");
    return rec;
  }
  const pid_t self = getpid();
  const pid_t child = fork();
  if (child == 0) {
    die_with_parent(self);
    close(fds[0]);
    LegRecord out;
    try {
      out = pass();
    } catch (const std::exception& e) {
      set_error(out, e.what());
    }
    _exit(write_full(fds[1], &out, sizeof out) ? 0 : 1);
  }
  close(fds[1]);
  const bool got = child > 0 && read_full(fds[0], &rec, sizeof rec);
  close(fds[0]);
  int status = 0;
  rusage usage{};
  if (child > 0) wait4(child, &status, 0, &usage);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    set_error(rec, "pass process failed");
  }
  rec.peak_rss_kb = usage.ru_maxrss;
  return rec;
}

}  // namespace

IsolatedRun run_isolated(int setup_runs, int min_passes, double seconds,
                         const std::function<void()>& setup,
                         const std::function<LegRecord()>& pass) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);  // the children leave with _exit, never flushing
  const pid_t self = getpid();
  const pid_t leg = fork();
  if (leg < 0) throw std::runtime_error("fork failed");
  if (leg == 0) {
    die_with_parent(self);
    close(fds[0]);
    double setup_s = -1.0;
    try {
      setup_s = time_setup(setup_runs, setup);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[e2ebench] set-up failed: %s\n", e.what());
    }
    if (!write_full(fds[1], &setup_s, sizeof setup_s) || setup_s < 0.0) {
      _exit(1);
    }
    const rlplan::Timer timer;
    for (int i = 0; i < min_passes || timer.seconds() < seconds; ++i) {
      const LegRecord rec = fork_pass(pass);
      if (!write_full(fds[1], &rec, sizeof rec)) _exit(1);
    }
    _exit(0);
  }
  close(fds[1]);
  IsolatedRun run;
  bool ok = read_full(fds[0], &run.setup_s, sizeof run.setup_s);
  for (LegRecord rec; ok && read_full(fds[0], &rec, sizeof rec);) {
    run.passes.push_back(rec);
  }
  close(fds[0]);
  int status = 0;
  waitpid(leg, &status, 0);
  ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
       static_cast<int>(run.passes.size()) >= min_passes;
  if (!ok) throw std::runtime_error("isolated leg process failed");
  return run;
}

std::string host_fingerprint() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::ostringstream out;
  out << "cpu=\"" << cpu << "\" nproc=" << std::thread::hardware_concurrency()
      << " simd=" << rlplan::util::simd_level_name(
                         rlplan::util::active_simd_level())
      << " build=" << E2EBENCH_BUILD_TYPE << " compiler=\"" << __VERSION__
      << "\"";
  return out.str();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) % 1000000007ULL + 1;
}

}  // namespace e2ebench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "<sa_anneal|rl_train|thermal_eval> --seed N --seconds S "
               "--trace <0|1>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace e2ebench;
  if (std::strcmp(E2EBENCH_BUILD_TYPE, "Release") != 0) {
    return usage("refusing to measure a non-Release build");
  }
  if (argc % 2 != 1) return usage("flags take one value each");
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }

  std::printf("# host %s\n", host_fingerprint().c_str());
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  try {
    if (args.workload == "sa_anneal") {
      run_sa_anneal(args, report);
    } else if (args.workload == "rl_train") {
      run_rl_train(args, report);
    } else if (args.workload == "thermal_eval") {
      run_thermal_eval(args, report);
    } else {
      return usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[e2ebench] workload failed: %s\n", e.what());
    return 1;
  }
  std::cout << report.table() << report.json() << std::endl;
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
