// perfbench — the repository's end-to-end benchmark driver.
//
//   perfbench --workload <converge-skew|flood-random|churn-observed>
//             --seed N --seconds S --trace <0|1> [--spans PATH]
//
// One run repeats whole rounds of a workload while another round fits in
// --seconds. A round generates the workload's inputs from the seed, constructs every
// system, and drives them to the end of a fixed schedule through the public
// PubSubSystem calls only. The last stdout line is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end figures (timings are medians
// over rounds); with --trace 1 the driver records a span around every call it
// makes into a layer and reports per-layer figures instead. Nothing inside the
// library is traced: the per-layer numbers come from those spans plus the
// library's own profiler(), parallel_phases() and memory_footprint().
//
// An operation is a system construction, a maintenance cycle, a publish or a
// churn event; an operation fails when its output fails a check against the
// benchmark's own recomputation (see README.md for the list).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "vitis.hpp"

namespace {

using namespace vitis;
using support::Phase;

using PhaseArray = std::array<support::PhaseStats, support::kPhaseCount>;

// Fixed denominator of the `deliveries` metric: the hit ratio is reported as
// deliveries per million expected (event, subscriber) pairs, so the figure
// does not move with how many subscribers a seed's schedule happens to hit.
constexpr double kDeliveriesPer = 1e6;

// Set-up runs this many times per round, each time from scratch; the round
// drives the systems of the last repetition. One set-up takes milliseconds,
// too little to time once.
constexpr std::size_t kSetupRepeats = 5;

// --- workload sizes ----------------------------------------------------------
// Sized so that one round takes 2-6 s and the rounds of one run agree within
// about 5%; README.md gives the make-up and size of each input.

struct ConvergeSkewSize {
  std::size_t nodes = 600;
  std::size_t topics = 300;
  std::size_t subs_per_node = 50;
  double rate_alpha = 0.7;
  std::size_t cycles = 40;
  std::size_t events = 2'000;
  std::size_t run_jobs = 2;
};

struct FloodRandomSize {
  std::size_t nodes = 600;
  std::size_t topics = 300;
  std::size_t subs_per_node = 50;
  std::size_t warmup_cycles = 15;
  std::size_t events = 4'000;
};

struct ChurnObservedSize {
  std::size_t universe = 2'000;
  std::size_t topics = 300;
  std::size_t subs_per_node = 20;
  double hours = 48.0;
  std::size_t cycles_per_hour = 2;
  std::size_t warm_hours = 10;
  std::size_t sample_every = 5;
  std::size_t events_per_window = 300;
};

// --- options ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

bool parse_options(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0') return false;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 3600.0) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !options.workload.empty();
}

// --- statistics ------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

// --- tracing -----------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index of the enclosing span, -1 for a root
  std::uint64_t op;     // operation id; 0 for spans that group operations
};

// Owns the run's operation accounting and, in traced mode, the span log.
class Bench {
 public:
  explicit Bench(bool trace) : trace_(trace) {}

  [[nodiscard]] bool tracing() const { return trace_; }

  /// Starts a new operation and returns its id.
  std::uint64_t begin_op() { return ++attempted_; }

  /// Records the outcome of one operation's (or window's) output checks.
  void check(bool ok, const char* what) {
    if (ok) return;
    if (++failed_ <= 10) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", what);
    }
  }

  /// A cross-round or cross-mode identity that must hold for the run's
  /// figures to be trusted at all (not an operation outcome).
  void require(bool ok, const char* what) {
    if (ok) return;
    consistent_ = false;
    std::fprintf(stderr, "perfbench: inconsistent: %s\n", what);
  }

  /// Runs `body` inside a span and returns its wall time in seconds.
  template <typename Body>
  double time(const char* name, std::uint64_t op, Body&& body) {
    const std::int64_t start = support::monotonic_ns();
    std::int32_t id = -1;
    if (trace_) {
      id = static_cast<std::int32_t>(spans_.size());
      spans_.push_back(
          Span{name, start, 0, stack_.empty() ? -1 : stack_.back(), op});
      stack_.push_back(id);
    }
    body();
    const std::int64_t end = support::monotonic_ns();
    if (id >= 0) {
      spans_[static_cast<std::size_t>(id)].end_ns = end;
      stack_.pop_back();
    }
    return static_cast<double>(end - start) * 1e-9;
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool consistent() const { return consistent_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool trace_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool consistent_ = true;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

// --- placement ---------------------------------------------------------------

// On a shared host each vCPU's speed for cache-bound code moves by up to half,
// independently of the other vCPUs and for seconds at a time, as other
// tenants load its physical core. Before every round, and between the
// systems a round drives, the driver times a cache-bound probe on each vCPU
// it may use and pins itself to the fastest ones; the worker threads a
// round's engine starts inherit that set.
class Placement {
 public:
  Placement() : table_(kTableWords) {
    for (std::size_t i = 0; i < table_.size(); ++i) {
      table_[i] = static_cast<std::uint32_t>(i * 2654435761U);
    }
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) {
      CPU_ZERO(&allowed_);
    }
  }

  /// Pins the calling thread to the `count` allowed vCPUs on which the probe
  /// ran fastest; returns them, or nothing when there is no choice to make.
  std::vector<int> pin_fastest(std::size_t count) {
    std::vector<std::pair<std::int64_t, int>> speed;  // (probe ns, vCPU)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof one, &one) == 0) {
        speed.emplace_back(probe_ns(), cpu);
      }
    }
    if (speed.size() <= count) {
      sched_setaffinity(0, sizeof allowed_, &allowed_);
      return {};
    }
    std::sort(speed.begin(), speed.end());
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    std::vector<int> cpus;
    for (std::size_t i = 0; i < count; ++i) {
      CPU_SET(speed[i].second, &chosen);
      cpus.push_back(speed[i].second);
    }
    sched_setaffinity(0, sizeof chosen, &chosen);
    return cpus;
  }

 private:
  // 1 MiB: resident in one core's L2, so the probe sees what shares that core.
  static constexpr std::size_t kTableWords = std::size_t{1} << 18;
  static constexpr int kProbeReads = 400'000;

  /// Random reads over the table on the current vCPU, after one sequential
  /// pass that brings the table into its caches.
  std::int64_t probe_ns() {
    std::uint64_t sum = 0;
    for (const std::uint32_t word : table_) sum += word;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    const std::int64_t start = support::monotonic_ns();
    for (int i = 0; i < kProbeReads; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sum += table_[(x ^ sum) & (kTableWords - 1)];
    }
    const std::int64_t elapsed = support::monotonic_ns() - start;
    sink_ += sum;
    return elapsed;
  }

  std::vector<std::uint32_t> table_;
  cpu_set_t allowed_;
  std::uint64_t sink_ = 0;  // keeps the probe's reads from being optimised out
};

// --- the benchmark's own model of the driven population ----------------------

// Alive set and join cycles as the benchmark drove them; `expected` of every
// publication is recomputed from this and the benchmark's copy of the
// subscription table, never read back from the system.
class Population {
 public:
  Population(std::size_t nodes, bool online)
      : alive_(nodes, online ? 1 : 0),
        join_cycle_(nodes, 0),
        alive_count_(online ? nodes : 0) {}

  void join(ids::NodeIndex node) {
    if (alive_[node] != 0) return;
    alive_[node] = 1;
    join_cycle_[node] = cycle_;
    ++alive_count_;
  }
  void leave(ids::NodeIndex node) {
    if (alive_[node] == 0) return;
    alive_[node] = 0;
    --alive_count_;
  }
  void advance_cycle() { ++cycle_; }

  [[nodiscard]] std::size_t alive_count() const { return alive_count_; }
  [[nodiscard]] bool is_alive(ids::NodeIndex node) const {
    return alive_[node] != 0;
  }

  /// Alive subscribers of `topic` other than the publisher that are past
  /// their join grace at the current cycle.
  [[nodiscard]] std::size_t expected(const pubsub::SubscriptionTable& table,
                                     ids::TopicIndex topic,
                                     ids::NodeIndex publisher,
                                     std::size_t grace) const {
    std::size_t count = 0;
    for (const ids::NodeIndex s : table.subscribers(topic)) {
      if (s == publisher || alive_[s] == 0) continue;
      if (join_cycle_[s] + grace <= cycle_) ++count;
    }
    return count;
  }

 private:
  std::vector<char> alive_;
  std::vector<std::size_t> join_cycle_;
  std::size_t alive_count_;
  std::size_t cycle_ = 0;
};

// --- per-system accounting -------------------------------------------------

enum class Kind { kVitis, kRvr, kOpt };

struct SystemRun {
  Kind kind = Kind::kVitis;
  std::size_t nodes = 0;
  std::vector<double> build_s;  // one per set-up repetition
  // Timed calls.
  std::size_t cycles = 0;
  double cycles_s = 0.0;
  std::vector<double> cycle_ms;
  std::size_t publishes = 0;
  double publish_s = 0.0;
  std::vector<double> publish_us;
  std::vector<double> join_us;
  std::vector<double> leave_us;
  // Deterministic outputs.
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delay_sum = 0;
  std::uint64_t messages = 0;
  std::uint64_t uninterested = 0;
  std::vector<double> window_hits;
  // Read from the library after the system's last call.
  PhaseArray phases{};
  double phase_ms_in_cycles = 0.0;  // traced mode: profiled inside run_cycles
  std::array<std::uint64_t, support::kCounterCount> counters{};
  double barrier_wait_ms = 0.0;
  std::size_t footprint = 0;
};

struct Round {
  // One entry per set-up repetition.
  std::vector<double> setup_s;
  std::vector<double> scenario_s;
  std::vector<double> trace_s;
  double run_s = 0.0;
  std::vector<SystemRun> systems;
};

template <typename Make>
auto construct(Bench& bench, SystemRun& run, const char* span,
               std::size_t alive, Make&& make) {
  const std::uint64_t op = bench.begin_op();
  decltype(make()) system;
  run.build_s.push_back(bench.time(span, op, [&] { system = make(); }));
  bench.check(system->alive_count() == alive, "construction: alive count");
  run.nodes = system->subscriptions().node_count();
  return system;
}

void run_cycle(Bench& bench, pubsub::PubSubSystem& system, SystemRun& run,
               Population& population) {
  const std::uint64_t op = bench.begin_op();
  const auto profiled_ms = [&] {
    double ms = 0.0;
    for (const auto& phase : system.profiler()->all()) {
      ms += static_cast<double>(phase.wall_ns) * 1e-6;
    }
    return ms;
  };
  const double before_ms = bench.tracing() ? profiled_ms() : 0.0;
  const double s =
      bench.time("sim.run_cycles", op, [&] { system.run_cycles(1); });
  if (bench.tracing()) run.phase_ms_in_cycles += profiled_ms() - before_ms;
  population.advance_cycle();
  ++run.cycles;
  run.cycles_s += s;
  run.cycle_ms.push_back(s * 1e3);
  bench.check(system.alive_count() == population.alive_count(),
              "cycle: alive count");
}

/// Publishes `schedule` as one measurement window and returns the window's
/// hit ratio.
double publish_window(Bench& bench, pubsub::PubSubSystem& system,
                      SystemRun& run, const Population& population,
                      const pubsub::SubscriptionTable& table,
                      std::span<const pubsub::Publication> schedule,
                      std::size_t grace) {
  system.metrics().reset();
  std::uint64_t messages = 0;
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  for (const auto& [topic, publisher] : schedule) {
    const std::uint64_t op = bench.begin_op();
    pubsub::DisseminationReport report;
    const double s = bench.time("pubsub.publish", op, [&] {
      report = system.publish(topic, publisher);
    });
    ++run.publishes;
    run.publish_s += s;
    run.publish_us.push_back(s * 1e6);
    const std::size_t want =
        population.expected(table, topic, publisher, grace);
    bench.check(report.topic == topic && report.publisher == publisher &&
                    report.expected == want &&
                    report.delivered <= report.expected &&
                    report.delay_sum >= report.delivered &&
                    report.messages >= report.delivered,
                "publication report");
    messages += report.messages;
    expected += report.expected;
    delivered += report.delivered;
    run.delay_sum += report.delay_sum;
  }
  const pubsub::MetricsCollector& collector = system.metrics();
  bench.check(messages == collector.total_messages(),
              "window: report messages == collector total_messages()");
  if (run.kind == Kind::kOpt) {
    bench.check(collector.uninterested_messages() == 0,
                "window: OPT received uninterested messages");
  }
  run.messages += messages;
  run.expected += expected;
  run.delivered += delivered;
  run.uninterested += collector.uninterested_messages();
  return expected == 0 ? 1.0
                       : static_cast<double>(delivered) /
                             static_cast<double>(expected);
}

/// Reads the library's own accounting after the system's last call.
void finish(SystemRun& run, const pubsub::PubSubSystem& system) {
  const support::Profiler* profiler = system.profiler();
  run.phases = profiler->all();
  run.counters = profiler->counters();
  for (const auto& stage : system.parallel_phases()) {
    // Each worker waits for the stage's span minus its own busy time.
    const auto workers = static_cast<double>(
        std::max<std::size_t>(1, stage.worker_busy_ms.size()));
    run.barrier_wait_ms +=
        std::max(0.0, stage.span_ms * workers - stage.busy_ms);
  }
  run.footprint = system.memory_footprint();
}

double hit_ratio(const SystemRun& run) {
  return run.expected == 0 ? 1.0
                           : static_cast<double>(run.delivered) /
                                 static_cast<double>(run.expected);
}
double overhead(const SystemRun& run) {
  return ratio(run.uninterested, run.messages);
}
double delay(const SystemRun& run) {
  return ratio(run.delay_sum, run.delivered);
}

// --- workloads ---------------------------------------------------------------

// Vitis alone from a cold start through convergence, then one publication
// window; low-correlation subscriptions and power-law rates engage the
// pairwise-utility memo, and the engine shards over `run_jobs` workers.
Round converge_skew(Bench& bench, std::uint64_t seed, std::size_t run_jobs) {
  const ConvergeSkewSize size;
  Round round;
  round.systems.resize(1);
  SystemRun& run = round.systems[0];
  run.kind = Kind::kVitis;
  std::optional<workload::SyntheticScenario> scenario;
  std::unique_ptr<core::VitisSystem> system;
  core::VitisConfig config;
  config.run_jobs = run_jobs;

  const auto setup = [&] {
    round.scenario_s.push_back(bench.time("workload.scenario", 0, [&] {
      workload::SyntheticScenarioParams params;
      params.subscriptions.nodes = size.nodes;
      params.subscriptions.topics = size.topics;
      params.subscriptions.subs_per_node = size.subs_per_node;
      params.subscriptions.pattern =
          workload::CorrelationPattern::kLowCorrelation;
      params.rate_alpha = size.rate_alpha;
      params.events = size.events;
      params.seed = seed;
      scenario.emplace(workload::make_synthetic_scenario(params));
    }));
    system = construct(bench, run, "core.build", size.nodes, [&] {
      return workload::make_vitis(*scenario, config, seed);
    });
  };
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    system.reset();
    scenario.reset();
    round.setup_s.push_back(bench.time("setup", 0, setup));
  }

  round.run_s = bench.time("run", 0, [&] {
    Population population(size.nodes, true);
    for (std::size_t c = 0; c < size.cycles; ++c) {
      run_cycle(bench, *system, run, population);
    }
    (void)publish_window(bench, *system, run, population,
                         scenario->subscriptions, scenario->schedule,
                         config.join_grace_cycles);
  });
  finish(run, *system);

  bench.check(hit_ratio(run) >= 0.99, "converge-skew: Vitis hit ratio >= 0.99");
  return round;
}

// Vitis, RVR and OPT over one random-subscription, uniform-rate scenario with
// one shared schedule (the paper's Fig. 5 comparison). `place` re-runs the
// vCPU placement between the systems' drives, outside run_s.
Round flood_random(Bench& bench, std::uint64_t seed,
                   const std::function<void()>& place) {
  const FloodRandomSize size;
  Round round;
  round.systems.resize(3);
  round.systems[0].kind = Kind::kVitis;
  round.systems[1].kind = Kind::kRvr;
  round.systems[2].kind = Kind::kOpt;
  std::optional<workload::SyntheticScenario> scenario;
  std::unique_ptr<core::VitisSystem> vitis;
  std::unique_ptr<baselines::rvr::RvrSystem> rvr;
  std::unique_ptr<baselines::opt::OptSystem> opt;
  const core::VitisConfig vitis_config;
  const baselines::rvr::RvrConfig rvr_config;
  const baselines::opt::OptConfig opt_config;

  const auto setup = [&] {
    round.scenario_s.push_back(bench.time("workload.scenario", 0, [&] {
      workload::SyntheticScenarioParams params;
      params.subscriptions.nodes = size.nodes;
      params.subscriptions.topics = size.topics;
      params.subscriptions.subs_per_node = size.subs_per_node;
      params.subscriptions.pattern = workload::CorrelationPattern::kRandom;
      params.events = size.events;
      params.seed = seed;
      scenario.emplace(workload::make_synthetic_scenario(params));
    }));
    vitis = construct(bench, round.systems[0], "core.build", size.nodes, [&] {
      return workload::make_vitis(*scenario, vitis_config, seed);
    });
    rvr = construct(bench, round.systems[1], "baselines.build", size.nodes,
                    [&] {
                      return workload::make_rvr(*scenario, rvr_config, seed);
                    });
    opt = construct(bench, round.systems[2], "baselines.build", size.nodes,
                    [&] {
                      return workload::make_opt(*scenario, opt_config, seed);
                    });
  };
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    opt.reset();
    rvr.reset();
    vitis.reset();
    scenario.reset();
    round.setup_s.push_back(bench.time("setup", 0, setup));
  }

  const std::array<pubsub::PubSubSystem*, 3> systems{vitis.get(), rvr.get(),
                                                     opt.get()};
  const std::array<std::size_t, 3> graces{vitis_config.join_grace_cycles,
                                          rvr_config.base.join_grace_cycles,
                                          opt_config.base.join_grace_cycles};
  for (std::size_t i = 0; i < systems.size(); ++i) {
    if (i > 0) place();
    round.run_s += bench.time("run", 0, [&] {
      Population population(size.nodes, true);
      for (std::size_t c = 0; c < size.warmup_cycles; ++c) {
        run_cycle(bench, *systems[i], round.systems[i], population);
      }
      (void)publish_window(bench, *systems[i], round.systems[i], population,
                           scenario->subscriptions, scenario->schedule,
                           graces[i]);
    });
  }
  for (std::size_t i = 0; i < systems.size(); ++i) {
    finish(round.systems[i], *systems[i]);
  }

  const SystemRun& v = round.systems[0];
  const SystemRun& r = round.systems[1];
  bench.check(overhead(v) < overhead(r) && delay(v) < delay(r),
              "flood-random: Vitis overhead and delay below RVR's");
  return round;
}

// A precomputed publication window of the churn workload.
struct ChurnWindow {
  std::size_t hour = 0;
  std::vector<pubsub::Publication> schedule;
};

// Vitis and RVR replay one Skype-like churn trace with the flight recorder
// and its invariant monitors on; windows publish from alive subscribers.
// `place` re-runs the vCPU placement between the two replays, outside run_s.
Round churn_observed(Bench& bench, std::uint64_t seed,
                     const std::function<void()>& place) {
  const ChurnObservedSize size;
  const auto total_hours = static_cast<std::size_t>(size.hours);
  const auto flash_hour = total_hours / 2;
  // As in the Fig. 12 bench: one cycle per hour (sampled mid-absorption)
  // around the flash crowd, cycles_per_hour elsewhere.
  const auto near_flash = [&](std::size_t hour) {
    return hour + 2 >= flash_hour && hour <= flash_hour + 10;
  };
  const auto burst = [&](std::size_t hour) {
    return near_flash(hour) ? std::size_t{1} : size.cycles_per_hour;
  };
  std::size_t total_cycles = 0;
  for (std::size_t h = 0; h < total_hours; ++h) total_cycles += burst(h);

  Round round;
  round.systems.resize(2);
  round.systems[0].kind = Kind::kVitis;
  round.systems[1].kind = Kind::kRvr;
  sim::ChurnTrace trace;
  std::optional<workload::SyntheticScenario> scenario;
  std::vector<ChurnWindow> windows;
  std::unique_ptr<core::VitisSystem> vitis;
  std::unique_ptr<baselines::rvr::RvrSystem> rvr;
  const core::VitisConfig vitis_config;
  baselines::rvr::RvrConfig rvr_config;
  rvr_config.tree_refresh_interval = 2;  // Scribe repairs aggressively
  support::RecorderConfig recorder;
  recorder.enabled = true;
  recorder.invariants = true;
  recorder.trace_rate = 0.05;
  recorder.expected_cycles = total_cycles;
  // The figure benches' default stride: about 16 samples per run.
  recorder.stride = std::max<std::size_t>(1, total_cycles / 16);

  const auto setup = [&] {
    round.scenario_s.push_back(bench.time("workload.scenario", 0, [&] {
      workload::SyntheticScenarioParams params;
      params.subscriptions.nodes = size.universe;
      params.subscriptions.topics = size.topics;
      params.subscriptions.subs_per_node = size.subs_per_node;
      params.subscriptions.pattern =
          workload::CorrelationPattern::kLowCorrelation;
      params.events = 0;
      params.seed = seed;
      scenario.emplace(workload::make_synthetic_scenario(params));
    }));
    round.trace_s.push_back(bench.time("workload.trace", 0, [&] {
      workload::SkypeChurnParams churn;
      churn.nodes = size.universe;
      churn.duration_hours = size.hours;
      churn.flash_crowd_time_hours = static_cast<double>(flash_hour);
      churn.flash_crowd_size = size.universe / 6;
      churn.flash_crowd_spread_hours = 0.25;
      churn.flash_crowd_stay_hours = 40.0;
      sim::Rng rng(seed);
      trace = workload::make_skype_churn(churn, rng);
      // Window schedules: replay the trace into an alive bitmap and draw
      // each window's publishers among the subscribers alive at its hour.
      Population alive(size.universe, false);
      std::size_t next = 0;
      sim::Rng pub_rng(seed ^ 0x70756273ULL);
      const auto& events = trace.events();
      for (std::size_t hour = 0; hour < total_hours; ++hour) {
        const double until = static_cast<double>(hour + 1) * 3600.0;
        for (; next < events.size() && events[next].time_s < until; ++next) {
          if (events[next].join) {
            alive.join(events[next].node);
          } else {
            alive.leave(events[next].node);
          }
        }
        if (hour >= size.warm_hours &&
            (hour % size.sample_every == 0 || near_flash(hour)) &&
            alive.alive_count() > 20) {
          windows.push_back(ChurnWindow{
              hour, workload::make_schedule(
                        scenario->subscriptions, scenario->rates,
                        size.events_per_window, pub_rng,
                        [&](ids::NodeIndex n) { return alive.is_alive(n); })});
        }
      }
    }));
    vitis = construct(bench, round.systems[0], "core.build", 0, [&] {
      return workload::make_vitis(*scenario, vitis_config, seed, false);
    });
    vitis->configure_recorder(recorder);
    rvr = construct(bench, round.systems[1], "baselines.build", 0, [&] {
      return workload::make_rvr(*scenario, rvr_config, seed, false);
    });
    rvr->configure_recorder(recorder);
  };
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    rvr.reset();
    vitis.reset();
    scenario.reset();
    windows.clear();
    round.setup_s.push_back(bench.time("setup", 0, setup));
  }

  const auto replay = [&](auto& system, SystemRun& run, std::size_t grace) {
    Population population(size.universe, false);
    const auto& events = trace.events();
    std::size_t next = 0;
    std::size_t window = 0;
    for (std::size_t hour = 0; hour < total_hours; ++hour) {
      const double until = static_cast<double>(hour + 1) * 3600.0;
      for (; next < events.size() && events[next].time_s < until; ++next) {
        const sim::ChurnEvent& e = events[next];
        const std::uint64_t op = bench.begin_op();
        const double s = bench.time(
            e.join ? "workload.join" : "workload.leave", op, [&] {
              if (e.join) {
                system.node_join(e.node);
              } else {
                system.node_leave(e.node);
              }
            });
        if (e.join) {
          population.join(e.node);
          run.join_us.push_back(s * 1e6);
        } else {
          population.leave(e.node);
          run.leave_us.push_back(s * 1e6);
        }
        bench.check(system.alive_count() == population.alive_count(),
                    "churn event: alive count");
      }
      for (std::size_t b = 0; b < burst(hour); ++b) {
        run_cycle(bench, system, run, population);
      }
      if (window < windows.size() && windows[window].hour == hour) {
        run.window_hits.push_back(
            publish_window(bench, system, run, population,
                           scenario->subscriptions, windows[window].schedule,
                           grace));
        ++window;
      }
    }
  };
  round.run_s = bench.time("run", 0, [&] {
    replay(*vitis, round.systems[0], vitis_config.join_grace_cycles);
  });
  place();
  round.run_s += bench.time("run", 0, [&] {
    replay(*rvr, round.systems[1], rvr_config.base.join_grace_cycles);
  });
  finish(round.systems[0], *vitis);
  finish(round.systems[1], *rvr);

  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  bench.check(mean(round.systems[0].window_hits) >=
                  mean(round.systems[1].window_hits),
              "churn-observed: Vitis mean window hit ratio >= RVR's");
  return round;
}

// --- figures ---------------------------------------------------------------

struct Totals {
  std::size_t cycles = 0;
  double cycles_s = 0.0;
  std::size_t publishes = 0;
  double publish_s = 0.0;
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delay_sum = 0;
  std::uint64_t messages = 0;
  std::uint64_t uninterested = 0;
};

Totals totals(const Round& round) {
  Totals t;
  for (const SystemRun& run : round.systems) {
    t.cycles += run.cycles;
    t.cycles_s += run.cycles_s;
    t.publishes += run.publishes;
    t.publish_s += run.publish_s;
    t.expected += run.expected;
    t.delivered += run.delivered;
    t.delay_sum += run.delay_sum;
    t.messages += run.messages;
    t.uninterested += run.uninterested;
  }
  return t;
}

/// The deterministic outputs of a round, with its profiler call counts and
/// counters: identical in every round of a run, and between the run_jobs 1
/// and run_jobs 2 engines.
std::vector<std::uint64_t> fingerprint(const Round& round) {
  std::vector<std::uint64_t> out;
  for (const SystemRun& run : round.systems) {
    out.insert(out.end(), {run.expected, run.delivered, run.delay_sum,
                           run.messages, run.uninterested, run.publishes,
                           run.cycles, run.footprint});
    for (const auto& phase : run.phases) out.push_back(phase.calls);
    out.insert(out.end(), run.counters.begin(), run.counters.end());
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Metrics end_to_end(const std::vector<Round>& rounds) {
  std::vector<double> setup, run, cps, pps;
  for (const Round& round : rounds) {
    const Totals t = totals(round);
    append(setup, round.setup_s);
    run.push_back(round.run_s);
    cps.push_back(ratio(static_cast<double>(t.cycles), t.cycles_s));
    pps.push_back(ratio(static_cast<double>(t.publishes), t.publish_s));
  }
  const Totals t = totals(rounds.front());
  return {
      {"setup_s", median(setup), "s"},
      {"run_s", median(run), "s"},
      {"cycles_per_s", median(cps), "1/s"},
      {"publish_per_s", median(pps), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"deliveries", kDeliveriesPer * ratio(t.delivered, t.expected), "count"},
      {"relay_msgs_per_pub", ratio(t.uninterested, t.publishes), "msgs"},
      {"delay_hops", ratio(t.delay_sum, t.delivered), "hops"},
  };
}

double phase_ms(const SystemRun& run, Phase phase) {
  const auto& stats = run.phases[static_cast<std::size_t>(phase)];
  return static_cast<double>(stats.wall_ns) * 1e-6;
}
double phase_calls(const SystemRun& run, Phase phase) {
  const auto& stats = run.phases[static_cast<std::size_t>(phase)];
  return static_cast<double>(stats.calls);
}

// One round's per-layer figures, in BENCHMARK.json's order.
Metrics per_layer_round(const Round& round, double serial_cycle_ms) {
  double core_build = 0, baselines_build = 0, unattributed = 0, barrier = 0;
  double sampling = 0, tman = 0, routing = 0, routing_calls = 0;
  double observe = 0, observe_calls = 0, rvr_tree = 0, opt_ranking = 0;
  double ranking = 0, ranking_calls = 0, election = 0, relay = 0, delivery = 0;
  double hits = 0, misses = 0, footprint_kib = 0;
  std::vector<double> cycle_ms, publish_us, baseline_publish_us, join_us,
      leave_us;
  std::uint64_t messages = 0;
  std::size_t publishes = 0;
  for (const SystemRun& run : round.systems) {
    (run.kind == Kind::kVitis ? core_build : baselines_build) +=
        median(run.build_s) * 1e3;
    unattributed += run.cycles_s * 1e3 - run.phase_ms_in_cycles;
    barrier += run.barrier_wait_ms;
    sampling += phase_ms(run, Phase::kSampling);
    tman += phase_ms(run, Phase::kTman);
    routing += phase_ms(run, Phase::kRouting);
    routing_calls += phase_calls(run, Phase::kRouting);
    observe += phase_ms(run, Phase::kObserve);
    observe_calls += phase_calls(run, Phase::kObserve);
    append(cycle_ms, run.cycle_ms);
    append(publish_us, run.publish_us);
    append(join_us, run.join_us);
    append(leave_us, run.leave_us);
    messages += run.messages;
    publishes += run.publishes;
    switch (run.kind) {
      case Kind::kVitis:
        ranking += phase_ms(run, Phase::kRanking);
        ranking_calls += phase_calls(run, Phase::kRanking);
        election += phase_ms(run, Phase::kElection);
        relay += phase_ms(run, Phase::kRelay);
        delivery += phase_ms(run, Phase::kDelivery);
        hits += static_cast<double>(run.counters[static_cast<std::size_t>(
            support::Counter::kUtilityCacheHits)]);
        misses += static_cast<double>(run.counters[static_cast<std::size_t>(
            support::Counter::kUtilityCacheMisses)]);
        footprint_kib = static_cast<double>(run.footprint) /
                        static_cast<double>(run.nodes) / 1024.0;
        break;
      case Kind::kRvr:
        rvr_tree += phase_ms(run, Phase::kRelay);
        append(baseline_publish_us, run.publish_us);
        break;
      case Kind::kOpt:
        opt_ranking += phase_ms(run, Phase::kRanking);
        append(baseline_publish_us, run.publish_us);
        break;
    }
  }
  return {
      {"workload.scenario_ms", median(round.scenario_s) * 1e3, "ms"},
      {"workload.trace_ms", median(round.trace_s) * 1e3, "ms"},
      {"core.build_ms", core_build, "ms"},
      {"baselines.build_ms", baselines_build, "ms"},
      {"sim.cycle_ms_p50", percentile(cycle_ms, 0.5), "ms"},
      {"sim.cycle_ms_p90", percentile(cycle_ms, 0.9), "ms"},
      {"sim.unattributed_ms", unattributed, "ms"},
      {"sim.barrier_wait_ms", barrier, "ms"},
      {"sim.cycle_ms_p50_serial", serial_cycle_ms, "ms"},
      {"gossip.sampling_ms", sampling, "ms"},
      {"gossip.tman_ms", tman, "ms"},
      {"core.ranking_ms", ranking, "ms"},
      {"core.ranking_calls", ranking_calls, "count"},
      {"core.utility_cache_hits", hits, "count"},
      {"core.utility_cache_misses", misses, "count"},
      {"core.utility_cache_hit_share", ratio(hits, hits + misses), "ratio"},
      {"core.election_ms", election, "ms"},
      {"core.relay_ms", relay, "ms"},
      {"overlay.routing_ms", routing, "ms"},
      {"overlay.routing_calls", routing_calls, "count"},
      {"core.delivery_ms", delivery, "ms"},
      {"pubsub.publish_us_p50", percentile(publish_us, 0.5), "us"},
      {"pubsub.publish_us_p99", percentile(publish_us, 0.99), "us"},
      {"pubsub.msgs_per_pub", ratio(messages, publishes), "msgs"},
      {"core.footprint_kib_per_node", footprint_kib, "KiB"},
      {"support.observe_ms", observe, "ms"},
      {"support.observe_calls", observe_calls, "count"},
      {"workload.join_us_p50", percentile(join_us, 0.5), "us"},
      {"workload.leave_us_p50", percentile(leave_us, 0.5), "us"},
      {"workload.churn_events",
       static_cast<double>(join_us.size() + leave_us.size()), "count"},
      {"baselines.rvr.tree_ms", rvr_tree, "ms"},
      {"baselines.opt.ranking_ms", opt_ranking, "ms"},
      {"baselines.publish_us_p50", percentile(baseline_publish_us, 0.5), "us"},
      {"bench.traced_run_s", round.run_s, "s"},
  };
}

/// Per-layer figures: the median of each over the run's rounds.
Metrics per_layer(const std::vector<Round>& rounds, double serial_cycle_ms) {
  std::vector<Metrics> each;
  for (const Round& round : rounds) {
    each.push_back(per_layer_round(round, serial_cycle_ms));
  }
  Metrics out = each.front();
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const Metrics& metrics : each) values.push_back(metrics[m].value);
    out[m].value = median(values);
  }
  return out;
}

// --- output ----------------------------------------------------------------

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

void print_result(const Bench& bench, const Metrics& metrics) {
  std::string line = "{\"correct\": ";
  line += bench.consistent() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(bench.attempted());
  line += ", \"failed\": " + std::to_string(bench.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// Self time per span name (duration minus the part its direct children
/// cover) to stderr, and the span log to `path` as JSON lines.
void report_spans(const std::vector<Span>& spans, const std::string& path) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  struct Row {
    std::size_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Row& row = rows[spans[i].name];
    ++row.count;
    row.total_ns += spans[i].end_ns - spans[i].start_ns;
    row.self_ns += spans[i].end_ns - spans[i].start_ns - child_ns[i];
  }
  std::fprintf(stderr, "%-20s %10s %12s %12s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [name, row] : rows) {
    std::fprintf(stderr, "%-20s %10zu %12.3f %12.3f\n", name.c_str(),
                 row.count,
                 static_cast<double>(row.total_ns) * 1e-6,
                 static_cast<double>(row.self_ns) * 1e-6);
  }
  if (path.empty()) return;
  std::ofstream out(path);
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns - origin
        << ",\"end_ns\":" << span.end_ns - origin
        << ",\"parent\":" << span.parent << ",\"op\":" << span.op << "}\n";
  }
  if (!out) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_options(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <converge-skew|flood-random|"
                 "churn-observed> --seed N --seconds S --trace <0|1> "
                 "[--spans PATH]\n");
    return 2;
  }
  // Wall times compare only between runs of the same build on one host.
  std::fprintf(stderr, "perfbench: nproc %u, kernel ISA %s, compiler %s, %s\n",
               std::thread::hardware_concurrency(),
#if defined(VITIS_SIMD_AVX2)
               "avx2",
#else
               "scalar",
#endif
               __VERSION__,
#if defined(NDEBUG)
               "NDEBUG build");
#else
               "assertions on");
#endif

  Bench bench(options.trace);
  Placement placement;
  std::size_t threads = 1;  // threads a round keeps busy
  std::vector<int> cpus;    // the latest placement
  const std::function<void()> place = [&] {
    cpus = placement.pin_fastest(threads);
  };
  std::function<Round()> round_once;
  if (options.workload == "converge-skew") {
    threads = ConvergeSkewSize{}.run_jobs;
    round_once = [&] {
      return converge_skew(bench, options.seed, ConvergeSkewSize{}.run_jobs);
    };
  } else if (options.workload == "flood-random") {
    round_once = [&] { return flood_random(bench, options.seed, place); };
  } else if (options.workload == "churn-observed") {
    round_once = [&] {
      return churn_observed(bench, options.seed, place);
    };
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 options.workload.c_str());
    return 2;
  }

  // Whole rounds while another one fits in the time budget (judged by the
  // last round's length); every round repeats the same operations, so the
  // deterministic outputs must repeat exactly.
  const std::int64_t start = support::monotonic_ns();
  const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  std::vector<Round> rounds;
  std::int64_t round_ns = 0;
  do {
    const std::int64_t round_start = support::monotonic_ns();
    place();
    rounds.push_back(round_once());
    round_ns = support::monotonic_ns() - round_start;
    std::string on;
    for (const int cpu : cpus) {
      on += ' ';
      on += std::to_string(cpu);
    }
    std::fprintf(stderr,
                 "perfbench: round %zu run_s %.4f setup_s %.5f vCPUs%s\n",
                 rounds.size(), rounds.back().run_s,
                 median(rounds.back().setup_s),
                 on.empty() ? " any" : on.c_str());
    bench.require(fingerprint(rounds.back()) == fingerprint(rounds.front()),
                  "deterministic outputs differ between rounds");
  } while (support::monotonic_ns() - start + round_ns <= budget_ns);

  for (const SystemRun& run : rounds.front().systems) {
    static constexpr const char* kNames[] = {"Vitis", "RVR", "OPT"};
    std::fprintf(stderr,
                 "perfbench: %-5s hit %.4f  overhead %.2f%%  delay %.3f hops  "
                 "%.1f msgs/pub\n",
                 kNames[static_cast<int>(run.kind)], hit_ratio(run),
                 100.0 * overhead(run), delay(run),
                 ratio(run.messages, run.publishes));
  }
  if (!options.trace) {
    print_result(bench, end_to_end(rounds));
    return 0;
  }

  // The single-threaded reference: the engine's documented property is that
  // run_jobs never changes a simulated output, call count or counter.
  double serial_cycle_ms = 0.0;
  if (options.workload == "converge-skew") {
    threads = 1;
    place();
    const Round serial = converge_skew(bench, options.seed, 1);
    bench.require(fingerprint(serial) == fingerprint(rounds.front()),
                  "run_jobs 1 and run_jobs 2 outputs differ");
    serial_cycle_ms = percentile(serial.systems[0].cycle_ms, 0.5);
  }

  report_spans(bench.spans(), options.spans_path);
  print_result(bench, per_layer(rounds, serial_cycle_ms));
  return 0;
}
