// CellFi benchmark binary: runs ONE workload in ONE mode in this process and
// prints one JSON line. run.py starts a fresh process per sample, so every
// timing includes the first-touch costs a user pays (README.md here).
//
//   cellfi_perfbench --workload W --mode M --seed N [--quick] [--shards K]
//
// Workloads (README.md "Workloads"): cellfi_256, fig9_web, paws_fleet.
// Modes:
//   setup   untraced public entry point (RunScenarioOn / RunChaosCampaign)
//           with the simulated interval cut off before the first event:
//           topology generation + build + teardown, no events.
//   full    the same entry point over the workload's whole interval.
//   traced  the workload re-composed from public calls, as harness.cc and
//           chaos_campaign.cc compose it, with steady_clock timers around
//           the calls into each layer. Its digest must equal `full`'s.
//
// Only the benchmark's own files take timings; src/ is not changed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cellfi/chaos/fault_plan.h"
#include "cellfi/chaos/fault_scheduler.h"
#include "cellfi/chaos/invariants.h"
#include "cellfi/common/rng.h"
#include "cellfi/common/simd.h"
#include "cellfi/core/cellfi_controller.h"
#include "cellfi/core/channel_selector.h"
#include "cellfi/lte/network.h"
#include "cellfi/obs/trace.h"
#include "cellfi/radio/environment.h"
#include "cellfi/radio/pathloss.h"
#include "cellfi/scenario/chaos_campaign.h"
#include "cellfi/scenario/harness.h"
#include "cellfi/scenario/report.h"
#include "cellfi/scenario/topology.h"
#include "cellfi/sim/event_queue.h"
#include "cellfi/tvws/paws.h"
#include "cellfi/tvws/paws_session.h"
#include "cellfi/tvws/paws_transport.h"
#include "cellfi/traffic/flow_tracker.h"
#include "cellfi/traffic/web_workload.h"

using namespace cellfi;
using namespace cellfi::scenario;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds this process has used so far, all threads. The end-to-end
/// times are CPU time: a run is single-threaded, and CPU time leaves out the
/// time other tenants of a shared host take from it.
double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Simulated end that stops a run before its first event, even one at
/// t = 0: the setup probe builds and tears down, and simulates nothing.
constexpr SimTime kBeforeFirstEvent = -1;

/// Sliced RunUntil step of the traced run.
constexpr SimTime kSlice = kMillisecond;

// --- Workload definitions -----------------------------------------------------

struct Options {
  std::string workload;
  std::string mode;
  std::uint64_t seed = 0;
  bool quick = false;
  int shards = 1;
};

/// Fig. 9 deployment constants (bench/fig9_common.h): suburban UHF
/// propagation, 5 MHz TDD config 4, 30 dBm APs, 20 dBm clients.
ScenarioConfig Fig9Config(int num_aps, int clients_per_ap, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.tech = Technology::kCellFi;
  cfg.workload = WorkloadKind::kBacklogged;
  cfg.propagation = PropagationKind::kSuburbanUhf;
  cfg.topology.area_m = 2000.0;
  cfg.topology.num_aps = num_aps;
  cfg.topology.clients_per_ap = clients_per_ap;
  cfg.topology.client_radius_m = 250.0;
  cfg.ap_power_dbm = 30.0;
  cfg.client_power_dbm = 20.0;
  cfg.lte_bandwidth = LteBandwidth::k5MHz;
  cfg.lte_tdd_config = 4;
  cfg.seed = seed;
  return cfg;
}

ScenarioConfig RfConfig(const Options& o) {
  if (o.workload == "cellfi_256") {
    // bench_scale's constant-density grid at 256 cells, with CellFi on.
    const int cells = o.quick ? 16 : 256;
    ScenarioConfig cfg = Fig9Config(cells, 3, o.seed);
    cfg.topology.area_m = 500.0 * std::sqrt(static_cast<double>(cells));
    cfg.enable_fading = false;
    cfg.warmup = 500 * kMillisecond;
    cfg.duration = (o.quick ? 1500 : 2000) * kMillisecond;
    cfg.shards = o.shards;
    cfg.shard_threads = o.shards;
    return cfg;
  }
  // fig9_web: Fig. 9(c)'s densest point, web flows, fading on.
  ScenarioConfig cfg = Fig9Config(o.quick ? 4 : 14, 6, o.seed);
  cfg.workload = WorkloadKind::kWeb;
  cfg.web.think_time_mean_s = 15.0;
  cfg.warmup = (o.quick ? 500 : 3000) * kMillisecond;
  cfg.duration = (o.quick ? 2 : 15) * kSecond;
  return cfg;
}

/// examples/chaos_campaign's plan over a 16-AP fleet: herd crash at 300 s,
/// database brownout at 390 s, incumbent on channel 14 at 550 s.
ChaosCampaignConfig PawsConfig(const Options& o) {
  ChaosCampaignConfig cfg;
  cfg.num_aps = o.quick ? 4 : 16;
  cfg.plan.name = "herd-brownout-churn";
  cfg.plan.seed = o.seed;
  cfg.plan.events.push_back({.kind = chaos::FaultKind::kApCrash, .time = 300 * kSecond});
  cfg.plan.events.push_back({.kind = chaos::FaultKind::kDbBrownout,
                             .time = 390 * kSecond,
                             .duration = 30 * kSecond,
                             .magnitude = 0.3,
                             .latency = 500 * kMillisecond});
  cfg.plan.events.push_back({.kind = chaos::FaultKind::kIncumbentArrive,
                             .time = 550 * kSecond,
                             .duration = 120 * kSecond,
                             .channel = 14});
  cfg.run_until = 800 * kSecond;
  return cfg;
}

// --- Output -------------------------------------------------------------------

/// Flat name -> number maps, printed as one JSON object per group.
struct Report {
  std::string digest;
  std::map<std::string, double> outputs;  // simulated outputs (checked)
  std::map<std::string, double> counts;   // deterministic work counts
  std::map<std::string, double> times;    // host seconds and derived stats
};

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void PrintGroup(const char* name, const std::map<std::string, double>& m) {
  std::printf(",\"%s\":{", name);
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", k.c_str(), v);
    first = false;
  }
  std::printf("}");
}

/// Peak resident set of this process image, MB. VmHWM, not getrusage's
/// ru_maxrss: the latter keeps the high-water mark of the process that
/// forked us across exec, so it would report the launcher's size.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

void Print(const Options& o, const Report& r) {
  std::printf("{\"workload\":\"%s\",\"mode\":\"%s\",\"seed\":%llu,\"shards\":%d,"
              "\"digest\":\"%s\",\"peak_rss_mb\":%.6f",
              o.workload.c_str(), o.mode.c_str(), static_cast<unsigned long long>(o.seed),
              o.shards, r.digest.c_str(), PeakRssMb());
  std::printf(",\"box\":{\"nproc\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\","
              "\"simd\":\"%s\"}",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, __VERSION__,
              simd::ActiveKernelName());
  PrintGroup("outputs", r.outputs);
  PrintGroup("counts", r.counts);
  PrintGroup("times", r.times);
  std::printf("}\n");
}

void RfOutputs(const ScenarioResult& res, Report& r) {
  r.digest = Hex(Fnv1a(ResultToJson(res).Dump()));
  r.outputs["throughput_mbps"] = res.total_throughput_bps / 1e6;
  r.outputs["connected_frac"] = res.fraction_connected;
  r.outputs["hops"] = static_cast<double>(res.im_total_hops);
  r.outputs["plt_median_s"] =
      res.page_load_times_s.empty() ? 0.0 : res.page_load_times_s.Median();
}

void PawsOutputs(const ChaosCampaignResult& res, Report& r) {
  r.digest = Hex(res.Digest());
  std::uint64_t confirms = 0;
  for (const ApOutcome& ap : res.aps) confirms += ap.lease_confirms.size();
  r.outputs["lease_confirms"] = static_cast<double>(confirms);
  r.outputs["violations"] = static_cast<double>(res.violations.size());
}

// --- Untraced modes -------------------------------------------------------------

/// setup / full: the public entry points, timed only from outside.
Report RunUntraced(const Options& o) {
  Report r;
  const bool setup_only = o.mode == "setup";
  const double cpu0 = ProcessCpuS();
  const Clock::time_point t0 = Clock::now();
  if (o.workload == "paws_fleet") {
    ChaosCampaignConfig cfg = PawsConfig(o);
    if (setup_only) cfg.run_until = kBeforeFirstEvent;
    const ChaosCampaignResult res = RunChaosCampaign(cfg);
    r.times["wall_s"] = Since(t0);
    r.times["cpu_s"] = ProcessCpuS() - cpu0;
    PawsOutputs(res, r);
  } else {
    ScenarioConfig cfg = RfConfig(o);
    if (setup_only) cfg.duration = kBeforeFirstEvent;
    Rng rng(cfg.seed);
    const Topology topo = GenerateTopology(cfg.topology, rng);
    const ScenarioResult res = RunScenarioOn(cfg, topo);
    r.times["wall_s"] = Since(t0);
    r.times["cpu_s"] = ProcessCpuS() - cpu0;
    RfOutputs(res, r);
  }
  return r;
}

// --- Traced modes ---------------------------------------------------------------

/// Accumulated host time of one wrapped call site, with optional per-call
/// samples for percentiles.
struct Span {
  double total_s = 0.0;
  std::uint64_t calls = 0;
  std::vector<float> samples_us;
  bool keep_samples = false;

  template <typename F>
  void Time(F&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    const double dt = Since(t0);
    total_s += dt;
    ++calls;
    if (keep_samples) samples_us.push_back(static_cast<float>(dt * 1e6));
  }
};

double Percentile(std::vector<float> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

/// Runs `sim` to `until` in kSlice steps, timing each slice. Returns the
/// per-slice samples (µs) and their sum.
Span RunSliced(Simulator& sim, SimTime until) {
  Span slices;
  slices.keep_samples = true;
  for (SimTime t = 0; t < until;) {
    t = std::min(until, t + kSlice);
    slices.Time([&] { sim.RunUntil(t); });
  }
  return slices;
}

void SliceStats(const Span& slices, Report& r) {
  r.counts["sim.steps"] = static_cast<double>(slices.calls);
  r.times["sim.step_p50_us"] = Percentile(slices.samples_us, 0.50);
  r.times["sim.step_p99_us"] = Percentile(slices.samples_us, 0.99);
  r.times["sim.step_max_ms"] =
      slices.samples_us.empty()
          ? 0.0
          : static_cast<double>(*std::max_element(slices.samples_us.begin(),
                                                  slices.samples_us.end())) / 1e3;
}

// Copied from harness.cc (anonymous namespace there): the propagation model
// and environment config RunLteBased builds for the Fig. 9 setting.
const PathLossModel& SuburbanUhf() {
  static const LogDistancePathLoss suburban(3.5, 1.0);
  return suburban;
}

RadioEnvironmentConfig EnvConfigFor(const ScenarioConfig& cfg) {
  RadioEnvironmentConfig c;
  c.carrier_freq_hz = 600e6;
  c.shadowing_sigma_db = cfg.shadowing_sigma_db;
  c.enable_fading = cfg.enable_fading;
  c.interference_floor_db = cfg.interference_floor_db;
  c.seed = cfg.seed ^ 0xE17E17E17ull;
  return c;
}

// Copied from harness.cc's Finalize.
void Finalize(ScenarioResult& result, const ScenarioConfig& cfg) {
  int connected = 0;
  int starved = 0;
  double total = 0.0;
  for (ClientOutcome& c : result.clients) {
    c.starved = c.throughput_bps < cfg.starvation_threshold_bps;
    if (c.attached && !c.starved) ++connected;
    if (c.starved) ++starved;
    total += c.throughput_bps;
    result.client_throughput_mbps.Add(c.throughput_bps / 1e6);
    for (double plt : c.page_load_times_s) result.page_load_times_s.Add(plt);
  }
  const double n = std::max<std::size_t>(result.clients.size(), 1);
  result.fraction_connected = connected / n;
  result.fraction_starved = starved / n;
  result.total_throughput_bps = total;
}

/// RunScenarioOn's LTE path for a CellFi workload without the oracle, the
/// aggregate tier or a chaos plan, with timers around every layer call.
/// The call order is harness.cc's, so the event schedule and the result
/// bytes are the same; run.py checks the digest.
Report RunTracedRf(const Options& o) {
  Report r;
  const ScenarioConfig cfg = RfConfig(o);
  const Clock::time_point setup_t0 = Clock::now();

  Span topology;
  Topology topo;
  topology.Time([&] {
    Rng rng(cfg.seed);
    topo = GenerateTopology(cfg.topology, rng);
  });

  Simulator sim;
  RadioEnvironment env(SuburbanUhf(), EnvConfigFor(cfg));
  lte::LteNetworkConfig net_cfg;
  net_cfg.use_interference_engine = cfg.use_interference_engine;
  net_cfg.shards = cfg.shards;
  net_cfg.shard_threads = cfg.shard_threads;
  net_cfg.seed = cfg.seed ^ 0x17;
  lte::LteNetwork net(sim, env, net_cfg);

  lte::LteMacConfig mac;
  mac.bandwidth = cfg.lte_bandwidth;
  mac.tdd_config = cfg.lte_tdd_config;

  Span add_node;
  Span lte_build;
  for (const Point& p : topo.aps) {
    RadioNodeId radio = 0;
    add_node.Time([&] {
      radio = env.AddNode({.position = p, .tx_power_dbm = cfg.ap_power_dbm});
    });
    lte_build.Time([&] { net.AddCell(mac, radio); });
  }
  std::vector<lte::UeId> ues;
  for (std::size_t u = 0; u < topo.clients.size(); ++u) {
    RadioNodeId radio = 0;
    add_node.Time([&] {
      radio = env.AddNode({.position = topo.clients[u], .tx_power_dbm = cfg.client_power_dbm});
    });
    const auto home = static_cast<lte::CellId>(topo.client_home_ap[u]);
    lte_build.Time([&] { ues.push_back(net.AddUe(radio, home)); });
  }

  Span core_build;
  std::unique_ptr<core::CellfiController> controller;
  core_build.Time([&] {
    core::CellfiControllerConfig ctl = cfg.cellfi;
    ctl.seed = cfg.seed ^ 0x51;
    controller = std::make_unique<core::CellfiController>(sim, net, ctl);
    controller->Start();
  });

  // Chain timers around the controller's sensing handlers (never replace).
  Span cqi;
  cqi.keep_samples = true;
  Span prach;
  auto inner_cqi = net.on_cqi_report;
  net.on_cqi_report = [&cqi, inner_cqi](lte::CellId c, lte::UeId u, const CqiMeasurement& m) {
    cqi.Time([&] { inner_cqi(c, u, m); });
  };
  auto inner_prach = net.on_prach;
  net.on_prach = [&prach, inner_prach](const lte::PrachObservation& obs) {
    prach.Time([&] { inner_prach(obs); });
  };

  std::vector<std::uint64_t> measured_bits(ues.size(), 0);
  traffic::FlowTracker tracker;
  std::vector<std::unique_ptr<traffic::WebSession>> sessions;
  Span delivered;
  net.on_dl_delivered = [&](lte::UeId ue, std::uint64_t bytes, SimTime now) {
    delivered.Time([&] {
      if (now >= cfg.warmup) measured_bits[static_cast<std::size_t>(ue)] += 8 * bytes;
      tracker.OnDelivered(static_cast<traffic::ClientId>(ue), bytes, now);
    });
  };

  Rng traffic_rng(cfg.seed ^ 0x7EB);
  if (cfg.workload == WorkloadKind::kBacklogged) {
    sim.SchedulePeriodic(500 * kMillisecond, [&] {
      for (const lte::UeId ue : ues) net.OfferDownlink(ue, std::uint64_t{4} << 20);
    });
  } else {
    tracker.on_flow_complete = [&](const traffic::FlowRecord& rec) {
      sessions[static_cast<std::size_t>(rec.client)]->OnFlowComplete(rec);
    };
    for (const lte::UeId ue : ues) {
      sessions.push_back(std::make_unique<traffic::WebSession>(
          sim, tracker, static_cast<traffic::ClientId>(ue), cfg.web,
          [&](traffic::ClientId client, std::uint64_t bytes) {
            net.OfferDownlink(static_cast<lte::UeId>(client), bytes);
          },
          traffic_rng.Fork()));
      sessions.back()->Start();
    }
  }

  lte_build.Time([&] { net.Start(); });
  const double setup_s = Since(setup_t0);

  const Span slices = RunSliced(sim, cfg.duration);
  const double run_s = slices.total_s;

  ScenarioResult res;
  const double window_s = ToSeconds(cfg.duration - cfg.warmup);
  int pages = 0;
  for (std::size_t u = 0; u < ues.size(); ++u) {
    ClientOutcome outcome;
    outcome.throughput_bps = static_cast<double>(measured_bits[u]) / window_s;
    outcome.attached = net.ue(ues[u]).connected_time > 0;
    if (!sessions.empty()) {
      outcome.pages_completed = sessions[u]->pages_completed();
      outcome.pages_started = sessions[u]->pages_started();
      outcome.page_load_times_s = sessions[u]->page_load_times();
      pages += outcome.pages_completed;
    }
    res.clients.push_back(std::move(outcome));
  }
  res.im_total_hops = controller->total_hops();
  res.im_cells_still_hopping = controller->cells_hopping_recently();
  Finalize(res, cfg);
  RfOutputs(res, r);

  const double nodes = static_cast<double>(env.node_count());
  r.times["setup_s"] = setup_s;
  r.times["run_s"] = run_s;
  r.times["scenario.topology_s"] = topology.total_s;
  r.times["radio.add_node_s"] = add_node.total_s;
  r.times["lte.build_s"] = lte_build.total_s;
  r.times["core.build_s"] = core_build.total_s;
  r.times["setup.other_s"] =
      setup_s - topology.total_s - add_node.total_s - lte_build.total_s - core_build.total_s;
  r.counts["radio.nodes"] = nodes;
  r.counts["radio.link_cache_bytes"] = 2.0 * nodes * nodes * 8.0;  // computed, not read
  r.counts["sim.events"] = static_cast<double>(sim.executed_events());
  SliceStats(slices, r);
  r.counts["core.cqi_reports"] = static_cast<double>(cqi.calls);
  r.times["core.cqi_s"] = cqi.total_s;
  r.times["core.cqi_p99_us"] = Percentile(cqi.samples_us, 0.99);
  r.counts["core.prach_obs"] = static_cast<double>(prach.calls);
  r.times["core.prach_s"] = prach.total_s;
  r.counts["lte.dl_deliveries"] = static_cast<double>(delivered.calls);
  r.times["traffic.delivered_s"] = delivered.total_s;
  r.counts["traffic.pages_completed"] = pages;
  r.times["lte.step_self_s"] = run_s - cqi.total_s - prach.total_s - delivered.total_s;
  return r;
}

/// Timing decorator between FaultyTransport and InProcessTransport: its
/// span is PawsServer::Handle plus the zero-delay response scheduling.
class TimedTransport final : public tvws::PawsTransport {
 public:
  TimedTransport(tvws::PawsTransport& inner, Span& span, std::uint64_t& bytes)
      : inner_(inner), span_(span), bytes_(bytes) {}

  void Send(const std::string& request, ResponseHandler on_response) override {
    bytes_ += request.size();
    span_.Time([&] { inner_.Send(request, std::move(on_response)); });
  }

 private:
  tvws::PawsTransport& inner_;
  Span& span_;
  std::uint64_t& bytes_;
};

/// RunChaosCampaign re-composed with a TimedTransport in every AP chain
/// and a timer around the barrier tick. Construction and scheduling order
/// are chaos_campaign.cc's, so Digest() matches the untraced campaign.
Report RunTracedPaws(const Options& o) {
  Report r;
  const ChaosCampaignConfig config = PawsConfig(o);
  const Clock::time_point setup_t0 = Clock::now();

  Simulator sim;
  obs::ClockScope obs_clock([&sim] { return sim.Now(); });

  tvws::SpectrumDatabase db(config.database);
  tvws::PawsServer server(db);
  tvws::InProcessTransport wire(sim, server);
  Span server_span;
  server_span.keep_samples = true;
  std::uint64_t request_bytes = 0;
  TimedTransport timed_wire(wire, server_span, request_bytes);

  chaos::InvariantChecker checker(config.invariants);
  chaos::InvariantScope checker_scope(&checker);
  core::QuietScanner scanner;

  struct ApChain {
    std::unique_ptr<tvws::FaultyTransport> transport;
    std::unique_ptr<tvws::PawsClient> client;
    std::unique_ptr<tvws::PawsSession> session;
    std::unique_ptr<core::ChannelSelector> selector;
  };
  std::vector<ApChain> chains;
  chains.reserve(static_cast<std::size_t>(config.num_aps));
  for (int ap = 0; ap < config.num_aps; ++ap) {
    ApChain chain;
    chain.transport = std::make_unique<tvws::FaultyTransport>(
        sim, timed_wire, chaos::LinkProfileFor(config.plan, ap));
    chaos::ApplyDbWindows(config.plan, *chain.transport);
    chain.client = std::make_unique<tvws::PawsClient>(
        tvws::DeviceDescriptor{.serial_number = "chaos-ap-" + std::to_string(ap)},
        config.database.regulatory);
    chain.session = std::make_unique<tvws::PawsSession>(sim, *chain.client,
                                                        *chain.transport, config.session);
    core::ChannelSelectorConfig sel_cfg = config.selector;
    sel_cfg.instance = ap;
    sel_cfg.location = config.location;
    chain.selector =
        std::make_unique<core::ChannelSelector>(sim, *chain.session, scanner, sel_cfg);
    chains.push_back(std::move(chain));
  }

  chaos::FaultHooks hooks;
  hooks.crash_ap = [&chains](int ap, const chaos::FaultEvent&) {
    if (ap < 0 || ap >= static_cast<int>(chains.size())) return;
    chains[static_cast<std::size_t>(ap)].session->Reset();
    chains[static_cast<std::size_t>(ap)].selector->Crash();
  };
  hooks.db_outage = [](SimTime, SimTime) {};
  hooks.db_brownout = [](const chaos::FaultEvent&) {};
  hooks.incumbent_arrive = [&db, &checker, &config, &sim](const chaos::FaultEvent& e) {
    db.AddIncumbent({.id = "chaos-" + std::to_string(e.channel),
                     .channel = e.channel,
                     .location = config.location,
                     .protection_radius_m = 50'000.0,
                     .start = sim.Now(),
                     .stop = 0});
    checker.OnIncumbentArrival(e.channel, sim.Now());
  };
  hooks.incumbent_depart = [&db, &checker, &sim](const chaos::FaultEvent& e) {
    db.RemoveIncumbent("chaos-" + std::to_string(e.channel));
    checker.OnIncumbentDeparture(e.channel, sim.Now());
  };
  chaos::FaultScheduler scheduler(sim, config.plan, std::move(hooks), config.num_aps);
  scheduler.Arm();

  Span barrier;
  sim.SchedulePeriodic(config.barrier_period, [&] {
    barrier.Time([&] {
      const SimTime now = sim.Now();
      for (std::size_t ap = 0; ap < chains.size(); ++ap) {
        const core::ChannelSelector& sel = *chains[ap].selector;
        if (sel.state() != core::ApRadioState::kOn) continue;
        const bool leased =
            sel.last_lease_confirm() >= 0 &&
            now <= sel.last_lease_confirm() + config.selector.etsi_vacate_budget;
        checker.CheckLeasedTransmit(static_cast<int>(ap), leased, now);
      }
      checker.AtBarrier(now);
    });
  });

  for (ApChain& chain : chains) chain.selector->Start();
  const double setup_s = Since(setup_t0);

  Span run;
  run.Time([&] { sim.RunUntil(config.run_until); });

  ChaosCampaignResult res;
  tvws::SessionCounters total;
  for (const ApChain& chain : chains) {
    ApOutcome out;
    out.timeline = chain.selector->timeline();
    out.lease_confirms = chain.selector->lease_confirms();
    out.session = chain.session->counters();
    out.transport = chain.transport->counters();
    out.crashes = chain.selector->crash_count();
    out.final_state = chain.session->state();
    out.final_radio_state = chain.selector->state();
    total.successes += out.session.successes;
    total.failures += out.session.failures;
    total.retries += out.session.retries;
    res.aps.push_back(std::move(out));
  }
  res.violations = checker.violations();
  res.faults = scheduler.counters();
  res.faults_injected = scheduler.injected();
  res.invariant_checks = checker.checks_run();
  PawsOutputs(res, r);

  const double logical = static_cast<double>(total.successes + total.failures);
  r.times["setup_s"] = setup_s;
  r.times["run_s"] = run.total_s;
  r.times["setup.other_s"] = setup_s;
  r.counts["sim.events"] = static_cast<double>(sim.executed_events());
  r.counts["tvws.requests"] = static_cast<double>(server_span.calls);
  r.counts["tvws.request_bytes"] = static_cast<double>(request_bytes);
  r.times["tvws.server_s"] = server_span.total_s;
  r.times["tvws.server_p50_us"] = Percentile(server_span.samples_us, 0.50);
  r.times["tvws.server_p99_us"] = Percentile(server_span.samples_us, 0.99);
  r.times["tvws.client_self_s"] = run.total_s - server_span.total_s - barrier.total_s;
  r.counts["tvws.successes"] = static_cast<double>(total.successes);
  r.counts["tvws.failures"] = static_cast<double>(total.failures);
  r.counts["tvws.retries"] = static_cast<double>(total.retries);
  r.counts["tvws.success_ratio"] = logical > 0 ? total.successes / logical : 0.0;
  r.times["chaos.barrier_s"] = barrier.total_s;
  r.counts["chaos.invariant_checks"] = static_cast<double>(res.invariant_checks);
  r.counts["chaos.faults_injected"] = static_cast<double>(res.faults_injected);
  return r;
}

int Usage() {
  std::fprintf(stderr,
               "usage: cellfi_perfbench --workload cellfi_256|fig9_web|paws_fleet "
               "--mode setup|full|traced --seed N [--quick] [--shards K]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--mode" && has_value) {
      o.mode = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--shards" && has_value) {
      o.shards = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--quick") {
      o.quick = true;
    } else {
      return Usage();
    }
  }
  const bool rf = o.workload == "cellfi_256" || o.workload == "fig9_web";
  if (!rf && o.workload != "paws_fleet") return Usage();
  if (o.mode != "setup" && o.mode != "full" && o.mode != "traced") return Usage();
  try {
    Report r;
    if (o.mode == "traced") {
      const double cpu0 = ProcessCpuS();
      const Clock::time_point t0 = Clock::now();
      r = rf ? RunTracedRf(o) : RunTracedPaws(o);
      r.times["wall_s"] = Since(t0);
      r.times["cpu_s"] = ProcessCpuS() - cpu0;
    } else {
      r = RunUntraced(o);
    }
    Print(o, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cellfi_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
