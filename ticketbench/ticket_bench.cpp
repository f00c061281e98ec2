// ticket_bench: closed-loop benchmark of the heimdall enforcement service.
//
// Technician threads each work one generated ticket at a time through the
// service's public calls (SessionManager::open -> TicketSession::run_script ->
// submit().get() -> close) in whole rounds that fit a wall-clock budget; each
// round drains the service and checks the audit ledger. Every input comes
// from --seed.
//
//   ticket_bench --workload campus-acl-4t --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics (throughput, ticket / open /
// verdict latency, CPU per ticket, peak RSS, set-up time). --trace 1
// alternates untraced and traced rounds, then runs a single-threaded layer
// probe over the same ticket stream, and reports per-layer metrics. The last
// line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// Exit codes: 0 ok; 2 bad arguments or a refused (non-Release) build; 3 the
// audit ledger failed its integrity or quorum check, or a warm-up ticket
// failed. No result is printed unless the exit code is 0.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/engine.hpp"
#include "config/diff.hpp"
#include "config/serialize.hpp"
#include "dataplane/compiled.hpp"
#include "dataplane/dataplane.hpp"
#include "dataplane/l2.hpp"
#include "dataplane/ospf.hpp"
#include "obs/metrics.hpp"
#include "scenarios/fabric.hpp"
#include "scenarios/university.hpp"
#include "service/manager.hpp"
#include "spec/verify.hpp"
#include "twin/twin.hpp"
#include "util/random.hpp"

#ifndef TICKETBENCH_BUILD_TYPE
#define TICKETBENCH_BUILD_TYPE "unknown"
#endif
#ifndef TICKETBENCH_COMPILER
#define TICKETBENCH_COMPILER "unknown"
#endif

namespace {

using namespace heimdall;
using Clock = std::chrono::steady_clock;

// --- workloads ---------------------------------------------------------------

enum class NetworkKind : std::uint8_t { Campus, Fabric };
enum class TicketShape : std::uint8_t { Acl, Ospf };

struct Workload {
  std::string name;
  NetworkKind network;
  TicketShape shape;
  std::size_t technicians;
  /// Tickets per round. Each round works a fresh production lineage, so the
  /// state a ticket sees (production size, audit ledger length) depends on
  /// its position in the round, never on the run length: ACL tickets grow
  /// production by one ACL each. At least 200, so that each round's p95
  /// leaves 10 tickets beyond it.
  std::size_t round_tickets;
  std::string mix;
};

/// fabric-ospf-1t is not in BENCHMARK.json: its timings follow the shared
/// host's slow and fast phases far more than the campus workloads do (see
/// README.md, "Noise"). It stays here to be run by hand, with --seconds 60
/// or more so that a run holds several 200-ticket rounds.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"campus-acl-4t", NetworkKind::Campus, TicketShape::Acl, 4, 500,
       "create one uniquely named deny ACL on a seed-rotated router; every 20th ticket "
       "(seeded offset) adds the violating permit into u13 SEC_IN"},
      {"campus-ospf-1t", NetworkKind::Campus, TicketShape::Ospf, 1, 500,
       "host-pair IspReconfig: traceroute, one ospf-cost change on the source gateway's "
       "uplink, ping"},
      {"fabric-ospf-1t", NetworkKind::Fabric, TicketShape::Ospf, 1, 200,
       "host-pair IspReconfig on the k=8 fat-tree: traceroute, one ospf-cost change on the "
       "source edge router's uplink, ping"},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

scen::FabricOptions fabric_options() { return scen::FabricOptions{8, 2, 2}; }

// --- scenario + seeded ticket stream ------------------------------------------

/// The scenario network plus the facts the ticket generator draws from.
struct Scenario {
  std::string network_name;
  net::Network network;
  /// ACL tickets: routers that get benign ACLs (the guard excluded).
  std::vector<net::DeviceId> acl_routers;
  net::DeviceId guard{"u13"};
  std::string guard_acl = "SEC_IN";
  std::string violating_entry = "permit ip 10.20.7.0 0.0.0.255 10.20.15.0 0.0.0.255";
  /// OSPF tickets: hosts, and each host's gateway router + routed uplinks.
  std::vector<net::DeviceId> hosts;
  std::map<net::DeviceId, std::pair<net::DeviceId, std::vector<net::InterfaceId>>> gateway;
};

Scenario build_scenario(const Workload& workload) {
  Scenario scenario;
  if (workload.network == NetworkKind::Campus) {
    scenario.network_name = "university (13 routers, 17 hosts, 175 mined policies)";
    scenario.network = scen::build_university();
  } else {
    scen::FabricInfo info = scen::fabric_info(fabric_options());
    scenario.network_name = "fabric k=8 (" + std::to_string(info.routers) + " routers, " +
                            std::to_string(info.hosts) + " hosts, fabric_policies)";
    scenario.network = scen::build_fabric(fabric_options());
  }
  const net::Network& network = scenario.network;
  for (const net::Device& device : network.devices()) {
    if (device.is_router() && device.id() != scenario.guard) scenario.acl_routers.push_back(device.id());
  }
  for (const net::Device& host : network.devices()) {
    if (!host.is_host()) continue;
    std::optional<net::DeviceId> router;
    for (const net::DeviceId& neighbor : network.topology().neighbors(host.id())) {
      if (network.device(neighbor).is_router()) router = neighbor;
    }
    if (!router) continue;
    std::vector<net::InterfaceId> uplinks;
    for (const net::Interface& iface : network.device(*router).interfaces()) {
      if (!iface.address) continue;
      std::optional<net::Endpoint> peer = network.topology().peer_of({*router, iface.id});
      if (peer && network.device(peer->device).is_router()) uplinks.push_back(iface.id);
    }
    if (uplinks.empty()) continue;
    scenario.hosts.push_back(host.id());
    scenario.gateway[host.id()] = {*router, std::move(uplinks)};
  }
  return scenario;
}

/// One generated ticket and the console lines its technician runs.
struct ScriptedTicket {
  msp::Ticket ticket;
  std::vector<std::string> script;
  /// Script lines that must change the twin's configuration.
  std::vector<std::size_t> mutations;
  bool violating = false;
};

/// Deterministic ticket sequence for one production lineage: the same
/// (seed, round) yields the same tickets in the same order. Ticket 0 is the
/// lineage's warm-up ticket. next() is thread-safe.
class TicketStream {
 public:
  TicketStream(const Workload& workload, const Scenario& scenario, std::uint64_t seed,
               std::uint64_t round)
      : workload_(workload),
        scenario_(scenario),
        rng_(seed * 0x9E3779B97F4A7C15ull + round),
        first_id_(static_cast<int>(round % 2000) * 1000000 + 1) {
    routers_ = scenario.acl_routers;
    rng_.shuffle(routers_);
    violating_offset_ = rng_.next_below(kViolatingEvery);
    for (const auto& [host, gateway] : scenario.gateway) {
      for (const net::InterfaceId& iface : gateway.second) {
        const net::Interface& config = scenario.network.device(gateway.first).interface(iface);
        cost_[{gateway.first, iface}] = config.ospf_cost.value_or(dp::kDefaultOspfCost);
      }
    }
  }

  ScriptedTicket next() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t index = issued_++;
    return workload_.shape == TicketShape::Acl ? acl_ticket(index) : ospf_ticket(index);
  }

 private:
  static constexpr std::size_t kViolatingEvery = 20;
  static constexpr unsigned kMinCost = 7;
  static constexpr unsigned kMaxCost = 13;

  ScriptedTicket acl_ticket(std::size_t index) {
    ScriptedTicket out;
    out.ticket.id = first_id_ + static_cast<int>(index);
    out.ticket.task = priv::TaskClass::AclChange;
    out.violating = index > 0 && index % kViolatingEvery == violating_offset_;
    if (out.violating) {
      out.ticket.description = "open access through " + scenario_.guard_acl;
      out.ticket.affected = {scenario_.guard};
      out.script = {"acl " + scenario_.guard.str() + " " + scenario_.guard_acl + " add 0 " +
                    scenario_.violating_entry};
      out.mutations = {0};
      return out;
    }
    const net::DeviceId& router = routers_[index % routers_.size()];
    static const char* const kDocPrefixes[] = {"192.0.2.0", "198.51.100.0", "203.0.113.0"};
    std::string src = kDocPrefixes[rng_.next_below(3)];
    std::string dst = kDocPrefixes[rng_.next_below(3)];
    std::string acl = "TB" + std::to_string(index + 1);
    out.ticket.description = "tighten ingress filtering (documentation prefixes)";
    out.ticket.affected = {router};
    out.script = {
        "acl " + router.str() + " create " + acl,
        "acl " + router.str() + " " + acl + " add deny ip " + src + " 0.0.0.255 " + dst +
            " 0.0.0.255",
    };
    out.mutations = {0, 1};
    return out;
  }

  ScriptedTicket ospf_ticket(std::size_t index) {
    const std::vector<net::DeviceId>& hosts = scenario_.hosts;
    const net::DeviceId& src = hosts[rng_.next_below(hosts.size())];
    net::DeviceId dst = hosts[rng_.next_below(hosts.size() - 1)];
    if (dst == src) dst = hosts.back();
    const auto& [router, uplinks] = scenario_.gateway.at(src);
    const net::InterfaceId& iface = uplinks[rng_.next_below(uplinks.size())];
    unsigned& cost = cost_[{router, iface}];
    // Uniform over [kMinCost, kMaxCost] minus the current cost. The range is
    // narrow enough that no change makes a two-hop detour cheaper than a
    // direct link, so paths, slices and per-ticket cost stay stationary
    // while every change still forces a full SPF.
    unsigned next_cost = static_cast<unsigned>(rng_.next_in(kMinCost, kMaxCost - 1));
    if (next_cost >= cost) ++next_cost;
    cost = next_cost;

    ScriptedTicket out;
    out.ticket = msp::Ticket::connectivity(
        first_id_ + static_cast<int>(index), src, dst,
        "planned change: re-weight " + router.str() + " uplink for " + src.str() + " traffic",
        priv::TaskClass::IspReconfig);
    out.script = {
        "traceroute " + src.str() + " " + dst.str(),
        "interface " + router.str() + " " + iface.str() + " ospf-cost " + std::to_string(cost),
        "ping " + src.str() + " " + dst.str(),
    };
    out.mutations = {1};
    return out;
  }

  const Workload& workload_;
  const Scenario& scenario_;
  std::mutex mutex_;
  util::Rng rng_;
  int first_id_;  ///< ticket ids stay unique across the rounds of a run
  std::size_t issued_ = 0;
  std::vector<net::DeviceId> routers_;
  std::size_t violating_offset_ = 0;
  std::map<std::pair<net::DeviceId, net::InterfaceId>, unsigned> cost_;
};

// --- spans ----------------------------------------------------------------------

std::uint64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count());
}

struct Span {
  const char* name;
  std::int64_t request;  ///< ticket id
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int32_t parent;   ///< index in the same log, -1 for a root
};

/// One thread's spans, kept in memory until the run ends. A disabled log
/// records nothing (the untraced runs).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  std::int32_t begin(const char* name, std::int64_t request, std::int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, request, now_ns(), 0, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Times one call as a span; returns its duration in microseconds.
template <typename F>
double timed(SpanLog& log, const char* name, std::int64_t request, std::int32_t parent, F&& body) {
  std::int32_t span = log.begin(name, request, parent);
  std::uint64_t start = now_ns();
  body();
  std::uint64_t end = now_ns();
  log.end(span);
  return static_cast<double>(end - start) / 1000.0;
}

// --- statistics ------------------------------------------------------------------

/// 1-based nearest rank of the q-th percentile among n sorted samples; n - rank
/// samples lie beyond it.
std::size_t percentile_rank(std::size_t n, double q) {
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[percentile_rank(values.size(), q) - 1];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::map<std::string, double> registry_counters() {
  std::map<std::string, double> out;
  for (const auto& [name, value] : obs::Registry::global().snapshot().counters) {
    out[name] = static_cast<double>(value);
  }
  return out;
}

// --- driving the service ------------------------------------------------------------

struct TicketRecord {
  double total_us = 0, open_us = 0, script_us = 0, verdict_us = 0, close_us = 0;
  double queue_wait_us = 0, batch_size = 0, analyze_us = 0, verify_us = 0, audit_us = 0;
  bool failed = false;
  bool wrong_verdict = false;
};

/// A production lineage: one SessionManager and the ticket stream it serves.
struct Lineage {
  std::unique_ptr<service::SessionManager> manager;
  std::unique_ptr<TicketStream> stream;
};

/// Works one ticket through the service; never throws.
TicketRecord work_ticket(service::SessionManager& manager, const ScriptedTicket& scripted,
                         const std::string& actor, SpanLog& log) {
  TicketRecord record;
  std::int64_t id = scripted.ticket.id;
  std::int32_t root = log.begin("ticket", id);
  std::uint64_t start = now_ns();
  try {
    std::unique_ptr<service::TicketSession> session;
    record.open_us = timed(log, "service.open", id, root,
                           [&] { session = manager.open(scripted.ticket, actor); });
    std::vector<twin::CommandResult> results;
    record.script_us = timed(log, "service.script", id, root,
                             [&] { results = session->run_script(scripted.script); });
    for (std::size_t line : scripted.mutations) {
      if (line >= results.size() || !results[line].ok) record.failed = true;
    }
    service::SubmitOutcome outcome;
    record.verdict_us =
        timed(log, "service.verdict", id, root, [&] { outcome = session->submit().get(); });
    record.close_us = timed(log, "service.close", id, root, [&] { session->close(); });

    const enforce::QuarantineReport& report = outcome.report;
    record.queue_wait_us = static_cast<double>(outcome.queue_wait_us);
    record.batch_size = static_cast<double>(outcome.batch_size);
    record.analyze_us = static_cast<double>(report.stages.analyze_us);
    record.verify_us = static_cast<double>(report.stages.verify_us);
    record.audit_us = static_cast<double>(report.stages.audit_us);
    bool applied = !report.applied_changes.empty() && report.quarantined.empty();
    record.wrong_verdict = scripted.violating ? report.quarantined.empty() : !applied;
  } catch (const std::exception& error) {
    std::cerr << "ticket " << id << " failed: " << error.what() << "\n";
    record.failed = true;
  }
  record.total_us = static_cast<double>(now_ns() - start) / 1000.0;
  log.end(root);
  record.failed = record.failed || record.wrong_verdict;
  return record;
}

[[noreturn]] void fail_integrity(const std::string& what) {
  std::cerr << "FATAL: " << what << "\n";
  std::exit(3);
}

/// Drain-time correctness gate: the chain must verify and every ledger
/// append must have reached quorum.
void check_ledger(service::SessionManager& manager) {
  if (!manager.enforcer().audit_intact()) fail_integrity("audit ledger not intact after drain");
  std::uint64_t failures = manager.enforcer().ledger_stats().quorum_failures;
  if (failures > 0) fail_integrity(std::to_string(failures) + " audit appends missed quorum");
}

/// One round: tickets [first, first + tickets) of PhaseResult::tickets.
struct Round {
  std::size_t first = 0;
  std::size_t tickets = 0;
  double wall_s = 0;    ///< first open -> end of drain()
  double cpu_s = 0;     ///< process CPU over the same window
  double drain_ms = 0;  ///< drain() alone

  double throughput() const { return ratio(static_cast<double>(tickets), wall_s); }
};

struct PhaseResult {
  std::vector<TicketRecord> tickets;
  std::vector<Round> rounds;
  std::map<std::string, double> counters;  ///< registry counter deltas over the rounds
  std::vector<SpanLog> logs;

  std::size_t attempted() const { return tickets.size(); }
  std::size_t failed() const {
    return static_cast<std::size_t>(
        std::count_if(tickets.begin(), tickets.end(), [](const TicketRecord& t) { return t.failed; }));
  }
  std::size_t wrong_verdicts() const {
    return static_cast<std::size_t>(std::count_if(
        tickets.begin(), tickets.end(), [](const TicketRecord& t) { return t.wrong_verdict; }));
  }
  /// One field of every ticket, or of one round's tickets.
  std::vector<double> column(double TicketRecord::*field, const Round* round = nullptr) const {
    std::size_t first = round ? round->first : 0;
    std::size_t count = round ? round->tickets : tickets.size();
    std::vector<double> out;
    out.reserve(count);
    for (std::size_t i = first; i < first + count; ++i) out.push_back(tickets[i].*field);
    return out;
  }
  /// Median over rounds of a per-round statistic: a burst of machine noise
  /// that slows a minority of rounds does not move it.
  double round_median(const std::function<double(const Round&)>& statistic) const {
    std::vector<double> values;
    for (const Round& round : rounds) values.push_back(statistic(round));
    return median(std::move(values));
  }
  double throughput() const { return round_median(&Round::throughput); }
  double counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
};

class Bench {
 public:
  Bench(const Workload& workload, std::uint64_t seed)
      : workload_(workload), seed_(seed), scenario_(build_scenario(workload)) {}

  const Scenario& scenario() const { return scenario_; }
  const std::vector<spec::Policy>& policies() const { return policies_; }

  /// Policy mining + SessionManager construction + one warm-up ticket
  /// through to its verdict; returns seconds. The warm-up comes from a fixed
  /// stream, so set-up does the same work under every seed.
  double timed_setup() {
    net::Network production = scenario_.network;  // input copy, not set-up work
    auto start = Clock::now();
    policies_ = workload_.network == NetworkKind::Campus
                    ? scen::university_policies(production)
                    : scen::fabric_policies(fabric_options());
    std::unique_ptr<Lineage> lineage = make_lineage(std::move(production), /*seed=*/0, /*round=*/0);
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  /// Runs the closed loop for about `seconds` in whole rounds, one phase per
  /// entry of `traced`. Each round works a fresh lineage with its own seeded
  /// stream (rounds 1, 2, ...). The phases take rounds in turn, so phases
  /// that are compared with each other see the same stretch of machine time.
  /// Another turn starts only while the mean turn so far still fits the
  /// budget. With `setups`, each turn starts with kSetupsPerTurn timed
  /// set-ups appended to it: a few-millisecond set-up timed only at the
  /// start of a run reads one moment of the machine, and the per-process
  /// values were bimodal. Without, timed_setup() must have run first (it
  /// mines the policies).
  std::vector<PhaseResult> run_phases(double seconds, const std::vector<bool>& traced,
                                      std::vector<double>* setups) {
    std::vector<PhaseResult> phases(traced.size());
    for (std::size_t p = 0; p < phases.size(); ++p) {
      for (std::size_t t = 0; t < workload_.technicians; ++t) phases[p].logs.emplace_back(traced[p]);
    }
    Clock::time_point start = Clock::now();
    double turns = 0;
    double elapsed = 0;
    do {
      for (std::size_t rep = 0; setups && rep < kSetupsPerTurn; ++rep) {
        setups->push_back(timed_setup());
      }
      for (PhaseResult& phase : phases) {
        std::unique_ptr<Lineage> lineage = make_lineage(scenario_.network, seed_, ++rounds_);
        run_round(*lineage, phase);
      }
      ++turns;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed * (turns + 1) / turns <= seconds);
    return phases;
  }

 private:
  static constexpr std::size_t kSetupsPerTurn = 3;

  std::unique_ptr<Lineage> make_lineage(net::Network production, std::uint64_t seed,
                                        std::uint64_t round) {
    auto lineage = std::make_unique<Lineage>();
    lineage->manager = std::make_unique<service::SessionManager>(std::move(production), policies_);
    lineage->stream = std::make_unique<TicketStream>(workload_, scenario_, seed, round);
    SpanLog quiet(false);
    TicketRecord warmup = work_ticket(*lineage->manager, lineage->stream->next(), "tech-warmup", quiet);
    if (warmup.failed) {
      std::cerr << "FATAL: warm-up ticket failed\n";
      std::exit(3);
    }
    return lineage;
  }

  void run_round(Lineage& lineage, PhaseResult& result) {
    std::atomic<std::size_t> claimed{0};
    auto claim = [&]() -> std::optional<ScriptedTicket> {
      if (claimed.fetch_add(1) >= workload_.round_tickets) return std::nullopt;
      return lineage.stream->next();
    };

    std::map<std::string, double> before = registry_counters();
    std::vector<std::vector<TicketRecord>> per_thread(workload_.technicians);
    Round round{result.tickets.size()};
    double cpu_start = cpu_seconds();
    auto wall_start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < workload_.technicians; ++t) {
      threads.emplace_back([&, t] {
        std::string actor = "tech-" + std::to_string(t + 1);
        while (std::optional<ScriptedTicket> scripted = claim()) {
          per_thread[t].push_back(work_ticket(*lineage.manager, *scripted, actor, result.logs[t]));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    auto drain_start = Clock::now();
    lineage.manager->drain();
    auto wall_end = Clock::now();
    round.cpu_s = cpu_seconds() - cpu_start;
    round.wall_s = std::chrono::duration<double>(wall_end - wall_start).count();
    round.drain_ms = std::chrono::duration<double, std::milli>(wall_end - drain_start).count();
    for (const auto& [name, value] : registry_counters()) {
      auto it = before.find(name);
      result.counters[name] += value - (it == before.end() ? 0.0 : it->second);
    }
    for (auto& records : per_thread) {
      round.tickets += records.size();
      result.tickets.insert(result.tickets.end(), records.begin(), records.end());
    }
    result.rounds.push_back(round);
    check_ledger(*lineage.manager);
  }

  const Workload& workload_;
  std::uint64_t seed_;
  Scenario scenario_;
  std::vector<spec::Policy> policies_;
  std::uint64_t rounds_ = 0;  ///< rounds started so far
};

// --- layer probe -----------------------------------------------------------------

struct ProbeResult {
  std::size_t tickets = 0;
  std::map<std::string, std::vector<double>> samples_us;
  double matrix_bytes = 0;
  double fib_bytes = 0;
};

/// Single-threaded pass over the same seeded ticket stream that calls each
/// layer's public entry point in pipeline order and times it: what open()
/// does (serialize, fingerprint, L2, OSPF, dataplane, twin artifacts,
/// instantiate, script), then what the enforcer does (compile, all-pairs,
/// verify, incremental analyze, delta verify). Benign changes are applied
/// to the probe's production copy, violating ones dropped, as the service
/// would.
ProbeResult run_probe(const Workload& workload, const Scenario& scenario,
                      const std::vector<spec::Policy>& policies, std::uint64_t seed,
                      double budget_s, std::size_t max_tickets, SpanLog& log) {
  ProbeResult result;
  net::Network production = scenario.network;
  TicketStream stream(workload, scenario, seed, /*round=*/1);
  analysis::Engine engine;  // the service's default engine (memoized)
  analysis::Options no_memo;
  no_memo.cache_capacity = 0;
  analysis::Engine uncached(no_memo);
  spec::PolicyVerifier verifier(policies);

  auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(budget_s));
  while (result.tickets < max_tickets && (result.tickets == 0 || Clock::now() < deadline)) {
    ScriptedTicket scripted = stream.next();
    std::int64_t id = scripted.ticket.id;
    std::int32_t root = log.begin("probe.ticket", id);
    auto sample = [&](const char* name, auto&& body) {
      result.samples_us[name].push_back(timed(log, name, id, root, body));
    };

    sample("config.serialize", [&] { (void)cfg::serialize_network(production); });
    sample("analysis.fingerprint", [&] { (void)engine.fingerprint(production); });
    std::optional<dp::L2Domains> l2;
    sample("dataplane.l2", [&] { l2.emplace(dp::L2Domains::compute(production)); });
    sample("dataplane.ospf", [&] { (void)dp::compute_ospf(production, *l2); });
    std::optional<dp::Dataplane> dataplane;
    sample("dataplane.compute", [&] { dataplane.emplace(dp::Dataplane::compute(production)); });
    std::optional<twin::TwinArtifacts> artifacts;
    sample("twin.artifacts", [&] {
      artifacts.emplace(twin::build_twin_artifacts(production, *dataplane, scripted.ticket));
    });
    std::optional<twin::TwinNetwork> twin;
    sample("twin.instantiate",
           [&] { twin.emplace(twin::TwinNetwork::instantiate(*artifacts, scripted.ticket)); });
    sample("twin.script", [&] { (void)twin->run_script(scripted.script); });
    std::vector<cfg::ConfigChange> changes = twin->extract_changes();

    std::optional<dp::CompiledPlane> plane;
    sample("dataplane.compile",
           [&] { plane.emplace(dp::CompiledPlane::compile(production, *dataplane)); });
    result.fib_bytes = static_cast<double>(plane->fib_bytes());
    // All-pairs in whichever representation the engine's default picks:
    // the full uncached pipeline minus its dataplane-only prefix.
    double dataplane_only = timed(log, "probe.analyze_dataplane", id, root,
                                  [&] { (void)uncached.analyze_dataplane(production); });
    analysis::Snapshot full;
    double with_allpairs =
        timed(log, "probe.analyze", id, root, [&] { full = uncached.analyze(production); });
    result.samples_us["dataplane.allpairs"].push_back(std::max(0.0, with_allpairs - dataplane_only));
    result.matrix_bytes = static_cast<double>(full.view()->bytes());

    analysis::Snapshot base = engine.analyze(production);
    spec::VerificationReport base_report;
    sample("spec.verify", [&] { base_report = verifier.verify(*base.view()); });
    net::Network after = production;
    cfg::apply_changes(after, changes);
    analysis::Snapshot next;
    sample("analysis.incremental", [&] { next = engine.analyze(after, base, changes); });
    sample("spec.verify_incremental", [&] { (void)verifier.verify_incremental(next, base_report); });
    if (!scripted.violating) production = std::move(after);
    log.end(root);
    ++result.tickets;
  }
  return result;
}

// --- reporting ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  std::ostringstream out;
  out << std::setprecision(12) << value;
  return out.str();
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void print_header(const Workload& workload, const Scenario& scenario, std::uint64_t seed,
                  double seconds, bool traced) {
  std::cout << "# ticket_bench  nproc=" << std::thread::hardware_concurrency()
            << "  build=" << TICKETBENCH_BUILD_TYPE << "  compiler=" << TICKETBENCH_COMPILER << "\n"
            << "# workload=" << workload.name << "  network=" << scenario.network_name
            << "  technicians=" << workload.technicians << " (closed loop)"
            << "  round_tickets=" << workload.round_tickets
            << "\n# ticket mix: " << workload.mix << "\n# seed=" << seed << "  seconds=" << seconds
            << "  trace=" << (traced ? 1 : 0) << "\n";
  if (workload.technicians > std::thread::hardware_concurrency()) {
    std::cout << "# warning: more technician threads than CPUs\n";
  }
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::cout << "  " << std::left << std::setw(40) << metric.name << std::right << std::setw(16)
              << json_number(metric.value) << " " << metric.unit << "\n";
  }
}

/// Per-layer span table: calls, p50 and mean self time (span minus the
/// spans it directly caused). Layer = span name up to the first '.'.
void print_span_table(const std::vector<SpanLog>& logs) {
  struct Row {
    std::vector<double> durations_us;
    double self_us = 0;
  };
  std::map<std::string, Row> rows;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_us[static_cast<std::size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns) / 1000.0;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      double duration = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1000.0;
      Row& row = rows[spans[i].name];
      row.durations_us.push_back(duration);
      row.self_us += duration - child_us[i];
    }
  }
  std::cout << "# spans: name, calls, p50 us, mean self us\n";
  for (const auto& [name, row] : rows) {
    std::size_t calls = row.durations_us.size();
    std::cout << "  " << std::left << std::setw(28) << name << std::right << std::setw(8) << calls
              << std::setw(14) << json_number(median(row.durations_us)) << std::setw(14)
              << json_number(row.self_us / static_cast<double>(calls)) << "\n";
  }
}

/// Chrome trace_event JSON of every recorded span (loadable in Perfetto).
void write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write spans to " << path << "\n";
    return;
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    const std::vector<Span>& spans = logs[tid].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      out << (first ? "" : ",") << "\n{\"name\":\"" << span.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << tid << ",\"ts\":" << json_number(static_cast<double>(span.start_ns) / 1000.0)
          << ",\"dur\":" << json_number(static_cast<double>(span.end_ns - span.start_ns) / 1000.0)
          << ",\"args\":{\"request\":" << span.request << ",\"id\":" << i
          << ",\"parent\":" << span.parent << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

/// Every timing is a median over rounds of the per-round value.
std::vector<Metric> end_to_end(const PhaseResult& run, double setup_s) {
  auto ms = [&](double TicketRecord::*field, double q) {
    return run.round_median([&](const Round& round) {
      return percentile(run.column(field, &round), q) / 1000.0;
    });
  };
  return {
      {"throughput_tps", run.throughput(), "tickets/s"},
      {"ticket_p50_ms", ms(&TicketRecord::total_us, 0.50), "ms"},
      {"ticket_p95_ms", ms(&TicketRecord::total_us, 0.95), "ms"},
      {"open_p50_ms", ms(&TicketRecord::open_us, 0.50), "ms"},
      {"verdict_p50_ms", ms(&TicketRecord::verdict_us, 0.50), "ms"},
      {"cpu_ms_per_ticket", run.round_median([](const Round& round) {
         return ratio(round.cpu_s * 1000.0, static_cast<double>(round.tickets));
       }), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", setup_s, "s"},
  };
}

std::vector<Metric> per_layer(const PhaseResult& traced, const PhaseResult& untraced,
                              const ProbeResult& probe) {
  double tickets = static_cast<double>(traced.attempted());
  auto per_ticket = [&](const std::string& counter) { return ratio(traced.counter(counter), tickets); };
  auto p50 = [&](double TicketRecord::*field) { return median(traced.column(field)); };
  // SubmitOutcome reports whole microseconds, so its stages are averaged
  // rather than ranked (and means add up along the ticket's path).
  auto mean = [&](double TicketRecord::*field) {
    double sum = 0;
    for (double value : traced.column(field)) sum += value;
    return ratio(sum, tickets);
  };
  auto probe_p50 = [&](const std::string& name) {
    auto it = probe.samples_us.find(name);
    return it == probe.samples_us.end() ? 0.0 : median(it->second);
  };
  double open_us = p50(&TicketRecord::open_us);
  // A ticket in a batch of n stands for 1/n of that batch.
  double batches = 0;
  for (double size : traced.column(&TicketRecord::batch_size)) batches += ratio(1.0, size);
  double hits = traced.counter("service.artifact_hits");
  double misses = traced.counter("service.artifact_misses");
  double trace_hits = traced.counter("dp.trace_cache_hits");
  double trace_misses = traced.counter("dp.trace_cache_misses");
  return {
      {"service.open_us", open_us, "us"},
      {"service.script_us", p50(&TicketRecord::script_us), "us"},
      {"service.verdict_us", p50(&TicketRecord::verdict_us), "us"},
      {"service.close_us", p50(&TicketRecord::close_us), "us"},
      {"service.queue_wait_us", mean(&TicketRecord::queue_wait_us), "us"},
      {"service.batch_size", ratio(tickets, batches), "tickets"},
      {"service.artifact_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"service.drain_ms", traced.round_median(&Round::drain_ms), "ms"},
      {"enforcer.analyze_us", mean(&TicketRecord::analyze_us), "us"},
      {"enforcer.verify_us", mean(&TicketRecord::verify_us), "us"},
      {"enforcer.audit_us", mean(&TicketRecord::audit_us), "us"},
      {"enforcer.reverts_per_ticket", per_ticket("enforcer.incremental_reverts"), "count/ticket"},
      {"enforcer.wave_coalesce_ratio", ratio(traced.counter("enforcer.wave_submissions"),
                                             traced.counter("enforcer.batch_submissions")), "ratio"},
      {"audit.entries_per_ticket", per_ticket("audit.entries"), "count/ticket"},
      {"enclave.seals_per_ticket", per_ticket("enclave.seals"), "count/ticket"},
      {"analysis.fingerprint_us", probe_p50("analysis.fingerprint"), "us"},
      {"analysis.incremental_us", probe_p50("analysis.incremental"), "us"},
      {"analysis.analyses_per_ticket", per_ticket("engine.analyses"), "count/ticket"},
      {"analysis.full_per_ticket", per_ticket("engine.full_recomputes"), "count/ticket"},
      {"analysis.incremental_per_ticket", per_ticket("engine.incremental_recomputes"), "count/ticket"},
      {"analysis.cache_hit_ratio", ratio(traced.counter("engine.cache_hits"),
                                         traced.counter("engine.analyses")), "ratio"},
      {"analysis.retraced_pairs_per_ticket", per_ticket("engine.retraced_pairs"), "count/ticket"},
      {"dataplane.l2_us", probe_p50("dataplane.l2"), "us"},
      {"dataplane.ospf_us", probe_p50("dataplane.ospf"), "us"},
      {"dataplane.compute_us", probe_p50("dataplane.compute"), "us"},
      {"dataplane.compile_us", probe_p50("dataplane.compile"), "us"},
      {"dataplane.allpairs_us", probe_p50("dataplane.allpairs"), "us"},
      {"dataplane.trace_cache_hit_ratio", ratio(trace_hits, trace_hits + trace_misses), "ratio"},
      {"dataplane.matrix_bytes", probe.matrix_bytes, "B"},
      {"dataplane.fib_bytes", probe.fib_bytes, "B"},
      {"spec.verify_us", probe_p50("spec.verify"), "us"},
      {"spec.verify_incremental_us", probe_p50("spec.verify_incremental"), "us"},
      {"spec.policies_checked_per_ticket", per_ticket("spec.policies_checked"), "count/ticket"},
      {"spec.policies_rechecked_per_ticket", per_ticket("spec.policies_rechecked"), "count/ticket"},
      {"twin.artifacts_us", probe_p50("twin.artifacts"), "us"},
      {"twin.instantiate_us", probe_p50("twin.instantiate"), "us"},
      {"twin.script_us", probe_p50("twin.script"), "us"},
      {"twin.commands_per_ticket", per_ticket("twin.commands_mediated"), "count/ticket"},
      {"config.serialize_us", probe_p50("config.serialize"), "us"},
      {"service.open_probe_coverage",
       ratio(probe_p50("analysis.fingerprint") + probe_p50("dataplane.compute") +
                 probe_p50("twin.artifacts"),
             open_us),
       "ratio"},
      {"trace_overhead_frac", 1.0 - ratio(traced.throughput(), untraced.throughput()), "ratio"},
  };
}

void usage() {
  std::cerr << "usage: ticket_bench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                    [--spans-out FILE]\nworkloads:";
  for (const Workload& workload : workloads()) std::cerr << " " << workload.name;
  std::cerr << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument(arg);
      std::string value = argv[++i];
      if (arg == "--workload") workload_name = value;
      else if (arg == "--seed") seed = std::stoull(value);
      else if (arg == "--seconds") seconds = std::stod(value);
      else if (arg == "--trace") trace = std::stoi(value);
      else if (arg == "--spans-out") spans_out = value;
      else throw std::invalid_argument(arg);
    }
  } catch (const std::exception&) {
    usage();
    return 2;
  }
  const Workload* workload = find_workload(workload_name);
  if (!workload || seconds <= 0 || (trace != 0 && trace != 1)) {
    usage();
    return 2;
  }
  if (std::string(TICKETBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "refusing to measure a " << TICKETBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  Bench bench(*workload, seed);
  print_header(*workload, bench.scenario(), seed, seconds, trace == 1);

  if (trace == 0) {
    std::vector<double> setups;
    PhaseResult run = std::move(bench.run_phases(seconds, {false}, &setups).front());
    std::vector<Metric> metrics = end_to_end(run, median(setups));
    // ticket_p95_ms is a median of per-round p95s, so the tail that counts
    // is the one inside each round.
    std::size_t beyond_p95 = run.attempted();
    for (const Round& round : run.rounds) {
      beyond_p95 = std::min(beyond_p95, round.tickets - percentile_rank(round.tickets, 0.95));
    }
    std::cout << "# end-to-end (tracing off): " << run.attempted() << " tickets in "
              << run.rounds.size() << " rounds; timings are medians over rounds of each round's "
              << "value; each round's p95 has at least " << beyond_p95
              << " tickets beyond it; setup_s is the median of " << setups.size() << " set-ups\n";
    for (const Round& round : run.rounds) {
      std::cout << "# round: " << round.tickets << " tickets in " << json_number(round.wall_s)
                << " s = " << json_number(round.throughput()) << " tickets/s\n";
    }
    print_metrics(metrics);
    // Report only: BENCHMARK.json lists no metric that is 0 on a correct
    // service. The result line carries it as failed / attempted.
    print_metrics({{"error_rate",
                    ratio(static_cast<double>(run.failed()), static_cast<double>(run.attempted())),
                    "ratio"}});
    if (beyond_p95 < 10) std::cout << "# warning: fewer than 10 tickets beyond a round's p95\n";
    print_result(run.wrong_verdicts() == 0, run.attempted(), run.failed(), metrics);
    return 0;
  }

  bench.timed_setup();
  std::vector<PhaseResult> phases = bench.run_phases(seconds, {false, true}, nullptr);
  const PhaseResult& untraced = phases[0];
  PhaseResult& traced = phases[1];
  std::vector<SpanLog> logs = std::move(traced.logs);
  logs.emplace_back(true);
  ProbeResult probe = run_probe(*workload, bench.scenario(), bench.policies(), seed, seconds / 6,
                                /*max_tickets=*/200, logs.back());
  std::vector<Metric> metrics = per_layer(traced, untraced, probe);
  std::cout << "# per-layer (traced: " << traced.attempted() << " tickets in "
            << traced.rounds.size() << " rounds, alternating with " << untraced.rounds.size()
            << " untraced rounds; probe: " << probe.tickets << " tickets)\n";
  print_span_table(logs);
  print_metrics(metrics);
  // Report only, like error_rate: every scripted command is within its
  // ticket's privileges, so this reads 0 on a correct service.
  print_metrics({{"twin.denied_per_ticket",
                  ratio(traced.counter("twin.commands_denied"),
                        static_cast<double>(traced.attempted())),
                  "count/ticket"}});
  if (!spans_out.empty()) write_spans(spans_out, logs);
  std::size_t attempted = untraced.attempted() + traced.attempted();
  std::size_t failed = untraced.failed() + traced.failed();
  bool correct = untraced.wrong_verdicts() == 0 && traced.wrong_verdicts() == 0;
  print_result(correct, attempted, failed, metrics);
  return 0;
}
