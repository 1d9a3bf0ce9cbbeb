// tenant-admit: AdmissionController::admit against 16 seeded resident
// tenant slices (the bench_tenant_scaling shape: one periodic task per
// tenant in its own RT domain and heap area, capability routes between
// neighbours), closed loop with one caller. Candidates come from a seeded
// mix in which a known share must be rejected, each for a known rule. The
// tenant layer, sim's response-time analysis and validate's tenancy rules
// do the work; the apply path (covered by reload-churn) is skipped.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "runtime/content_registry.hpp"
#include "sim/rta.hpp"
#include "soleil/plan.hpp"
#include "tenant/admission.hpp"
#include "tenant/compose.hpp"
#include "trace.hpp"
#include "validate/tenancy.hpp"
#include "validate/validator.hpp"

namespace perfbench {

namespace {

using namespace rtcf;
using model::Architecture;

// Admission's DELTA-CONTENT-UNKNOWN gate needs a registered content class
// for the candidate's components.
class PerfbenchTenantTask final : public comm::Content {
 public:
  void on_release() override {}
};
RTCF_REGISTER_CONTENT(PerfbenchTenantTask)

constexpr std::size_t kResidents = 16;
/// Set-up repetitions at the start of each segment (common.hpp).
constexpr int kSetupsPerSegment = 4;
/// Time segments (common.hpp); their quiet quarter holds enough
/// admissions for a p99.
constexpr int kSegments = 16;

/// What a candidate is, and the verdict admission must reach.
enum class Kind { Accept, Conflict, Overload, Unrouted };

struct Candidate {
  Kind kind = Kind::Accept;
  Architecture arch;
  /// For rejections: a rule the reasons must name.
  const char* rule = nullptr;
};

/// Tenant slice `index`: one periodic task; `chain` (if >= 0) binds its
/// output to tenant `chain`'s exported input, importing the capability
/// only when `import` is set.
void add_slice(Architecture& arch, std::size_t index, int period_ms,
               int cost_us, double budget, long chain, bool import) {
  const std::string prefix = "t" + std::to_string(index);
  auto& comp = arch.add_active(prefix + ".Task",
                               model::ActivationKind::Periodic,
                               rtsj::RelativeTime::milliseconds(period_ms));
  comp.set_cost(rtsj::RelativeTime::microseconds(cost_us));
  comp.set_criticality(model::Criticality::Low);
  comp.set_content_class("PerfbenchTenantTask");
  comp.set_swappable(true);
  comp.add_interface({"out", model::InterfaceRole::Client, "IChain"});
  comp.add_interface({"in", model::InterfaceRole::Server, "IChain"});
  auto& domain = arch.add_thread_domain(
      prefix + ".RT", model::DomainType::Realtime,
      static_cast<int>(11 + index % 17));  // RT band is [11, 38]
  auto& area = arch.add_memory_area(prefix + ".Area", model::AreaType::Heap, 0);
  arch.add_child(area, domain);
  arch.add_child(domain, comp);

  model::TenantDecl tenant;
  tenant.name = prefix;
  tenant.budget.cpu_utilization = budget;
  tenant.members.push_back(prefix + ".Task");
  tenant.exports.push_back({prefix + ".feed", prefix + ".Task", "in"});
  if (chain >= 0) {
    const std::string target = "t" + std::to_string(chain);
    model::Binding binding;
    binding.client = {prefix + ".Task", "out"};
    binding.server = {target + ".Task", "in"};
    binding.desc.protocol = model::Protocol::Asynchronous;
    binding.desc.buffer_size = 4;
    arch.add_binding(binding);
    if (import) tenant.imports.push_back({target + ".feed", target});
  }
  arch.add_tenant(std::move(tenant));
}

int pick_period(Rng& rng) {
  static const int kPeriods[] = {10, 20, 40};
  return kPeriods[rng.between(0, 2)];
}

Architecture make_residents(Rng& rng) {
  Architecture arch;
  for (std::size_t i = 0; i < kResidents; ++i) {
    add_slice(arch, i, pick_period(rng),
              static_cast<int>(rng.between(100, 300)), 0.05,
              i == 0 ? -1 : static_cast<long>(i - 1), true);
  }
  return arch;
}

/// One candidate of `kind` with seeded attributes.
Candidate make_candidate(Kind kind, Rng& rng) {
  Candidate c;
  c.kind = kind;
  const long chain = static_cast<long>(rng.between(0, kResidents - 1));
  const int period = pick_period(rng);
  const int cost = static_cast<int>(rng.between(100, 300));
  switch (kind) {
    case Kind::Accept:
      add_slice(c.arch, kResidents, period, cost, 0.05, chain, true);
      break;
    case Kind::Conflict:  // re-declares a resident tenant's names
      c.rule = "TENANT-COMPOSE-CONFLICT";
      add_slice(c.arch, static_cast<std::size_t>(chain), period, cost, 0.05,
                -1, false);
      break;
    case Kind::Overload:  // cost above period: RTA finds no bound
      c.rule = "TENANT-ADMIT-RTA";
      add_slice(c.arch, kResidents, 10, 12000, 2.0, chain, true);
      break;
    case Kind::Unrouted:  // binds into a resident without importing
      c.rule = "TENANT-CAPABILITY-ROUTED";
      add_slice(c.arch, kResidents, period, cost, 0.05, chain, false);
      break;
  }
  return c;
}

/// The pool: a fixed mix — 48 admissible candidates and 16 that must be
/// rejected (6 name conflicts, 5 overloads, 5 unrouted bindings) — with
/// seeded attributes, so every seed offers the same share of each path.
std::vector<Candidate> make_pool(Rng& rng) {
  std::vector<Candidate> pool;
  const std::pair<Kind, int> mix[] = {{Kind::Accept, 48},
                                      {Kind::Conflict, 6},
                                      {Kind::Overload, 5},
                                      {Kind::Unrouted, 5}};
  for (const auto& [kind, count] : mix) {
    for (int i = 0; i < count; ++i) pool.push_back(make_candidate(kind, rng));
  }
  return pool;
}

/// The per-layer replay of one admission: the same public calls admit()
/// makes, on the same inputs and along the same path, each timed.
struct Parts {
  double compose = 0, rules = 0, rta = 0, tenancy = 0, plan_reload = 0;
  double sum() const { return compose + rules + rta + tenancy + plan_reload; }
};

Parts replay(const model::AssemblyPlan& running, const Architecture& resident,
             const Architecture& candidate, std::uint64_t id) {
  Parts p;
  validate::Report report;
  Architecture merged;
  p.compose = timed(trace::kCompose, id, [&] {
    merged = tenant::merge_architectures(resident, candidate, report);
  });
  if (!report.ok()) return p;
  bool ok = true;
  p.rules = timed(trace::kRules, id,
                  [&] { ok = validate::validate(merged).ok() && ok; });
  p.rta = timed(trace::kRta, id, [&] {
    ok = sim::analyze(sim::tasks_from_architecture(merged)).all_schedulable &&
         ok;
  });
  const model::AssemblyPlan composed =
      soleil::snapshot_assembly(merged, running.partition_count());
  p.tenancy = timed(trace::kTenancy, id, [&] {
    ok = validate::validate_tenancy(composed).ok() && ok;
  });
  if (!ok) return p;
  p.plan_reload = timed(trace::kPlanReload, id,
                        [&] { (void)reconfig::plan_reload(running, merged); });
  return p;
}

struct Residents {
  Architecture arch;
  model::AssemblyPlan running;
};

}  // namespace

Result run_tenant_admit(const RunConfig& config) {
  Result result;
  // Every set-up repetition builds the same seeded residents.
  const Rng resident_rng(config.seed);
  const auto set_up = [&resident_rng] {
    Rng r = resident_rng;
    Residents built;
    built.arch = make_residents(r);
    if (!validate::validate(built.arch).ok()) {
      throw std::runtime_error("seeded residents fail validation");
    }
    built.running = soleil::snapshot_assembly(built.arch, 1);
    return built;
  };
  const Residents residents = set_up();
  Rng candidate_rng(config.seed ^ 0xC0FFEEULL);
  const std::vector<Candidate> pool = make_pool(candidate_rng);
  std::size_t expected_rejects = 0;
  for (const Candidate& c : pool) expected_rejects += c.kind != Kind::Accept;
  // Candidates are judged in seeded order, one pass through the pool at a
  // time, so every stretch of the run sees the pool's mix.
  std::vector<std::size_t> order(pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  const tenant::AdmissionController controller;
  std::vector<std::vector<double>> segment_us(kSegments);
  std::vector<std::vector<double>> setups(kSegments);
  std::vector<double> self_us;
  std::vector<double> compose_us, rules_us, rta_us, tenancy_us, reload_us;
  std::uint64_t correct_verdicts = 0;
  std::uint64_t wrong_verdicts = 0;
  std::uint64_t rejected = 0;
  const double start = now_s();
  const double end = start + config.seconds;
  const double segment_s = config.seconds / kSegments;
  std::uint64_t n = 0;
  for (double now = start; now < end; now = now_s()) {
    const int seg = std::min(kSegments - 1,
                             static_cast<int>((now - start) / segment_s));
    if (setups[seg].empty()) {
      for (int i = 0; i < kSetupsPerSegment; ++i) {
        const double t0 = now_s();
        const Residents repeated = set_up();
        setups[seg].push_back(now_s() - t0);
      }
    }
    if (n % pool.size() == 0) {
      for (std::size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[candidate_rng.between(0, i)]);
      }
    }
    const Candidate& c = pool[order[n % pool.size()]];
    // Traced runs trace the second half of the segments.
    const bool traced = config.trace && seg >= kSegments / 2;
    trace::set_enabled(traced);
    const std::int64_t t0 = trace::now_ns();
    const tenant::AdmissionDecision decision =
        controller.admit(residents.running, residents.arch, c.arch);
    const std::int64_t t1 = trace::now_ns();
    const double us = static_cast<double>(t1 - t0) / 1000.0;
    segment_us[seg].push_back(us);
    const bool expect_accept = c.kind == Kind::Accept;
    bool right = decision.accepted == expect_accept;
    if (right && !expect_accept) right = decision.reason_for(c.rule) != nullptr;
    if (right) {
      ++correct_verdicts;
    } else if (++wrong_verdicts <= 3) {
      result.note("wrong verdict: candidate kind %d accepted=%d (%s)",
                  static_cast<int>(c.kind), decision.accepted ? 1 : 0,
                  decision.report.to_string().substr(0, 200).c_str());
    }
    rejected += !decision.accepted;
    if (traced) {
      trace::record(trace::kAdmit, n, 0, t0, t1);
      const Parts p = replay(residents.running, residents.arch, c.arch, n);
      self_us.push_back(us - p.sum());
      compose_us.push_back(p.compose);
      rules_us.push_back(p.rules);
      rta_us.push_back(p.rta);
      tenancy_us.push_back(p.tenancy);
      if (p.plan_reload > 0.0) reload_us.push_back(p.plan_reload);
    }
    ++n;
  }
  trace::set_enabled(false);
  // Before the analysis below allocates: rss_peak_mb is the workload's.
  const double rss_mb = rss_peak_mb();

  result.attempted = n;
  if (wrong_verdicts != 0) {
    result.fail_check(std::to_string(wrong_verdicts) +
                      " admission verdicts differ from the generator's");
  }
  std::vector<std::vector<double>> untraced_segments, traced_segments;
  for (int seg = 0; seg < kSegments; ++seg) {
    const bool traced_segment = config.trace && seg >= kSegments / 2;
    (traced_segment ? traced_segments : untraced_segments)
        .push_back(std::move(segment_us[seg]));
  }
  const QuietQuarter quiet = quiet_quarter(untraced_segments);
  const Distribution& admit = quiet.pooled;
  const double admits_per_s =
      static_cast<double>(admit.n) /
      (segment_s * static_cast<double>(quiet.segments.size()));
  const std::vector<double> quiet_setups =
      pool_segments(setups, quiet.segments);
  const double setup_s = median_of(quiet_setups);
  note_setups(result, quiet_setups);
  for (const auto& segment : untraced_segments) {
    note_distribution(result, "admit_us (segment)", summarize(segment), "us");
  }
  note_distribution(result, "admit_us (quiet quarter)", admit, "us");
  result.note("%zu residents, pool of %zu candidates (%zu to reject); %llu "
              "admits, %llu rejected, %llu verdicts right",
              kResidents, pool.size(), expected_rejects,
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(correct_verdicts));
  if (!config.trace && !admit.p99_supported) {
    result.fail_check("too few admissions for p99");
  }
  result.named("setup_s", "s", setup_s);
  result.named("rss_peak_mb", "MB", rss_mb);
  result.named("admit_p50_us", "us", admit.p50);
  result.named("admit_p99_us", "us", admit.p99);

  result.add_e2e("setup_s", setup_s);
  result.add_e2e("rss_peak_mb", rss_mb);
  result.add_e2e("op_p50_us", admit.p50);
  result.add_e2e("op_p99_us", admit.p99);
  result.add_e2e("op_per_s", admits_per_s);
  result.add_e2e("op_ok_ratio", ratio(correct_verdicts, n));

  if (config.trace) {
    const double traced = quiet_quarter(traced_segments).pooled.p50;
    result.add_layer("validate.rules_us", summarize(rules_us).p50);
    result.add_layer("validate.tenancy_us", summarize(tenancy_us).p50);
    result.add_layer("reconfig.plan_reload_us", summarize(reload_us).p50);
    result.add_layer("sim.rta_us", summarize(rta_us).p50);
    result.add_layer("tenant.compose_us", summarize(compose_us).p50);
    result.add_layer("tenant.admit_self_us", summarize(self_us).p50);
    result.add_layer("trace.overhead_pct",
                     (traced - admit.p50) / admit.p50 * 100.0);
    result.note("admit_p50_us traced %.3f vs untraced %.3f", traced,
                admit.p50);
    result.note("replayed parts (p50 us): compose %.1f, rules %.1f, rta %.1f, "
                "tenancy %.1f, plan_reload %.1f, admit self %.1f",
                summarize(compose_us).p50, summarize(rules_us).p50,
                summarize(rta_us).p50, summarize(tenancy_us).p50,
                summarize(reload_us).p50, summarize(self_us).p50);
    const std::vector<Span> spans = trace::collect();
    save_trace(config, spans, result);
  }
  return result;
}

}  // namespace perfbench
