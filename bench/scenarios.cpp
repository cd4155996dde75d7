#include "scenarios.hpp"

#include <ctime>

namespace ouessant::scenarios {

void register_all_scenarios(exp::Registry& r) {
  register_e1_table1(r);
  register_e2_resources(r);
  register_e3_linux_overhead(r);
  register_e4_transfer(r);
  register_e5_integration(r);
  register_e6_isa_ext(r);
  register_e7_dpr(r);
  register_e8_bus_portability(r);
  register_e9_jpeg(r);
  register_e10_coupled(r);
  register_e11_l3_validation(r);
  register_e12_contention(r);
  register_kernel_guard(r);
  register_speed(r);
  register_serve(r);
  register_serve_faulty(r);
  register_fleet_warmboot(r);
  register_dpr_farm(r);
  register_chain(r);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

void check_host_budget(double bare_s, double armed_s, double factor,
                       exp::Result& result) {
  constexpr double kSlackSeconds = 0.25;
  const double budget = factor * bare_s + kSlackSeconds;
  result.add_metric("bare_cpu_s", bare_s);
  result.add_metric("armed_cpu_s", armed_s);
  result.add_metric("budget_cpu_s", budget);
  if (armed_s > budget) {
    result.fail("instrumented run over its host budget: bare " +
                std::to_string(bare_s) + " s, armed " +
                std::to_string(armed_s) + " s, budget " +
                std::to_string(budget) + " s (thread CPU)");
  }
}

}  // namespace ouessant::scenarios
