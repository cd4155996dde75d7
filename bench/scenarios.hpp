// Registration entry points for every paper experiment (E1–E12) plus the
// simulator guards. Each bench/bench_*.cpp file registers the scenarios
// for one experiment; register_all_scenarios() assembles the whole
// registry in E-order. The registry is built once, single-threaded, and
// read-only afterwards — the isolation rule parallel sweeps rely on.
#pragma once

#include "exp/scenario.hpp"

namespace ouessant::scenarios {

void register_e1_table1(exp::Registry& r);          // bench_table1.cpp
void register_e2_resources(exp::Registry& r);       // bench_resources.cpp
void register_e3_linux_overhead(exp::Registry& r);  // bench_linux_overhead.cpp
void register_e4_transfer(exp::Registry& r);        // bench_transfer.cpp
void register_e5_integration(exp::Registry& r);     // bench_integration.cpp
void register_e6_isa_ext(exp::Registry& r);         // bench_isa_ext.cpp
void register_e7_dpr(exp::Registry& r);             // bench_dpr.cpp
void register_e8_bus_portability(exp::Registry& r); // bench_bus_portability.cpp
void register_e9_jpeg(exp::Registry& r);            // bench_jpeg.cpp
void register_e10_coupled(exp::Registry& r);        // bench_coupled.cpp
void register_e11_l3_validation(exp::Registry& r);  // bench_l3_validation.cpp
void register_e12_contention(exp::Registry& r);     // bench_contention.cpp
void register_kernel_guard(exp::Registry& r);       // bench_kernel_guard.cpp
void register_speed(exp::Registry& r);              // bench_speed.cpp
void register_serve(exp::Registry& r);              // bench_serve.cpp
void register_serve_faulty(exp::Registry& r);       // bench_serve_faulty.cpp
void register_fleet_warmboot(exp::Registry& r);     // bench_fleet.cpp
void register_dpr_farm(exp::Registry& r);           // bench_dpr_farm.cpp
void register_chain(exp::Registry& r);              // bench_chain.cpp

/// Everything above, in E-order. Call once at startup.
void register_all_scenarios(exp::Registry& r);

/// Host CPU seconds the calling thread has consumed. The passivity guards
/// time both sides of their host budget with it: sweep workers share the
/// host, and wall time would charge one run for its neighbours' load.
[[nodiscard]] double thread_cpu_seconds();

/// A passivity guard's host budget: the instrumented run (@p armed_s) may
/// cost at most @p factor x the bare run (@p bare_s) plus a 0.25 s slack
/// floor that keeps short runs from flaking on scheduler noise. Records
/// all three as metrics and fails @p result when the budget is exceeded.
void check_host_budget(double bare_s, double armed_s, double factor,
                       exp::Result& result);

}  // namespace ouessant::scenarios
