// e2e_load: the compiled half of the end-to-end benchmark (run.py is the
// other half). Three subcommands, each printing one JSON object on stdout:
//
//   e2e_load sim --seed N --out FILE
//       The sim-layer measurement at the n = 64 overload point (sim.cpp).
//       Writes the probed run's exact ack latencies (ns, one a line) to FILE.
//
//   e2e_load drive --manifest FILE --window-s M --seed N --out FILE
//       A single-threaded open-loop Poisson client for a leopard_node
//       cluster (drive.cpp pins its rate, warmup and grace). Prints
//       "window_start"/"window_end" markers on stdout at the window edges,
//       writes one line per request due in the window to FILE, and prints
//       its summary JSON last.
//
//   e2e_load erasure --manifest FILE
//       Times the Reed-Solomon encode and decode a replica runs on one
//       Query, for one full datablock of the manifest's cluster
//       (leopard_node exports no erasure timer).
//
// Every flag named here is required.
#pragma once

#include <cstdint>
#include <string>

namespace e2e {

int run_sim(int argc, char** argv);
int run_drive(int argc, char** argv);
int run_erasure(int argc, char** argv);

/// Minimal flag lookup: the value following `name`, or "" when absent.
std::string flag(int argc, char** argv, const std::string& name);

/// Process CPU time (user + system) in seconds.
double process_cpu_seconds();

}  // namespace e2e
