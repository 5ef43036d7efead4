#include "load.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <string_view>

namespace e2e {

std::string flag(int argc, char** argv, const std::string& name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (name == argv[i]) return argv[i + 1];
  }
  return "";
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

}  // namespace e2e

int main(int argc, char** argv) {
  const std::string_view mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "sim") return e2e::run_sim(argc, argv);
    if (mode == "drive") return e2e::run_drive(argc, argv);
    if (mode == "erasure") return e2e::run_erasure(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_load: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "usage: e2e_load sim|drive|erasure ... (see load.hpp)\n");
  return 2;
}
