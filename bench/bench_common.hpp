// Shared helpers for the paper-reproduction benches: each bench binary
// regenerates one table or figure of the evaluation (§VI) and prints the
// paper's rows/series. Absolute numbers are simulator-calibrated; the shapes
// (who wins, by what factor, where crossovers fall) are the reproduction
// target (see EXPERIMENTS.md).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "table2_batches.hpp"

namespace leopard::bench {

/// Collects rows printed after the google-benchmark run so each binary ends
/// with a paper-style table.
class TablePrinter {
 public:
  explicit TablePrinter(std::string title, std::vector<std::string> columns)
      : title_(std::move(title)), columns_(std::move(columns)) {}

  void add_row(std::vector<std::string> cells) {
    const std::lock_guard<std::mutex> lock(mu_);
    rows_.push_back(std::move(cells));
  }

  ~TablePrinter() { print(); }

  void print() const {
    std::printf("\n=== %s ===\n", title_.c_str());
    for (const auto& col : columns_) std::printf("%-16s", col.c_str());
    std::printf("\n");
    for (const auto& row : rows_) {
      for (const auto& cell : row) std::printf("%-16s", cell.c_str());
      std::printf("\n");
    }
    std::fflush(stdout);
  }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
  mutable std::mutex mu_;
};

inline std::string fmt(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// Runs one experiment inside a benchmark loop and exports headline counters.
inline harness::ExperimentResult run_and_count(benchmark::State& state,
                                               const harness::ExperimentConfig& cfg) {
  harness::ExperimentResult result;
  for (auto _ : state) {
    result = harness::run_experiment(cfg);
  }
  state.counters["kreqs_per_s"] = result.throughput_kreqs;
  state.counters["latency_s"] = result.mean_latency_sec;
  state.counters["leader_send_Mbps"] = result.leader_send_bps / 1e6;
  return result;
}

}  // namespace leopard::bench
