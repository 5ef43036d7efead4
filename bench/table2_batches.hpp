// The paper's Table II batch parameters, apart from bench_common.hpp so
// benches that do not link google-benchmark (bench_hotpath) can use them.
#pragma once

#include "harness/experiment.hpp"

namespace leopard::bench {

/// The paper's Table II batch parameters for Leopard at scale n.
inline void apply_table2_batches(harness::ExperimentConfig& cfg) {
  if (cfg.n <= 64) {
    cfg.datablock_requests = 2000;
    cfg.bftblock_links = 100;
  } else if (cfg.n <= 128) {
    cfg.datablock_requests = 3000;
    cfg.bftblock_links = 300;
  } else if (cfg.n <= 300) {
    cfg.datablock_requests = 4000;
    cfg.bftblock_links = 300;
  } else {
    cfg.datablock_requests = 4000;
    cfg.bftblock_links = 400;
  }
}

}  // namespace leopard::bench
