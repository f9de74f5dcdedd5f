#ifndef SCADDAR_E2E_BENCH_WORKLOADS_H_
#define SCADDAR_E2E_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "episode.h"
#include "trace.h"

namespace scaddar::e2e {

struct EpisodeContext {
  uint64_t seed = 0;
  std::string image_root;  // Inside the checkout; holds block images.
};

using WorkloadFn = EpisodeResult (*)(const EpisodeContext&, Tracer*);

struct Workload {
  const char* name;
  const char* why;
  WorkloadFn run;
};

/// The four workloads, in the order the README describes them.
const Workload* FindWorkload(const std::string& name);

}  // namespace scaddar::e2e

#endif  // SCADDAR_E2E_BENCH_WORKLOADS_H_
