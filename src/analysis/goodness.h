#pragma once

#include <span>

#include "sim/rng.h"

namespace ppsim::analysis {

/// Result of a bootstrap: point estimate plus a percentile confidence
/// interval.
struct BootstrapInterval {
  double estimate = 0;
  double lo = 0;
  double hi = 0;
};

/// Percentile bootstrap of the mean of `samples` (resamples with
/// replacement), the uncertainty of a scalar such as a locality share over
/// seeds. `confidence` in (0, 1), e.g. 0.95.
BootstrapInterval bootstrap_mean(std::span<const double> samples,
                                 sim::Rng& rng, int resamples = 1000,
                                 double confidence = 0.95);

}  // namespace ppsim::analysis
