#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ppsim::analysis {

/// Cumulative contribution curve over *ranked* contributors: element k of
/// the result is the fraction of the total contributed by the top (k+1)
/// contributors. This is the curve behind Figures 11(c)-14(c).
std::vector<double> cumulative_share(std::span<const double> contributions);

/// Fraction of the total contributed by the top `fraction` (0..1] of
/// contributors — e.g. top_share(bytes, 0.10) is the paper's headline
/// "top 10% of connected peers provide ~70% of the traffic".
double top_share(std::span<const double> contributions, double fraction);

}  // namespace ppsim::analysis
