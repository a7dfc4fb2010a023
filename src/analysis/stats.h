#pragma once

#include <span>

namespace ppsim::analysis {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs);

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 points.
double stddev(std::span<const double> xs);

/// p-th percentile (0..100) by linear interpolation on the sorted copy.
double percentile(std::span<const double> xs, double p);

double median(std::span<const double> xs);

/// Pearson correlation coefficient; 0 when either side is constant or the
/// spans are shorter than 2 (no meaningful correlation).
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Sums of a span (convenience for share computations).
double sum(std::span<const double> xs);

}  // namespace ppsim::analysis
