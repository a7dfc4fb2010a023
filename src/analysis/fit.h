#pragma once

#include <span>
#include <vector>

namespace ppsim::analysis {

/// Ordinary least-squares line y = slope * x + intercept with the
/// coefficient of determination computed in the same (x, y) space.
struct LinearFit {
  double slope = 0;
  double intercept = 0;
  double r2 = 0;
};

LinearFit least_squares(std::span<const double> xs, std::span<const double> ys);

/// Zipf rank-distribution fit: y_i ∝ i^-alpha, fitted as a line in
/// log(rank)-log(value) space. `r2` says how straight the data is in
/// log-log — the paper uses a *low* R² here as evidence the request
/// distribution is not Zipf.
struct ZipfFit {
  double alpha = 0;  // positive for decaying rank distributions
  double r2 = 0;
};

/// `ranked` must be sorted in descending order (rank 1 first).
ZipfFit fit_zipf(std::span<const double> ranked);

/// Stretched-exponential rank-distribution fit, the model the paper fits
/// to request counts and traffic contributions (Figures 11-14):
///
///     y_i^c = -a * log(i) + b,   1 <= i <= n   (natural log)
///
/// i.e. the data is a straight line when the y axis is raised to the
/// power c and the x axis is logarithmic (the "SE scale"). The CCDF of
/// such data is Weibull. `c` is selected by grid search over 0.05, 0.10,
/// ..., 1.0 to maximize R² of the inner linear fit in (log i, y^c) space.
struct StretchedExpFit {
  double c = 0;   // stretch exponent, typically 0.2-0.4 in the paper
  double a = 0;   // slope magnitude (paper's `a`)
  double b = 0;   // intercept (paper's `b`)
  double r2 = 0;  // in SE-transformed space
};

/// `ranked` must be sorted descending with positive values.
StretchedExpFit fit_stretched_exponential(std::span<const double> ranked);

/// Generates an n-point synthetic rank distribution that follows the
/// stretched-exponential model exactly (y_n = 1 boundary condition, so
/// b = 1 + a log n as in the paper's Eq. (2)). Used by tests and by the
/// workload library to synthesize realistic request mixes.
std::vector<double> stretched_exponential_series(std::size_t n, double c,
                                                 double a);

}  // namespace ppsim::analysis
