// Random-variate families used by the workload generators.
//
// Every distribution exposes its analytic mean(): the experiment harness
// calibrates the open-loop arrival rate to hit a target utilisation, which
// requires E[service demand] in closed form rather than by Monte Carlo.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace das {

/// A real-valued random variate family. Implementations are immutable after
/// construction; sampling draws entropy only from the caller's Rng so the
/// same object can serve many deterministic streams.
class RealDistribution {
 public:
  virtual ~RealDistribution() = default;
  /// Draws one sample.
  virtual double sample(Rng& rng) const = 0;
  /// Exact expected value.
  virtual double mean() const = 0;
  /// Human-readable description for bench/report labels.
  virtual std::string describe() const = 0;
};

using RealDistPtr = std::shared_ptr<const RealDistribution>;

/// Point mass at `value`.
RealDistPtr make_constant(double value);
/// Uniform on [lo, hi].
RealDistPtr make_uniform_real(double lo, double hi);
/// Exponential with the given mean.
RealDistPtr make_exponential(double mean);
/// Lognormal parameterised by its own mean and the sigma of the underlying
/// normal (mu is derived), convenient for "mean X with heavy tail" workloads.
RealDistPtr make_lognormal_mean(double mean, double sigma);
/// Generalized Pareto (location, scale, shape>0), truncated at `cap` to keep
/// the mean finite and the simulation stable; models Facebook-ETC-like value
/// sizes. mean() is computed for the truncated law.
RealDistPtr make_generalized_pareto(double location, double scale, double shape,
                                    double cap);
/// Real two-point mixture: `small` w.p. (1-p_large), else `large`. The value
/// sizes of a "mostly small, occasionally huge" KV workload.
RealDistPtr make_bimodal_real(double small, double large, double p_large);

/// Integer-valued family (multiget fan-out, replica counts, ...).
class IntDistribution {
 public:
  virtual ~IntDistribution() = default;
  virtual std::uint32_t sample(Rng& rng) const = 0;
  virtual double mean() const = 0;
  virtual std::string describe() const = 0;
};

using IntDistPtr = std::shared_ptr<const IntDistribution>;

/// Point mass at k (k >= 1).
IntDistPtr make_fixed_int(std::uint32_t k);
/// Uniform integer on [lo, hi].
IntDistPtr make_uniform_int(std::uint32_t lo, std::uint32_t hi);
/// Shifted geometric on {1, 2, ...} with success probability p in (0, 1],
/// truncated at `cap`.
IntDistPtr make_geometric(double p, std::uint32_t cap);
/// Zipf-distributed integer on {1..n} with exponent theta >= 0 (theta = 0 is
/// uniform); heavier tail toward 1 for larger theta.
IntDistPtr make_zipf_int(std::uint32_t n, double theta);
/// Two-point mixture: `small` w.p. (1-p_large), else `large`.
IntDistPtr make_bimodal(std::uint32_t small, std::uint32_t large, double p_large);
/// Arbitrary finite support with weights (need not be normalised).
IntDistPtr make_discrete(std::vector<std::uint32_t> values, std::vector<double> weights);

/// Zipf sampler over ranks {0..n-1}: rank 0 is the most popular. Exact
/// inverse-CDF sampling over a precomputed table; O(n) setup, O(1) expected
/// draw. A guide table (Chen & Asau's indexed search) over B buckets narrows
/// each lookup to the CDF entries of one bucket; B is a power of two, so u*B
/// and k/B are exact and the result is exactly the full-range lower_bound.
/// theta = 0 degenerates to uniform.
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta);

  std::uint64_t sample(Rng& rng) const { return rank_at(rng.next_double()); }
  /// The rank a uniform draw `u` in [0, 1) maps to: the first rank whose
  /// cumulative probability is >= u.
  std::uint64_t rank_at(double u) const;
  std::uint64_t universe() const { return n_; }
  double theta() const { return theta_; }
  /// P(rank = r).
  double pmf(std::uint64_t rank) const;
  /// Cumulative probabilities by rank (size n, last entry exactly 1).
  const std::vector<double>& cdf() const { return cdf_; }
  /// Number of guide-table buckets (a power of two).
  std::size_t buckets() const { return guide_.size() - 1; }

 private:
  std::uint64_t n_;
  double theta_;
  double norm_;                 // generalized harmonic H_{n,theta}
  std::vector<double> cdf_;     // cumulative probabilities, size n
  /// guide_[k] = first rank with cdf >= k / buckets(), for k = 0..buckets();
  /// the answer for any u in [k/B, (k+1)/B) lies in [guide_[k], guide_[k+1]].
  std::vector<std::uint32_t> guide_;
};

}  // namespace das
