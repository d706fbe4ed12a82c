#include "common/distributions.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/check.hpp"

namespace das {

namespace {

class ConstantDist final : public RealDistribution {
 public:
  explicit ConstantDist(double v) : v_(v) { DAS_CHECK(v >= 0); }
  double sample(Rng&) const override { return v_; }
  double mean() const override { return v_; }
  std::string describe() const override {
    std::ostringstream os;
    os << "constant(" << v_ << ")";
    return os.str();
  }

 private:
  double v_;
};

class UniformRealDist final : public RealDistribution {
 public:
  UniformRealDist(double lo, double hi) : lo_(lo), hi_(hi) { DAS_CHECK(lo <= hi); }
  double sample(Rng& rng) const override { return rng.uniform(lo_, hi_); }
  double mean() const override { return 0.5 * (lo_ + hi_); }
  std::string describe() const override {
    std::ostringstream os;
    os << "uniform(" << lo_ << ", " << hi_ << ")";
    return os.str();
  }

 private:
  double lo_, hi_;
};

class ExponentialDist final : public RealDistribution {
 public:
  explicit ExponentialDist(double mean) : mean_(mean) { DAS_CHECK(mean > 0); }
  double sample(Rng& rng) const override { return rng.exponential(mean_); }
  double mean() const override { return mean_; }
  std::string describe() const override {
    std::ostringstream os;
    os << "exp(mean=" << mean_ << ")";
    return os.str();
  }

 private:
  double mean_;
};

class LognormalDist final : public RealDistribution {
 public:
  LognormalDist(double target_mean, double sigma) : mean_(target_mean), sigma_(sigma) {
    DAS_CHECK(target_mean > 0);
    DAS_CHECK(sigma >= 0);
    // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); solve for mu.
    mu_ = std::log(target_mean) - 0.5 * sigma * sigma;
  }
  double sample(Rng& rng) const override { return rng.lognormal(mu_, sigma_); }
  double mean() const override { return mean_; }
  std::string describe() const override {
    std::ostringstream os;
    os << "lognormal(mean=" << mean_ << ", sigma=" << sigma_ << ")";
    return os.str();
  }

 private:
  double mean_, sigma_, mu_;
};

class GeneralizedParetoDist final : public RealDistribution {
 public:
  GeneralizedParetoDist(double loc, double scale, double shape, double cap)
      : loc_(loc), scale_(scale), shape_(shape), cap_(cap) {
    DAS_CHECK(scale > 0);
    DAS_CHECK(shape > 0);
    DAS_CHECK(cap > loc);
    // Mean of the capped variable min(X, cap) computed by integrating the
    // survival function: E = loc + ∫_loc^cap S(x) dx with
    // S(x) = (1 + shape*(x-loc)/scale)^(-1/shape).
    const double a = 1.0 - 1.0 / shape_;
    const double zcap = 1.0 + shape_ * (cap_ - loc_) / scale_;
    // ∫ (1+k t/s)^(-1/k) dt from 0 to (cap-loc) = s/(k a) [z^a - 1] with
    // a = 1 - 1/k  (valid for shape != 1; shape is < 1 in practice).
    double integral;
    if (std::abs(a) < 1e-12) {
      integral = scale_ / shape_ * std::log(zcap);
    } else {
      integral = scale_ / (shape_ * a) * (std::pow(zcap, a) - 1.0);
    }
    mean_ = loc_ + integral;
  }

  double sample(Rng& rng) const override {
    const double u = rng.next_double();  // in [0,1)
    const double x = loc_ + scale_ * (std::pow(1.0 - u, -shape_) - 1.0) / shape_;
    return std::min(x, cap_);
  }
  double mean() const override { return mean_; }
  std::string describe() const override {
    std::ostringstream os;
    os << "gpareto(loc=" << loc_ << ", scale=" << scale_ << ", shape=" << shape_
       << ", cap=" << cap_ << ")";
    return os.str();
  }

 private:
  double loc_, scale_, shape_, cap_, mean_;
};

class FixedInt final : public IntDistribution {
 public:
  explicit FixedInt(std::uint32_t k) : k_(k) { DAS_CHECK(k >= 1); }
  std::uint32_t sample(Rng&) const override { return k_; }
  double mean() const override { return k_; }
  std::string describe() const override { return "fixed(" + std::to_string(k_) + ")"; }

 private:
  std::uint32_t k_;
};

class UniformInt final : public IntDistribution {
 public:
  UniformInt(std::uint32_t lo, std::uint32_t hi) : lo_(lo), hi_(hi) {
    DAS_CHECK(lo >= 1);
    DAS_CHECK(lo <= hi);
  }
  std::uint32_t sample(Rng& rng) const override {
    return lo_ + static_cast<std::uint32_t>(rng.next_below(hi_ - lo_ + 1));
  }
  double mean() const override { return 0.5 * (lo_ + hi_); }
  std::string describe() const override {
    return "uniform_int(" + std::to_string(lo_) + ", " + std::to_string(hi_) + ")";
  }

 private:
  std::uint32_t lo_, hi_;
};

class GeometricInt final : public IntDistribution {
 public:
  GeometricInt(double p, std::uint32_t cap) : p_(p), cap_(cap) {
    DAS_CHECK(p > 0 && p <= 1);
    DAS_CHECK(cap >= 1);
    // Mean of min(G, cap) where G is shifted-geometric on {1,2,...}:
    // E = sum_{j=0}^{cap-1} P(G > j) = sum_{j=0}^{cap-1} (1-p)^j.
    const double q = 1.0 - p;
    mean_ = (q >= 1.0) ? cap : (1.0 - std::pow(q, cap)) / p;
  }
  std::uint32_t sample(Rng& rng) const override {
    // Inversion: G = 1 + floor(ln U / ln(1-p)); careful at p == 1.
    if (p_ >= 1.0) return 1;
    const double u = 1.0 - rng.next_double();  // (0,1]
    const double g = 1.0 + std::floor(std::log(u) / std::log(1.0 - p_));
    return static_cast<std::uint32_t>(std::min<double>(g, cap_));
  }
  double mean() const override { return mean_; }
  std::string describe() const override {
    std::ostringstream os;
    os << "geometric(p=" << p_ << ", cap=" << cap_ << ")";
    return os.str();
  }

 private:
  double p_;
  std::uint32_t cap_;
  double mean_;
};

class ZipfInt final : public IntDistribution {
 public:
  ZipfInt(std::uint32_t n, double theta) : gen_(n, theta) {
    double m = 0;
    for (std::uint64_t r = 0; r < n; ++r) m += static_cast<double>(r + 1) * gen_.pmf(r);
    mean_ = m;
  }
  std::uint32_t sample(Rng& rng) const override {
    return static_cast<std::uint32_t>(gen_.sample(rng) + 1);
  }
  double mean() const override { return mean_; }
  std::string describe() const override {
    std::ostringstream os;
    os << "zipf_int(n=" << gen_.universe() << ", theta=" << gen_.theta() << ")";
    return os.str();
  }

 private:
  ZipfGenerator gen_;
  double mean_;
};

class BimodalInt final : public IntDistribution {
 public:
  BimodalInt(std::uint32_t small, std::uint32_t large, double p_large)
      : small_(small), large_(large), p_(p_large) {
    DAS_CHECK(small >= 1);
    DAS_CHECK(large >= small);
    DAS_CHECK(p_large >= 0 && p_large <= 1);
  }
  std::uint32_t sample(Rng& rng) const override { return rng.chance(p_) ? large_ : small_; }
  double mean() const override { return p_ * large_ + (1 - p_) * small_; }
  std::string describe() const override {
    std::ostringstream os;
    os << "bimodal(" << small_ << "/" << large_ << ", p_large=" << p_ << ")";
    return os.str();
  }

 private:
  std::uint32_t small_, large_;
  double p_;
};

/// Real-valued two-point mixture; the canonical "mostly small values, rare
/// large ones" shape for KV value sizes (drives size-dependent store costs).
class BimodalReal final : public RealDistribution {
 public:
  BimodalReal(double small, double large, double p_large)
      : small_(small), large_(large), p_(p_large) {
    DAS_CHECK(small > 0);
    DAS_CHECK(large >= small);
    DAS_CHECK(p_large >= 0 && p_large <= 1);
  }
  double sample(Rng& rng) const override { return rng.chance(p_) ? large_ : small_; }
  double mean() const override { return p_ * large_ + (1 - p_) * small_; }
  std::string describe() const override {
    std::ostringstream os;
    os << "bimodal_real(" << small_ << "/" << large_ << ", p_large=" << p_ << ")";
    return os.str();
  }

 private:
  double small_, large_;
  double p_;
};

class DiscreteInt final : public IntDistribution {
 public:
  DiscreteInt(std::vector<std::uint32_t> values, std::vector<double> weights)
      : values_(std::move(values)) {
    DAS_CHECK(!values_.empty());
    DAS_CHECK(values_.size() == weights.size());
    double total = 0;
    for (double w : weights) {
      DAS_CHECK(w >= 0);
      total += w;
    }
    DAS_CHECK(total > 0);
    cdf_.reserve(weights.size());
    double acc = 0, m = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i] / total;
      cdf_.push_back(acc);
      m += values_[i] * weights[i] / total;
    }
    cdf_.back() = 1.0;
    mean_ = m;
  }
  std::uint32_t sample(Rng& rng) const override {
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return values_[static_cast<std::size_t>(it - cdf_.begin())];
  }
  double mean() const override { return mean_; }
  std::string describe() const override {
    return "discrete(" + std::to_string(values_.size()) + " points)";
  }

 private:
  std::vector<std::uint32_t> values_;
  std::vector<double> cdf_;
  double mean_;
};

}  // namespace

RealDistPtr make_constant(double value) { return std::make_shared<ConstantDist>(value); }
RealDistPtr make_uniform_real(double lo, double hi) {
  return std::make_shared<UniformRealDist>(lo, hi);
}
RealDistPtr make_exponential(double mean) { return std::make_shared<ExponentialDist>(mean); }
RealDistPtr make_lognormal_mean(double mean, double sigma) {
  return std::make_shared<LognormalDist>(mean, sigma);
}
RealDistPtr make_generalized_pareto(double location, double scale, double shape,
                                    double cap) {
  return std::make_shared<GeneralizedParetoDist>(location, scale, shape, cap);
}
RealDistPtr make_bimodal_real(double small, double large, double p_large) {
  return std::make_shared<BimodalReal>(small, large, p_large);
}

IntDistPtr make_fixed_int(std::uint32_t k) { return std::make_shared<FixedInt>(k); }
IntDistPtr make_uniform_int(std::uint32_t lo, std::uint32_t hi) {
  return std::make_shared<UniformInt>(lo, hi);
}
IntDistPtr make_geometric(double p, std::uint32_t cap) {
  return std::make_shared<GeometricInt>(p, cap);
}
IntDistPtr make_zipf_int(std::uint32_t n, double theta) {
  return std::make_shared<ZipfInt>(n, theta);
}
IntDistPtr make_bimodal(std::uint32_t small, std::uint32_t large, double p_large) {
  return std::make_shared<BimodalInt>(small, large, p_large);
}
IntDistPtr make_discrete(std::vector<std::uint32_t> values, std::vector<double> weights) {
  return std::make_shared<DiscreteInt>(std::move(values), std::move(weights));
}

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  DAS_CHECK(n >= 1);
  DAS_CHECK(n < (std::uint64_t{1} << 32));
  DAS_CHECK(theta >= 0);
  cdf_.resize(n);
  double acc = 0;
  for (std::uint64_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_[r] = acc;
  }
  norm_ = acc;
  for (auto& c : cdf_) c /= norm_;
  cdf_.back() = 1.0;

  // About four ranks per bucket; k / B is exact because B is a power of two.
  const std::uint64_t buckets = std::bit_ceil(std::max<std::uint64_t>(1, n / 4));
  const double width = 1.0 / static_cast<double>(buckets);
  guide_.resize(buckets + 1);
  std::uint32_t rank = 0;
  for (std::uint64_t k = 0; k <= buckets; ++k) {
    const double edge = static_cast<double>(k) * width;
    while (cdf_[rank] < edge) ++rank;  // terminates: cdf_.back() == 1.0
    guide_[k] = rank;
  }
}

std::uint64_t ZipfGenerator::rank_at(double u) const {
  // u * B is exact (B is a power of two), so bucket k satisfies
  // k/B <= u < (k+1)/B and the answer lies in [guide_[k], guide_[k+1]].
  const auto k = static_cast<std::size_t>(u * static_cast<double>(buckets()));
  const double* first = cdf_.data() + guide_[k];
  const double* last = cdf_.data() + guide_[k + 1];
  return static_cast<std::uint64_t>(std::lower_bound(first, last, u) - cdf_.data());
}

double ZipfGenerator::pmf(std::uint64_t rank) const {
  DAS_CHECK(rank < n_);
  return 1.0 / (std::pow(static_cast<double>(rank + 1), theta_) * norm_);
}

}  // namespace das
