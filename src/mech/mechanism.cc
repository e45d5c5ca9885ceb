#include "mech/mechanism.h"

#include <cmath>
#include <limits>

#include "common/math.h"

namespace hdldp {
namespace mech {

bool Interval::IsFinite() const {
  return std::isfinite(lo) && std::isfinite(hi);
}

Result<DomainMap> DomainMap::Between(const Interval& from, const Interval& to) {
  if (!from.IsFinite() || !to.IsFinite()) {
    return Status::InvalidArgument("DomainMap endpoints must be finite");
  }
  if (from.Width() <= 0.0 || to.Width() <= 0.0) {
    return Status::InvalidArgument("DomainMap intervals must be non-degenerate");
  }
  const double scale = to.Width() / from.Width();
  const double offset = to.lo - scale * from.lo;
  return DomainMap(scale, offset);
}

Status Mechanism::ValidateBudget(double eps) const {
  if (!(eps > 0.0) || !std::isfinite(eps)) {
    return Status::InvalidArgument(std::string(Name()) +
                                   ": privacy budget must be finite and > 0");
  }
  return Status::OK();
}

Status Mechanism::ValidateMomentArgs(double t, double eps) const {
  HDLDP_RETURN_NOT_OK(ValidateBudget(eps));
  const Interval dom = InputDomain();
  // Tolerate round-off from domain mapping.
  const double slack = 1e-9 * std::max(1.0, dom.Width());
  if (!(t >= dom.lo - slack && t <= dom.hi + slack)) {
    return Status::InvalidArgument(
        std::string(Name()) + ": input value outside native domain");
  }
  return Status::OK();
}

Result<ConditionalMoments> Mechanism::Moments(double t, double eps) const {
  return MomentsByQuadrature(t, eps);
}

Result<std::vector<Atom>> Mechanism::Atoms(double /*t*/, double /*eps*/) const {
  return std::vector<Atom>{};
}

Result<ConditionalMoments> Mechanism::MomentsByQuadrature(double t,
                                                          double eps) const {
  HDLDP_RETURN_NOT_OK(ValidateMomentArgs(t, eps));
  HDLDP_ASSIGN_OR_RETURN(std::vector<double> breaks,
                         DensityBreakpoints(t, eps));
  if (breaks.size() < 2) {
    return Status::Internal(std::string(Name()) +
                            ": DensityBreakpoints returned < 2 points");
  }
  HDLDP_ASSIGN_OR_RETURN(std::vector<Atom> atoms, Atoms(t, eps));

  // First pass: mean of t* (continuous part + atoms).
  auto moment = [&](const std::function<double(double)>& g) -> Result<double> {
    NeumaierSum acc;
    for (std::size_t i = 0; i + 1 < breaks.size(); ++i) {
      const double a = breaks[i];
      const double b = breaks[i + 1];
      auto integrand = [&](double x) -> double {
        auto density = Density(x, t, eps);
        return density.ok() ? g(x) * density.value() : 0.0;
      };
      acc.Add(AdaptiveSimpson(integrand, a, b).value);
    }
    for (const Atom& atom : atoms) acc.Add(atom.mass * g(atom.location));
    return acc.Total();
  };

  HDLDP_ASSIGN_OR_RETURN(const double mass, moment([](double) { return 1.0; }));
  if (std::abs(mass - 1.0) > 1e-6) {
    return Status::Internal(std::string(Name()) +
                            ": conditional density mass != 1 (got " +
                            std::to_string(mass) + ")");
  }
  HDLDP_ASSIGN_OR_RETURN(const double mean, moment([](double x) { return x; }));
  const double bias = mean - t;
  HDLDP_ASSIGN_OR_RETURN(
      const double second,
      moment([&](double x) { return Sq(x - mean); }));
  HDLDP_ASSIGN_OR_RETURN(
      const double third,
      moment([&](double x) { return std::abs(x - mean) * Sq(x - mean); }));
  ConditionalMoments out;
  out.bias = bias;
  out.variance = second;
  out.third_abs_central = third;
  return out;
}

}  // namespace mech
}  // namespace hdldp
