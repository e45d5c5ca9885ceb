#include "protocol/client.h"

#include <string>

#include "protocol/budget.h"

namespace hdldp {
namespace protocol {

Client::Client(mech::MechanismPtr mechanism, std::size_t num_dims,
               std::size_t report_dims, double per_dim_epsilon,
               mech::DomainMap domain_map)
    : mechanism_(std::move(mechanism)),
      num_dims_(num_dims),
      report_dims_(report_dims),
      per_dim_epsilon_(per_dim_epsilon),
      domain_map_(domain_map),
      plan_(mechanism_->MakePlan(per_dim_epsilon)) {}

Result<Client> Client::Create(mech::MechanismPtr mechanism,
                              std::size_t num_dims,
                              const ClientOptions& options) {
  if (mechanism == nullptr) {
    return Status::InvalidArgument("Client requires a mechanism");
  }
  if (num_dims == 0) {
    return Status::InvalidArgument("Client requires num_dims > 0");
  }
  std::size_t m = options.report_dims == 0 ? num_dims : options.report_dims;
  if (m > num_dims) {
    return Status::InvalidArgument(
        "Client report_dims (" + std::to_string(m) + ") exceeds num_dims (" +
        std::to_string(num_dims) + ")");
  }
  HDLDP_ASSIGN_OR_RETURN(
      const double per_dim,
      BudgetAccountant::PerDimensionBudget(options.total_epsilon, m));
  HDLDP_RETURN_NOT_OK(mechanism->ValidateBudget(per_dim));
  HDLDP_ASSIGN_OR_RETURN(
      mech::DomainMap map,
      mech::DomainMap::Between(options.data_domain, mechanism->InputDomain()));
  return Client(std::move(mechanism), num_dims, m, per_dim, map);
}

Result<UserReport> Client::Report(std::span<const double> tuple,
                                  Rng* rng) const {
  if (tuple.size() != num_dims_) {
    return Status::InvalidArgument(
        "tuple has " + std::to_string(tuple.size()) + " dimensions, expected " +
        std::to_string(num_dims_));
  }
  UserReport report;
  report.entries.reserve(report_dims_);
  ReportTo(tuple, rng, [&](std::uint32_t dim, double value) {
    report.entries.push_back(DimensionReport{dim, value});
  });
  return report;
}

}  // namespace protocol
}  // namespace hdldp
