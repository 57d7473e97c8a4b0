#pragma once
// The benchmark's three workloads (see perfbench/README.md for why each
// exists) and the result helpers they share.

#include <cstdint>
#include <memory>

#include "harness.hpp"
#include "select/options.hpp"

namespace perfbench {

std::unique_ptr<Workload> make_service(std::uint64_t seed, int threads);
std::unique_ptr<Workload> make_query(std::uint64_t seed);
std::unique_ptr<Workload> make_churn(std::uint64_t seed);

/// Bit-identical selection results (feasibility, node set, every figure).
bool same_result(const netsel::select::SelectionResult& a,
                 const netsel::select::SelectionResult& b);

}  // namespace perfbench
