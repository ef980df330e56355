#include "driver/consistency.hpp"

#include "hc3i/agent.hpp"

namespace hc3i::driver {

void append_cluster_agreement_violations(const core::Hc3iRuntime& rt,
                                         std::vector<std::string>& out,
                                         bool expect_ddv_agreement) {
  for (std::size_t c = 0; c < rt.cluster_count(); ++c) {
    const ClusterId cid{static_cast<std::uint32_t>(c)};
    const auto& agents = rt.cluster_agents(cid);
    if (agents.empty()) continue;

    // Agreement only holds outside 2PC rounds (paper §3.1); skip clusters
    // observed mid-round (a timer can fire inside the drain window).
    bool mid_round = false;
    for (const core::Hc3iAgent* a : agents) mid_round = mid_round || a->in_round();
    if (!mid_round) {
      const core::Hc3iAgent* first = agents.front();
      for (const core::Hc3iAgent* a : agents) {
        if (a->sn() != first->sn()) {
          out.push_back("cluster " + std::to_string(c) +
                        ": SN disagreement between nodes");
          break;
        }
        if (expect_ddv_agreement && !(a->ddv() == first->ddv())) {
          out.push_back("cluster " + std::to_string(c) +
                        ": DDV disagreement between nodes");
          break;
        }
        if (a->incarnation() != first->incarnation()) {
          out.push_back("cluster " + std::to_string(c) +
                        ": incarnation disagreement between nodes");
          break;
        }
      }
    }

    // Store well-formedness: SNs strictly increasing, own DDV entry == SN.
    const auto& records = rt.store(cid).records();
    for (std::size_t k = 0; k < records.size(); ++k) {
      if (records[k].ddv.at(cid) != records[k].sn) {
        out.push_back("cluster " + std::to_string(c) + ": CLC sn=" +
                      std::to_string(records[k].sn) +
                      " has DDV[self] != SN");
      }
      if (k > 0 && records[k].sn <= records[k - 1].sn) {
        out.push_back("cluster " + std::to_string(c) +
                      ": CLC SNs not strictly increasing");
      }
    }
  }

  // In failure-free runs, no cluster can have observed an SN the sender
  // never committed: DDV_j[i] <= SN_i.  (After rollbacks this bound can
  // transiently overshoot by design — see proto::rollback_target — so it is
  // only checked when no rollback happened.)
  if (expect_ddv_agreement && rt.fed_rollback_epoch() == 0) {
    for (std::size_t j = 0; j < rt.cluster_count(); ++j) {
      const auto& agents = rt.cluster_agents(ClusterId{static_cast<std::uint32_t>(j)});
      if (agents.empty()) continue;
      for (std::size_t i = 0; i < rt.cluster_count(); ++i) {
        if (i == j) continue;
        const ClusterId ci{static_cast<std::uint32_t>(i)};
        const auto& peer_agents = rt.cluster_agents(ci);
        if (peer_agents.empty()) continue;
        if (agents.front()->ddv().at(ci) > peer_agents.front()->sn()) {
          out.push_back("cluster " + std::to_string(j) +
                        " observed SN beyond cluster " + std::to_string(i) +
                        "'s commits");
        }
      }
    }
  }
}

}  // namespace hc3i::driver
