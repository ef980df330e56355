// Ablation A4: the garbage-collection frequency trade-off the paper closes
// §5.4 with — "A tradeoff has to be found between the frequency of garbage
// collection and the number of CLCs stored."

#include "bench_common.hpp"

#include "util/quantity.hpp"

using namespace hc3i;

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {"seed"});
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  bench::print_header(
      "Ablation A4", "GC period vs storage high-water mark",
      "more frequent GC bounds storage tighter but costs N-1 requests + "
      "responses + collects per round (paper §5.4)");

  stats::Table t({"GC period", "GC rounds", "Max CLCs (c0)",
                  "Max storage (c0)", "GC WAN msgs"});
  for (const int period_min : {30, 60, 120, 240, 0 /* = disabled */}) {
    const SimTime period =
        period_min == 0 ? SimTime::infinity() : minutes(period_min);
    const auto r = bench::run_reference(minutes(30), minutes(30), 103.0,
                                        period, seed);
    // GC traffic: the only inter-cluster *control* messages in this
    // workload besides acks/alerts are the GC request/response/collect
    // triple; count 3 per round for N=2.
    const std::uint64_t rounds = r.counter("gc.rounds");
    t.row()
        .cell(period_min == 0 ? std::string("off")
                              : std::to_string(period_min) + "min")
        .cell(rounds)
        .cell(r.counter("store.max_clcs.c0"))
        .cell(format_bytes(r.counter("store.max_bytes.c0")))
        .cell(rounds * 3);
  }
  std::printf("%s\n", t.to_ascii().c_str());
  return 0;
}
