// Fig. 6 reproduction: reference-model variance plot and the 3 % quality
// boundary.
//
// Many measurement batches are executed on the noisy laptop GPU (RTX 3080
// Max-Q, the paper's most thermally unstable device). In every session the
// reference models are re-measured; their relative deviations from baseline
// are histogrammed against the 3 % boundary. Outliers (bad sessions caught
// by QC) are reported together with the retry statistics.
#include <iostream>

#include "bench_util.hpp"
#include "common/strings.hpp"

using namespace esm;
using namespace esm::bench;

int main(int argc, char** argv) {
  ArgParser args("Fig. 6: reference-model QC variance plot");
  args.add_int("batches", 40, "measurement batches to run");
  args.add_int("batch-size", 25, "architectures per batch");
  args.add_string("device", "rtx3080maxq", "target device");
  args.add_int("seed", 3, "experiment seed");
  args.add_string("fault-profile", "none",
                  "fault preset (none/flaky/harsh) or key=value pairs");
  args.add_int("retries", 3, "measurement attempts per sample (incl. first)");
  args.add_string("journal", "",
                  "campaign journal path: batches are journaled and an "
                  "interrupted run resumes from it (output stays "
                  "byte-identical); empty = off");
  if (!args.parse(argc, argv)) return 0;

  const SupernetSpec spec = resnet_spec();
  SimulatedDevice device(device_by_name(args.get_string("device")),
                         static_cast<std::uint64_t>(args.get_int("seed")));
  EsmConfig cfg = dataset_config(spec);
  cfg.faults = parse_fault_profile(args.get_string("fault-profile"));
  cfg.retry.max_attempts = static_cast<int>(args.get_int("retries"));
  cfg.journal.path = args.get_string("journal");
  cfg.journal.resume = cfg.journal.enabled();
  DatasetGenerator generator(cfg, device,
                             Rng(static_cast<std::uint64_t>(
                                 args.get_int("seed"))));

  BalancedSampler sampler(spec, cfg.n_bins);
  Rng rng(17);
  const int batches = static_cast<int>(args.get_int("batches"));
  const auto batch_size =
      static_cast<std::size_t>(args.get_int("batch-size"));
  DatasetReport totals;
  for (int b = 0; b < batches; ++b) {
    const BatchResult batch =
        generator.measure_batch(sampler.sample_n(batch_size, rng));
    totals.add(batch.report);
  }

  // Histogram of reference deviations across all sessions (all attempts'
  // final sessions are recorded in qc_history).
  std::vector<double> deviations;
  int sessions = 0, failed_sessions = 0, retried_batches = 0, outliers = 0;
  for (const QcReport& report : generator.qc_history()) {
    ++sessions;
    if (!report.passed) ++failed_sessions;
    if (report.attempts > 1) ++retried_batches;
    outliers += report.outliers;
    for (double d : report.reference_deviation) deviations.push_back(d);
  }

  print_banner(std::cout, "Fig. 6: reference-model deviation vs the 3% "
                          "boundary (" + device.spec().name + ")");
  TablePrinter hist({"|deviation| bin", "readings", "bar"});
  const std::vector<std::pair<double, double>> bins{
      {0.0, 0.005}, {0.005, 0.01}, {0.01, 0.02}, {0.02, 0.03},
      {0.03, 0.05}, {0.05, 0.10}, {0.10, 1.00}};
  for (const auto& [lo, hi] : bins) {
    int count = 0;
    for (double d : deviations) {
      if (d >= lo && d < hi) ++count;
    }
    std::string bar(static_cast<std::size_t>(
                        60.0 * count / static_cast<double>(deviations.size())),
                    '#');
    const std::string label = format_percent(lo, 1) + " - " +
                              format_percent(hi, 1) +
                              (lo >= 0.03 ? "  [outlier]" : "");
    hist.add_row({label, std::to_string(count), bar});
  }
  hist.print(std::cout);

  const double within = [&] {
    int n = 0;
    for (double d : deviations) {
      if (d <= 0.03) ++n;
    }
    return static_cast<double>(n) / static_cast<double>(deviations.size());
  }();

  TablePrinter summary({"metric", "value"});
  summary.add_row({"reference readings", std::to_string(deviations.size())});
  summary.add_row({"within 3% boundary", format_percent(within, 1)});
  summary.add_row({"outlier readings removed", std::to_string(outliers)});
  summary.add_row({"batches measured", std::to_string(sessions)});
  summary.add_row({"batches re-measured (QC fail)",
                   std::to_string(retried_batches)});
  summary.add_row({"final sessions still failing",
                   std::to_string(failed_sessions)});
  summary.print(std::cout);

  // Fault-tolerance ledger — only interesting (and only printed) when a
  // nonzero fault profile is active; the default run stays byte-identical
  // to the fault-free bench.
  if (cfg.faults.any()) {
    print_banner(std::cout, "Fault tolerance (profile: " +
                                args.get_string("fault-profile") + ")");
    TablePrinter faults({"metric", "value"});
    faults.add_row({"samples requested", std::to_string(totals.requested)});
    faults.add_row({"samples measured", std::to_string(totals.measured)});
    faults.add_row({"device sessions", std::to_string(totals.sessions)});
    faults.add_row({"retries", std::to_string(totals.retries)});
    faults.add_row({"timeouts", std::to_string(totals.timeouts)});
    faults.add_row({"device losses", std::to_string(totals.device_losses)});
    faults.add_row({"read errors", std::to_string(totals.read_errors)});
    faults.add_row({"archs quarantined", std::to_string(totals.quarantined)});
    faults.add_row(
        {"skipped (quarantined)", std::to_string(totals.skipped_quarantined)});
    faults.add_row({"simulated cost (s)",
                    format_double(totals.cost_seconds, 1)});
    faults.add_row({"  of which backoff (s)",
                    format_double(totals.backoff_seconds, 1)});
    faults.print(std::cout);
  }
  std::cout << "Paper's claim: most reference instances fall within the 3% "
               "boundary; the rest flag bad\nsessions whose data is "
               "re-collected, keeping the dataset clean.\n";
  return 0;
}
