// Pure helpers of the end-to-end benchmark: latency summaries, the span
// tree that attributes an in-process round to layers, per-round CPU deltas
// from /proc samples, and the text form of a run result used for the
// recorded reference and the flat-vs-hierarchical comparison.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fed/run_result.h"

namespace perfbench {

/// Median; the mean of the two middle values for an even count, 0 when
/// empty.
double Median(std::vector<double> values);

/// A latency tail: the highest nearest-rank percentile that still has at
/// least `min_beyond` samples ranked above it — but never below the upper
/// median, so with fewer than 2 * min_beyond + 1 samples it is that median
/// and `beyond` says how many samples lie above it.
struct Tail {
  double value = 0.0;
  /// Nearest-rank percentile of `value` (100 * rank / samples).
  double percentile = 0.0;
  int samples = 0;
  /// Samples ranked above `value`.
  int beyond = 0;
};
Tail TailPercentile(std::vector<double> samples, int min_beyond = 10);

/// One timed interval. `parent` indexes the span list (-1 = root).
struct Span {
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int parent = -1;
};

/// Length of the union of [start, end) intervals clipped to [lo, hi).
int64_t UnionMicros(std::vector<std::pair<int64_t, int64_t>> intervals,
                    int64_t lo, int64_t hi);

/// A span's self time: its duration minus the part of it that its direct
/// children cover (children may overlap one another, e.g. pool threads).
int64_t SelfMicros(const std::vector<Span>& spans, int index);

/// Assembles the per-round span tree of an in-process run from the spans
/// recorded around the strategy calls ("fed.client" with children
/// "gnn.train" / "core.client_metrics", and "core.aggregate"), given the
/// program's round-start times and the time Run() returned:
///
///   fed.round  [start_r, start_r+1)
///     fed.client_phase  [first client start, last client end)
///       fed.client ...  (one per participant, from pool threads)
///     core.aggregate
///     fed.eval   [aggregate end, round end)
///
/// The round's self time is then everything no layer claims (fed.other).
/// Recorded spans keep their own parent links, shifted into the output.
std::vector<Span> BuildRoundTree(const std::vector<int64_t>& round_starts_us,
                                 int64_t run_end_us,
                                 const std::vector<Span>& recorded);

/// Per-round attribution read off a BuildRoundTree() result, in seconds.
/// client_phase + aggregate + eval + other == period for every round.
struct RoundLayers {
  double period = 0.0;
  double client_phase = 0.0;
  double aggregate = 0.0;
  double eval = 0.0;
  double other = 0.0;
  /// Thread-summed span time inside the client phase.
  double client_sum = 0.0;
  double train_sum = 0.0;
  double metrics_sum = 0.0;
};
std::vector<RoundLayers> AttributeRounds(const std::vector<Span>& tree);

/// utime + stime (clock ticks) out of one /proc/<pid>/stat line. The
/// command name may hold spaces and parentheses, so fields are counted
/// from the last ')'.
bool ParseProcCpuTicks(std::string_view line, int64_t* ticks);

/// VmHWM (peak resident set, kB) out of a /proc/<pid>/status text; -1 when
/// absent (e.g. the process already exited).
int64_t ParseVmHwmKb(std::string_view status);

/// CPU seconds each interval between consecutive samples, summed over the
/// processes in `members`. samples[k][p] is process p's cumulative CPU
/// seconds at sample k, negative when it could not be read (not started
/// yet, or already reaped); such gaps carry the last readable value, so an
/// interval never goes negative.
std::vector<double> IntervalCpu(const std::vector<std::vector<double>>& samples,
                                const std::vector<int>& members);

/// Text form of the deterministic part of a run result (everything
/// fed::DeterministicEquals compares; doubles as exact hex floats).
std::string EncodeResult(const fedgta::fed::RunResult& result);
/// Inverse of EncodeResult; false on malformed text.
bool DecodeResult(std::string_view text, fedgta::fed::RunResult* out);

/// Finds block `key` ("<key>\n<EncodeResult body>end\n") in a reference
/// file's text; false when absent.
bool FindResultBlock(std::string_view file_text, std::string_view key,
                     fedgta::fed::RunResult* out);
std::string FormatResultBlock(std::string_view key,
                              const fedgta::fed::RunResult& result);

/// The cross-plane contract: identical inputs give bit-identical results.
/// Empty when `actual` DeterministicEquals `expected`, otherwise a named
/// reason naming `what` and the first divergence.
std::string CompareResults(const std::string& what,
                           const fedgta::fed::RunResult& expected,
                           const fedgta::fed::RunResult& actual);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
