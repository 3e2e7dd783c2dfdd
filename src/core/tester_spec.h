/**
 * @file
 * Load-tester designs as data (paper Table I).
 *
 * A TesterSpec captures the design decisions that distinguish the
 * surveyed tools: control loop, client count, histogram discipline,
 * and cross-client aggregation. Presets reproduce Treadmill itself and
 * the behaviours of YCSB, Faban, CloudSuite, and Mutilate; feature
 * queries regenerate Table I programmatically.
 *
 * A run (core::runExperiment) reads four fields: clientMachines, loop,
 * connectionsPerClient and rateLimitedClosedLoop. The rest (name,
 * histogram, aggregation, repeatsExperiments, general) are Table I
 * traits read by the feature rows below; a run's histogram kind is
 * its collector's, and its aggregation is chosen when results are
 * read (ExperimentResult::aggregatedQuantile).
 */

#ifndef TREADMILL_CORE_TESTER_SPEC_H_
#define TREADMILL_CORE_TESTER_SPEC_H_

#include <string>
#include <vector>

#include "core/collector.h"
#include "core/controller.h"

namespace treadmill {
namespace core {

/** How per-instance statistics are combined across clients. */
enum class AggregationKind {
    /** Treadmill: extract the metric per instance, then average. */
    PerInstance,
    /** Pitfall: merge all distributions, then extract the metric. */
    Holistic
};

/** One load-tester design point. */
struct TesterSpec {
    std::string name = "treadmill";
    ControlLoop loop = ControlLoop::OpenLoop;
    unsigned clientMachines = 8;
    /** Closed-loop connection slots per client machine. */
    unsigned connectionsPerClient = 8;
    /** Closed loop paces to the target rate (Mutilate's target-QPS
     *  mode) rather than saturating every slot. */
    bool rateLimitedClosedLoop = true;
    HistogramKind histogram = HistogramKind::Adaptive;
    AggregationKind aggregation = AggregationKind::PerInstance;
    /** Whether the tool's procedure repeats runs (hysteresis aware). */
    bool repeatsExperiments = true;
    /** Whether new workloads integrate in <200 LoC (generality). */
    bool general = true;
};

/** @name Table I presets
 * @{
 */
TesterSpec treadmillSpec();
TesterSpec mutilateSpec();
TesterSpec cloudSuiteSpec();
TesterSpec ycsbSpec();
TesterSpec fabanSpec();
/** @} */

/** All five surveyed testers in Table I column order. */
std::vector<TesterSpec> surveyedTesters();

/** @name Table I feature rows
 * Whether the design satisfies each of the paper's requirements.
 * @{
 */
bool hasProperInterArrival(const TesterSpec &spec);
bool hasProperAggregation(const TesterSpec &spec);
bool avoidsClientQueueingBias(const TesterSpec &spec);
bool handlesHysteresis(const TesterSpec &spec);
bool hasGenerality(const TesterSpec &spec);
/** @} */

} // namespace core
} // namespace treadmill

#endif // TREADMILL_CORE_TESTER_SPEC_H_
