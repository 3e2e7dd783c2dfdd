/**
 * @file
 * Performance microbenchmarks for the regression layer: the exact
 * factorial fit that the attribution pipeline runs per quantile, and
 * the within-cell bootstrap behind Table IV's standard errors, at paper
 * scale (2^4 cells x 30 runs = 480 rows, 200 replicates).
 */

#include <benchmark/benchmark.h>

#include "regress/design.h"
#include "regress/factorial.h"
#include "util/random_variates.h"
#include "util/rng.h"

using namespace treadmill;
using namespace treadmill::regress;

namespace {

struct Dataset {
    FactorialDesign design{{"numa", "turbo", "dvfs", "nic"}};
    std::vector<std::vector<double>> levels;
    Vec y;
};

Dataset
factorialDataset(std::size_t reps)
{
    Dataset data;
    Rng rng(5);
    Normal noise(0.0, 15.0);
    for (std::size_t rep = 0; rep < reps; ++rep) {
        for (unsigned cell = 0; cell < 16; ++cell) {
            std::vector<double> levels{
                static_cast<double>(cell & 1),
                static_cast<double>((cell >> 1) & 1),
                static_cast<double>((cell >> 2) & 1),
                static_cast<double>((cell >> 3) & 1)};
            data.y.push_back(355.0 + 56.0 * levels[0] -
                             29.0 * levels[1] + 29.0 * levels[3] -
                             58.0 * levels[2] * levels[3] +
                             noise.sample(rng));
            data.levels.push_back(std::move(levels));
        }
    }
    return data;
}

void
BM_FactorialFitP99(benchmark::State &state)
{
    const Dataset data =
        factorialDataset(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            fitFactorial(data.design, data.levels, data.y, 0.99));
}
BENCHMARK(BM_FactorialFitP99)->Arg(10)->Arg(30);

void
BM_FactorialOls(benchmark::State &state)
{
    const Dataset data = factorialDataset(30);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            fitFactorialOls(data.design, data.levels, data.y));
}
BENCHMARK(BM_FactorialOls);

void
BM_FactorialBootstrap(benchmark::State &state)
{
    const Dataset data = factorialDataset(30);
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(bootstrapFactorial(
            data.design, data.levels, data.y, 0.99, 200, rng));
}
BENCHMARK(BM_FactorialBootstrap)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
