// A module of its own, not a package of repro: the contract the driver
// checks BENCHMARK.json against wants a compiled benchmark to be a package
// with its own build file inside the benchmark's directory. The path stays
// under repro/ so that repro/internal/... may be imported.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
