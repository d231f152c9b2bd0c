// The benchmark is its own module so the root module's build and tests
// never see it; the replace gives it the repo's internal packages.
module repro/benchmarks

go 1.22

require repro v0.0.0

replace repro => ../
