module numfabric/benchmark

go 1.24

require numfabric v0.0.0

replace numfabric => ../
