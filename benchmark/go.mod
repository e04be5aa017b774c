module re2xolap/benchmark

go 1.22

require re2xolap v0.0.0

replace re2xolap => ../
