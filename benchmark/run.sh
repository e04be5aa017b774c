#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into the checkout-local build directory, then runs it with the driver's
# arguments. Everything go writes (build cache, config) stays under
# .bench_build/ so the run touches nothing outside the checkout.
set -euo pipefail
root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache"
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local GOWORK=off
go build -C "${root}/benchmark" -o "${build}/re2xolap-benchmark" .
exec "${build}/re2xolap-benchmark" "$@"
